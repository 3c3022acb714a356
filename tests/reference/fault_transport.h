#ifndef PIYE_TESTS_REFERENCE_FAULT_TRANSPORT_H_
#define PIYE_TESTS_REFERENCE_FAULT_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "net/socket.h"
#include "net/transport.h"

namespace piye {
namespace net {
namespace faultref {

/// Seeded, deterministic transport-fault schedule. The faults happen to the
/// *bytes on the wire*, so the framing layer, the server's decoder, the
/// client's demux, and every resilience mechanism above them (retries,
/// breakers, quorum, budget accounting) are exercised against exactly what
/// a flaky network does: dropped connections, torn frames, flipped bits and
/// mid-response disconnects. Latency is `source::faultref::FaultySource`'s
/// job.
///
/// Decisions are drawn from an RNG stream derived from `seed` and a per-
/// operation counter, so a given plan misbehaves reproducibly in operation
/// order.
struct FaultPlan {
  uint64_t seed = 0;
  /// Probability a write is swallowed and the connection killed (the peer
  /// sees an abrupt disconnect; applied before any bytes leave).
  double drop_write_rate = 0.0;
  /// Probability a write delivers only a strict prefix of its bytes and
  /// then kills the connection — a torn frame on the receiver.
  double tear_rate = 0.0;
  /// Probability one byte of a written buffer is flipped — a CRC failure on
  /// the receiver.
  double corrupt_rate = 0.0;
  /// Probability a read is answered with a dead connection instead of data
  /// (a mid-response disconnect when a response was in flight).
  double drop_read_rate = 0.0;

  bool enabled() const {
    return drop_write_rate > 0 || tear_rate > 0 || corrupt_rate > 0 ||
           drop_read_rate > 0;
  }
};

/// Wraps a transport and applies a `FaultPlan` to every operation. Once a
/// fault kills the connection, every subsequent operation fails
/// `kUnavailable`, matching a real dead socket.
class FaultInjectingTransport : public Transport {
 public:
  FaultInjectingTransport(std::unique_ptr<Transport> inner, FaultPlan plan)
      : inner_(std::move(inner)), plan_(plan) {}

  Result<size_t> Read(char* buf, size_t len, TimePoint deadline) override;
  Status WriteAll(std::string_view data, TimePoint deadline) override;
  void Shutdown() override { inner_->Shutdown(); }

 private:
  /// One fault decision stream per operation, in operation order.
  struct Decision {
    bool drop = false;
    bool tear = false;
    bool corrupt = false;
    size_t tear_prefix = 0;    ///< bytes delivered before the tear
    size_t corrupt_offset = 0; ///< which byte to flip
    uint8_t corrupt_mask = 1;  ///< which bit(s)
  };
  Decision Decide(bool is_write, size_t len, uint64_t op);

  std::unique_ptr<Transport> inner_;
  FaultPlan plan_;
  std::atomic<uint64_t> ops_{0};
  std::atomic<bool> killed_{false};
};

/// A frame-forwarding proxy in front of one server: it listens on its own
/// Unix socket, dials `upstream_address` once per accepted connection and
/// forwards frames both ways, with a `FaultInjectingTransport` on one leg.
/// Each frame crosses the faulty leg in the same Read and WriteAll calls
/// the client's or server's own socket would make, so a plan draws one
/// decision per operation as it would there. Point a
/// `net::ClientConfig::address` at `address()` and the client's traffic
/// crosses a faulty wire while neither `NetClient` nor `SourceServer` knows.
///
/// On the upstream leg (the default) requests get the write faults and
/// response reads get `drop_read_rate`, as a fault plan on the client's own
/// socket would apply them. On the downstream leg responses, HelloAcks
/// included, get the write faults (a flipped bit reaches the client's CRC
/// check) and request reads get `drop_read_rate`.
///
/// Each proxied connection draws from its own seed stream
/// (`seed ^ k·0x517CC1B727220A95` for the k-th accepted connection), so a
/// redial does not replay the first connection's failure schedule. A
/// connection whose upstream dial fails is closed at once: the client sees
/// the peer hang up during its handshake.
class FaultProxy {
 public:
  enum class Leg { kUpstream, kDownstream };

  FaultProxy(std::string upstream_address, FaultPlan plan, Leg leg = Leg::kUpstream);
  ~FaultProxy();

  FaultProxy(const FaultProxy&) = delete;
  FaultProxy& operator=(const FaultProxy&) = delete;

  /// Listens and starts accepting.
  Status Start();

  /// "unix:<path>" of the proxy's own socket. Valid after Start.
  const std::string& address() const { return address_; }

 private:
  struct Link;

  void AcceptLoop();
  /// Joins and drops the links whose pumps have both finished.
  void Reap();

  const std::string upstream_;
  const FaultPlan plan_;
  const Leg leg_;
  std::string address_;
  Listener listener_;
  std::atomic<bool> stopping_{false};
  /// Accepted connections so far; numbers each one's seed stream.
  uint64_t accepted_ = 0;
  /// Touched by the accept loop only, and by the destructor after it joined.
  std::vector<std::shared_ptr<Link>> links_;
  std::thread accept_thread_;
};

}  // namespace faultref
}  // namespace net
}  // namespace piye

#endif  // PIYE_TESTS_REFERENCE_FAULT_TRANSPORT_H_
