#ifndef PIYE_NET_FAULT_H_
#define PIYE_NET_FAULT_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/cancel.h"
#include "net/transport.h"

namespace piye {
namespace net {

/// Seeded, deterministic transport-fault schedule, the product's only fault
/// hook: a source runs just its Figure 2(a) pipeline, and these faults
/// happen to the *bytes on the wire*. So the framing layer, the server's
/// decoder, the client's demux, and every resilience mechanism above them
/// (retries, breakers, quorum, budget accounting) are exercised against
/// exactly what a flaky network does: dropped connections, torn frames,
/// flipped bits, latency spikes, and mid-response disconnects.
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
  /// Probability an operation first sleeps `delay_micros` (a latency
  /// spike; interruptible by the operation's deadline only insofar as the
  /// sleep is bounded, so keep it small relative to test deadlines).
  double delay_rate = 0.0;
  uint64_t delay_micros = 0;

  bool enabled() const {
    return drop_write_rate > 0 || tear_rate > 0 || corrupt_rate > 0 ||
           drop_read_rate > 0 || delay_rate > 0;
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
    bool delay = false;
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

}  // namespace net
}  // namespace piye

#endif  // PIYE_NET_FAULT_H_
