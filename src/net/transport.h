#ifndef PIYE_NET_TRANSPORT_H_
#define PIYE_NET_TRANSPORT_H_

#include <memory>
#include <string_view>

#include "common/result.h"
#include "net/socket.h"

namespace piye {
namespace net {

/// A bidirectional byte stream with per-operation deadlines — the seam the
/// framing layer reads and writes through. The test tree's fault proxy
/// wraps one leg of a proxied connection in a transport that drops, tears
/// and corrupts bytes, so every failure mode a real wire exposes reaches
/// the real protocol code with neither end configured for it.
///
/// Status vocabulary (shared by every implementation):
///  - `kDeadlineExceeded`: the operation's deadline passed. No bytes were
///    lost — but a caller mid-frame cannot resync and must disconnect.
///  - `kUnavailable`: the peer closed or the connection failed; the stream
///    is dead.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Reads 1..len bytes into buf, blocking up to `deadline`. Returns the
  /// byte count; 0 means the peer closed the write side (clean EOF).
  virtual Result<size_t> Read(char* buf, size_t len, TimePoint deadline) = 0;

  /// Writes all of `data`, blocking up to `deadline`.
  virtual Status WriteAll(std::string_view data, TimePoint deadline) = 0;

  /// Half-close: no more reads will be served (peer sees EOF on our write
  /// side stays open semantics are not needed here — this wakes our blocked
  /// readers). Safe from any thread.
  virtual void Shutdown() = 0;
};

/// Transport over a connected socket. Reads/writes poll the fd against the
/// deadline, so a slow or dead peer can never wedge a thread past it.
class SocketTransport : public Transport {
 public:
  explicit SocketTransport(Socket sock) : sock_(std::move(sock)) {}

  Result<size_t> Read(char* buf, size_t len, TimePoint deadline) override;
  Status WriteAll(std::string_view data, TimePoint deadline) override;
  void Shutdown() override { sock_.Shutdown(); }

 private:
  Socket sock_;
};

}  // namespace net
}  // namespace piye

#endif  // PIYE_NET_TRANSPORT_H_
