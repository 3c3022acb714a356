#ifndef PIYE_NET_SERVER_H_
#define PIYE_NET_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>  // piye-lint: allow(header-hygiene) the server owns its accept thread
#include <vector>

#include "common/cancel.h"
#include "common/executor.h"
#include "common/result.h"
#include "common/sync.h"
#include "net/frame.h"
#include "net/socket.h"
#include "source/federated_source.h"

namespace piye {
namespace net {

struct ServerConfig {
  /// "unix:<path>" or "tcp:<host>:<port>" (port 0 = kernel-assigned; the
  /// bound address is reported by `bound_address()` after Start).
  std::string listen_address = "tcp:127.0.0.1:0";
  /// Workers executing query fragments (requests multiplex onto this pool,
  /// so one slow fragment never blocks the connection's other requests).
  size_t worker_threads = 4;
};

/// Hosts `FederatedSource` instances behind the PIYE wire protocol — one of
/// these per source process turns the in-process federation into a true
/// multi-process one. Per connection: a handler thread reads frames, Execute
/// and Sketch requests are dispatched to the worker pool tagged with their
/// request id, and responses are written back under a per-connection write
/// lock (so concurrent completions interleave at frame granularity, never
/// mid-frame). A CancelRequest fires the corresponding in-flight request's
/// CancelSource.
///
/// Stop() drains gracefully: the listener closes first (no new
/// connections) and each connection stops reading new requests, but keeps
/// its in-flight ones running and its socket open. Those get a fixed drain
/// window (2 s) to finish and flush their responses; only then does Stop()
/// cancel what is still running, shut the connections down and join every
/// thread. A client must complete the Hello exchange within 5 s of
/// connecting, and quiet connections wake every 250 ms to check for
/// shutdown.
class SourceServer {
 public:
  explicit SourceServer(ServerConfig config);
  ~SourceServer();

  SourceServer(const SourceServer&) = delete;
  SourceServer& operator=(const SourceServer&) = delete;

  /// Registers a source (not owned; must outlive the server). All sources
  /// must be added before Start.
  void AddSource(const source::FederatedSource* source);

  /// Listens and starts serving. Fails with kAlreadyExists if two added
  /// sources share an owner (the server would answer for only one of them).
  Status Start();
  void Stop();

  /// The resolved listen address ("tcp:127.0.0.1:<port>" with the real
  /// port). Valid after Start.
  const std::string& bound_address() const { return bound_address_; }

 private:
  struct Connection;

  void AcceptLoop();
  void HandleConnection(std::shared_ptr<Connection> conn);
  void DispatchExecute(std::shared_ptr<Connection> conn, Frame frame);
  void DispatchSketch(std::shared_ptr<Connection> conn, Frame frame);
  Status WriteResponse(Connection& conn, const Frame& frame);
  const source::FederatedSource* FindSource(const std::string& owner) const;

  ServerConfig config_;
  std::map<std::string, const source::FederatedSource*> sources_;
  /// An owner AddSource saw twice, reported by Start; empty if none.
  std::string duplicate_owner_;
  std::string bound_address_;

  std::unique_ptr<Listener> listener_;
  std::unique_ptr<Executor> workers_;
  // piye-lint: allow(raw-thread) accept loop; joined in Stop
  std::thread accept_thread_;

  mutable Mutex mu_;
  CondVar drain_cv_;
  /// Start/Stop are not concurrent with each other (caller contract), so
  /// `started_` needs no capability; everything the accept loop and the
  /// worker tasks share is guarded below.
  bool started_ = false;
  bool stopping_ GUARDED_BY(mu_) = false;
  /// Requests dispatched but not yet responded.
  size_t outstanding_ GUARDED_BY(mu_) = 0;
  std::vector<std::shared_ptr<Connection>> connections_ GUARDED_BY(mu_);
};

}  // namespace net
}  // namespace piye

#endif  // PIYE_NET_SERVER_H_
