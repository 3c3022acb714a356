#include "net/server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/macros.h"
#include "net/transport.h"
#include "net/wire.h"
#include "source/piql.h"

namespace piye {
namespace net {

namespace {
/// A connected client must complete the Hello exchange within this bound or
/// the connection is dropped (protects the server from dead or hostile
/// peers).
constexpr std::chrono::milliseconds kHandshakeTimeout{5000};
/// Poll cadence of the accept loop and of every quiet connection handler:
/// how often they check for shutdown (and the accept loop reaps dead
/// connections). Idle ticks are cheap; this is not a client obligation.
constexpr std::chrono::milliseconds kIdleTick{250};
/// Stop(): how long in-flight requests get to finish after the listener
/// closes before connections are torn down anyway.
constexpr std::chrono::milliseconds kDrainTimeout{2000};

TimePoint After(std::chrono::milliseconds timeout) {
  return std::chrono::steady_clock::now() + timeout;
}
}  // namespace

/// Per-connection state, shared between the handler thread and worker-pool
/// tasks completing requests for it. Responses serialize on `write_mu` so
/// concurrent completions interleave at frame granularity, never mid-frame.
/// Cache-line aligned like the client's `Conn`, and for the same reason.
struct alignas(64) SourceServer::Connection {
  /// Set once by the accept loop before the handler thread spawns.
  std::unique_ptr<Transport> transport;
  Mutex write_mu;
  // piye-lint: allow(raw-thread) per-connection handler, joined on reap/Stop
  std::thread handler;
  std::atomic<bool> dead{false};

  Mutex req_mu;
  std::map<uint64_t, CancelSource> inflight GUARDED_BY(req_mu);

  void RegisterRequest(uint64_t request_id, const CancelSource& source) {
    MutexLock lock(req_mu);
    inflight.emplace(request_id, source);
  }
  void UnregisterRequest(uint64_t request_id) {
    MutexLock lock(req_mu);
    inflight.erase(request_id);
  }
  void CancelRequest(uint64_t request_id) {
    MutexLock lock(req_mu);
    auto it = inflight.find(request_id);
    if (it != inflight.end()) {
      it->second.RequestCancel(
          Status::Cancelled("cancelled by the mediator over the wire"));
    }
  }
  void CancelAll() {
    MutexLock lock(req_mu);
    for (auto& [id, source] : inflight) {
      source.RequestCancel(Status::Cancelled("connection closed"));
    }
  }
};

SourceServer::SourceServer(ServerConfig config) : config_(std::move(config)) {}

SourceServer::~SourceServer() { Stop(); }

void SourceServer::AddSource(const source::FederatedSource* source) {
  if (!sources_.emplace(source->owner(), source).second) {
    duplicate_owner_ = source->owner();
  }
}

const source::FederatedSource* SourceServer::FindSource(
    const std::string& owner) const {
  auto it = sources_.find(owner);
  return it == sources_.end() ? nullptr : it->second;
}

Status SourceServer::Start() {
  if (started_) return Status::AlreadyExists("server already started");
  if (!duplicate_owner_.empty()) {
    return Status::AlreadyExists("source owner '" + duplicate_owner_ + "' added twice");
  }
  PIYE_ASSIGN_OR_RETURN(Listener listener,
                        Listener::Listen(config_.listen_address));
  listener_ = std::make_unique<Listener>(std::move(listener));
  bound_address_ = listener_->bound_address();
  workers_ = std::make_unique<Executor>(config_.worker_threads);
  started_ = true;
  {
    MutexLock lock(mu_);
    stopping_ = false;
  }
  // piye-lint: allow(raw-thread) accept loop spawn
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void SourceServer::Stop() {
  if (!started_) return;
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  // No new connections; a blocked Accept wakes and the loop exits.
  listener_->Shutdown();

  // Graceful drain: in-flight requests get kDrainTimeout to finish and
  // flush their responses before connections are torn down.
  {
    MutexLock lock(mu_);
    const TimePoint drain_deadline = After(kDrainTimeout);
    while (outstanding_ != 0) {
      if (drain_cv_.WaitUntil(lock, drain_deadline) ==
          std::cv_status::timeout) {
        break;  // drain budget spent; tear the connections down anyway
      }
    }
  }

  std::vector<std::shared_ptr<Connection>> conns;
  {
    MutexLock lock(mu_);
    conns.swap(connections_);
  }
  for (auto& conn : conns) {
    conn->CancelAll();
    conn->transport->Shutdown();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& conn : conns) {
    if (conn->handler.joinable()) conn->handler.join();
  }
  // Joining the pool runs any still-queued tasks; their writes fail fast on
  // the shut-down transports.
  workers_.reset();
  listener_->Close();
  started_ = false;
}

void SourceServer::AcceptLoop() {
  for (;;) {
    {
      MutexLock lock(mu_);
      if (stopping_) return;
    }
    Result<Socket> accepted = listener_->Accept(After(kIdleTick));
    if (!accepted.ok()) {
      if (accepted.status().IsDeadlineExceeded()) {
        // Idle tick: reap connections whose handlers have exited so a
        // long-lived server does not accumulate dead state.
        std::vector<std::shared_ptr<Connection>> reaped;
        {
          MutexLock lock(mu_);
          // Once stopping, every connection is left for Stop(), which
          // cancels and shuts down each one after its drain window, a
          // draining handler's included.
          if (stopping_) return;
          for (auto it = connections_.begin(); it != connections_.end();) {
            if ((*it)->dead.load(std::memory_order_acquire)) {
              reaped.push_back(std::move(*it));
              it = connections_.erase(it);
            } else {
              ++it;
            }
          }
        }
        for (auto& conn : reaped) {
          if (conn->handler.joinable()) conn->handler.join();
        }
        continue;
      }
      return;  // listener shut down
    }
    auto conn = std::make_shared<Connection>();
    conn->transport = std::make_unique<SocketTransport>(std::move(*accepted));
    {
      MutexLock lock(mu_);
      if (stopping_) return;
      connections_.push_back(conn);
    }
    // piye-lint: allow(raw-thread) handler thread spawn
    conn->handler = std::thread([this, conn] { HandleConnection(conn); });
  }
}

void SourceServer::HandleConnection(std::shared_ptr<Connection> conn) {
  Transport& transport = *conn->transport;
  // Handshake: the client speaks first, within the handshake bound.
  Result<Frame> hello =
      ReadFrame(transport, After(kHandshakeTimeout), kFrameTimeout);
  bool handshaken = false;
  if (hello.ok() && hello->type == MessageType::kHello &&
      DecodeHello(hello->payload).ok()) {
    std::vector<std::string> owners;
    for (const auto& [owner, src] : sources_) owners.push_back(owner);
    Frame ack;
    ack.type = MessageType::kHelloAck;
    ack.request_id = hello->request_id;
    ack.payload = EncodeHelloAck(owners);
    MutexLock lock(conn->write_mu);
    handshaken = WriteFrame(transport, ack, After(kFrameTimeout)).ok();
  }

  bool draining = false;
  while (handshaken) {
    {
      MutexLock lock(mu_);
      draining = stopping_;
    }
    // Drain: stop consuming, and leave the in-flight requests running and
    // the transport open for their responses. Stop() cancels and shuts the
    // connection down once its drain window is over.
    if (draining) break;
    Result<Frame> frame = ReadFrame(transport, After(kIdleTick), kFrameTimeout);
    if (!frame.ok()) {
      if (frame.status().IsDeadlineExceeded()) continue;  // idle tick
      if (frame.status().IsDataLoss() || frame.status().IsInvalidArgument()) {
        // Corrupt or malformed frame: the stream can no longer be trusted.
        Logger::Warn("net", "dropping connection on a bad frame: " +
                                frame.status().ToString());
      }
      break;
    }
    switch (frame->type) {
      case MessageType::kExecuteRequest:
        DispatchExecute(conn, std::move(*frame));
        break;
      case MessageType::kSketchRequest:
        DispatchSketch(conn, std::move(*frame));
        break;
      case MessageType::kCancelRequest:
        conn->CancelRequest(frame->request_id);
        break;
      case MessageType::kGoodbye:
        handshaken = false;
        break;
      default:
        Logger::Warn("net", std::string("unexpected ") +
                                MessageTypeName(frame->type) +
                                " frame; dropping connection");
        handshaken = false;
        break;
    }
  }

  if (!draining) {
    conn->CancelAll();
    transport.Shutdown();
  }
  conn->dead.store(true, std::memory_order_release);
}

Status SourceServer::WriteResponse(Connection& conn, const Frame& frame) {
  MutexLock lock(conn.write_mu);
  Status status = WriteFrame(*conn.transport, frame, After(kFrameTimeout));
  if (!status.ok()) {
    conn.transport->Shutdown();  // wake the handler; the connection is gone
  }
  return status;
}

void SourceServer::DispatchExecute(std::shared_ptr<Connection> conn,
                                   Frame frame) {
  CancelSource cancel_source;
  conn->RegisterRequest(frame.request_id, cancel_source);
  {
    MutexLock lock(mu_);
    ++outstanding_;
  }
  workers_->Submit([this, conn, frame = std::move(frame), cancel_source] {
    ExecuteResponse resp;
    auto run = [&]() -> Status {
      PIYE_ASSIGN_OR_RETURN(ExecuteRequest req,
                            DecodeExecuteRequest(frame.payload));
      const source::FederatedSource* src = FindSource(req.owner);
      if (src == nullptr) {
        return Status::NotFound("no source '" + req.owner +
                                "' hosted by this server");
      }
      PIYE_ASSIGN_OR_RETURN(source::PiqlQuery fragment,
                            source::PiqlQuery::Decode(req.fragment));
      CancelToken token = cancel_source.token();
      if (req.deadline_budget_ms > 0) {
        // The budget is the peer's number: clamp it before it meets the
        // clock, where a larger one would wrap into the past.
        const uint64_t budget_ms = std::min<uint64_t>(
            req.deadline_budget_ms, CancelToken::kMaxTimeoutMs);
        token = token.WithTimeout(
            std::chrono::milliseconds(static_cast<int64_t>(budget_ms)));
      }
      PIYE_ASSIGN_OR_RETURN(resp.result, src->ExecuteFragment(fragment, token));
      return Status::OK();
    };
    resp.status = run();
    Frame reply;
    reply.type = MessageType::kExecuteResponse;
    reply.request_id = frame.request_id;
    reply.payload = EncodeExecuteResponse(resp);
    // A failed response write already shut the transport down; the handler
    // notices and tears the connection down.
    (void)WriteResponse(*conn, reply);
    conn->UnregisterRequest(frame.request_id);
    {
      MutexLock lock(mu_);
      --outstanding_;
    }
    drain_cv_.NotifyAll();
  });
}

void SourceServer::DispatchSketch(std::shared_ptr<Connection> conn,
                                  Frame frame) {
  {
    MutexLock lock(mu_);
    ++outstanding_;
  }
  workers_->Submit([this, conn, frame = std::move(frame)] {
    SketchResponse resp;
    auto run = [&]() -> Status {
      PIYE_ASSIGN_OR_RETURN(SketchRequest req, DecodeSketchRequest(frame.payload));
      const source::FederatedSource* src = FindSource(req.owner);
      if (src == nullptr) {
        return Status::NotFound("no source '" + req.owner +
                                "' hosted by this server");
      }
      PIYE_ASSIGN_OR_RETURN(resp.sketches, src->ExportSketches(req.shared_key));
      return Status::OK();
    };
    resp.status = run();
    if (!resp.status.ok()) resp.sketches.clear();
    Frame reply;
    reply.type = MessageType::kSketchResponse;
    reply.request_id = frame.request_id;
    reply.payload = EncodeSketchResponse(resp);
    // As above: a failed write shuts the transport down for the handler.
    (void)WriteResponse(*conn, reply);
    {
      MutexLock lock(mu_);
      --outstanding_;
    }
    drain_cv_.NotifyAll();
  });
}

}  // namespace net
}  // namespace piye
