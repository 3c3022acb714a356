#include "net/client.h"

#include <algorithm>
#include <chrono>
#include <thread>  // piye-lint: allow(raw-thread) per-connection reader threads
#include <utility>

#include "common/macros.h"
#include "net/transport.h"
#include "net/wire.h"

namespace piye {
namespace net {

namespace {

TimePoint After(uint64_t ms) {
  return std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
}

/// The earlier of a token's deadline and `fallback`.
TimePoint EffectiveDeadline(const CancelToken& cancel, TimePoint fallback) {
  return cancel.has_deadline() ? std::min(cancel.deadline(), fallback)
                               : fallback;
}

}  // namespace

/// One in-flight request, parked in its connection's pending table until the
/// reader thread demuxes the matching response (or the connection dies).
struct NetClient::Pending {
  Mutex mu;
  CondVar cv;
  bool done GUARDED_BY(mu) = false;
  Status status GUARDED_BY(mu) = Status::OK();
  Frame response GUARDED_BY(mu);

  void Complete(Status s, Frame f) {
    {
      MutexLock lock(mu);
      if (done) return;
      done = true;
      status = std::move(s);
      response = std::move(f);
    }
    cv.NotifyAll();
  }
};

/// Connection lifecycle: `transport` is destroyed only after `reader` is
/// joined (the reader blocks inside ReadFrame on it). A dead connection is
/// therefore marked `broken` — transport shut down, pending requests failed
/// — and the actual teardown + redial happens lazily in EnsureConnected,
/// which joins the reader first. `generation` fences stale teardown reports.
struct NetClient::Conn {
  Mutex mu;
  /// Null ⇒ never connected / torn down. The raw pointer is copied out under
  /// `mu` and used lock-free by the reader/writer: destruction only happens
  /// after the reader is joined, so the copy cannot dangle.
  std::unique_ptr<Transport> transport GUARDED_BY(mu);
  bool broken GUARDED_BY(mu) = false;  ///< shut down, awaiting redial
  uint64_t generation GUARDED_BY(mu) = 0;
  // piye-lint: allow(raw-thread) dedicated reader, joined before teardown
  std::thread reader GUARDED_BY(mu);
  std::map<uint64_t, std::shared_ptr<Pending>> pending GUARDED_BY(mu);
  /// Window occupancy (includes requests being written).
  size_t inflight GUARDED_BY(mu) = 0;
  CondVar window_cv;
  bool ever_connected GUARDED_BY(mu) = false;

  Mutex write_mu;  ///< serializes frame writes; acquired before `mu`

  bool usable() const REQUIRES(mu) { return transport != nullptr && !broken; }
};

NetClient::NetClient(ClientConfig config) : config_(std::move(config)) {
  const size_t n = std::max<size_t>(1, config_.connections);
  conns_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    conns_.push_back(std::make_shared<Conn>());
  }
}

NetClient::~NetClient() { Close(); }

void NetClient::Close() {
  if (closed_.exchange(true)) return;
  for (auto& conn : conns_) {
    std::thread reader;  // piye-lint: allow(raw-thread) joined just below
    {
      MutexLock lock(conn->mu);
      if (conn->transport != nullptr) conn->transport->Shutdown();
      conn->broken = true;
      reader = std::move(conn->reader);
    }
    if (reader.joinable()) reader.join();
    std::map<uint64_t, std::shared_ptr<Pending>> orphaned;
    {
      MutexLock lock(conn->mu);
      orphaned.swap(conn->pending);
      conn->transport.reset();  // reader joined; safe to destroy
      conn->window_cv.NotifyAll();
    }
    for (auto& [id, pending] : orphaned) {
      pending->Complete(Status::Unavailable("client closed"), Frame{});
    }
  }
}

source::TransportStats NetClient::stats() const {
  source::TransportStats s;
  s.over_network = true;
  s.connects = connects_.load(std::memory_order_relaxed);
  s.reconnects = reconnects_.load(std::memory_order_relaxed);
  s.connect_failures = connect_failures_.load(std::memory_order_relaxed);
  s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  s.frames_received = frames_received_.load(std::memory_order_relaxed);
  s.timeouts = timeouts_.load(std::memory_order_relaxed);
  s.corrupt_frames = corrupt_frames_.load(std::memory_order_relaxed);
  s.disconnects = disconnects_.load(std::memory_order_relaxed);
  return s;
}

void NetClient::FailConnection(Conn& conn, uint64_t generation,
                               const Status& reason) {
  std::map<uint64_t, std::shared_ptr<Pending>> orphaned;
  {
    MutexLock lock(conn.mu);
    if (conn.generation != generation) return;  // a newer connection took over
    if (conn.broken || conn.transport == nullptr) return;  // already torn down
    conn.broken = true;
    conn.transport->Shutdown();  // wakes the reader; destruction waits for it
    orphaned.swap(conn.pending);
    disconnects_.fetch_add(1, std::memory_order_relaxed);
    conn.window_cv.NotifyAll();
  }
  for (auto& [id, pending] : orphaned) {
    pending->Complete(reason, Frame{});
  }
}

void NetClient::ReaderLoop(std::shared_ptr<Conn> conn, uint64_t generation) {
  const auto frame_timeout = std::chrono::milliseconds(config_.frame_timeout_ms);
  for (;;) {
    Transport* transport = nullptr;
    {
      MutexLock lock(conn->mu);
      if (conn->generation != generation || !conn->usable()) return;
      transport = conn->transport.get();
    }
    // Idle reads have no deadline: Shutdown() is the wakeup. The pointer
    // stays valid because EnsureConnected/Close join this thread before
    // destroying the transport.
    Result<Frame> frame = ReadFrame(*transport, NoDeadline(), frame_timeout,
                                    config_.max_frame_payload);
    if (!frame.ok()) {
      if (frame.status().IsInvalidArgument()) {
        // Corrupt or torn frame: the stream is unrecoverable.
        corrupt_frames_.fetch_add(1, std::memory_order_relaxed);
      }
      FailConnection(*conn, generation,
                     Status::Unavailable("connection to '" + config_.address +
                                         "' lost: " + frame.status().message()));
      return;
    }
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    std::shared_ptr<Pending> pending;
    {
      MutexLock lock(conn->mu);
      if (conn->generation != generation) return;
      auto it = conn->pending.find(frame->request_id);
      if (it != conn->pending.end()) {
        pending = it->second;
        conn->pending.erase(it);
      }
    }
    // A response with no waiter is a request we abandoned on deadline —
    // drop it on the floor.
    if (pending != nullptr) {
      pending->Complete(Status::OK(), std::move(*frame));
    }
  }
}

Status NetClient::EnsureConnected(std::shared_ptr<Conn> conn,
                                  const CancelToken& cancel) {
  {
    MutexLock lock(conn->mu);
    if (conn->usable()) return Status::OK();
  }
  // A broken connection's reader exits promptly (its transport was shut
  // down); join it before destroying the transport it may be reading.
  // piye-lint: allow(raw-thread) joined just below
  std::thread old_reader;
  {
    MutexLock lock(conn->mu);
    if (conn->usable()) return Status::OK();  // another caller redialed
    old_reader = std::move(conn->reader);
  }
  if (old_reader.joinable()) old_reader.join();
  {
    MutexLock lock(conn->mu);
    if (conn->usable()) return Status::OK();
    if (!conn->reader.joinable()) conn->transport.reset();
  }

  Status last = Status::Unavailable("never dialed");
  uint64_t backoff_ms = config_.backoff_initial_ms;
  for (size_t attempt = 0;
       attempt < std::max<size_t>(1, config_.max_dial_attempts); ++attempt) {
    if (closed_.load()) return Status::Unavailable("client closed");
    PIYE_RETURN_NOT_OK(cancel.Check());
    if (attempt > 0) {
      // Interruptible backoff: a fired token stops the wait mid-sleep.
      if (!cancel.SleepFor(std::chrono::milliseconds(backoff_ms)) &&
          cancel.can_fire() && cancel.cancelled()) {
        return cancel.status();
      }
      backoff_ms = std::min(backoff_ms * 2, config_.backoff_cap_ms);
    }
    const TimePoint dial_deadline =
        EffectiveDeadline(cancel, After(config_.connect_timeout_ms));
    Result<Socket> sock = Dial(config_.address, dial_deadline);
    if (!sock.ok()) {
      connect_failures_.fetch_add(1, std::memory_order_relaxed);
      last = sock.status();
      if (last.IsDeadlineExceeded() && cancel.cancelled()) {
        return cancel.status();
      }
      continue;
    }
    std::unique_ptr<Transport> transport =
        std::make_unique<SocketTransport>(std::move(*sock));
    if (config_.fault.enabled()) {
      // Each dial gets a distinct fault stream so reconnects do not replay
      // the first connection's failure schedule verbatim.
      FaultPlan plan = config_.fault;
      plan.seed ^=
          0x517CC1B727220A95ULL * (connects_.load() + attempt + 1);
      transport = std::make_unique<FaultInjectingTransport>(
          std::move(transport), plan);
    }

    // Handshake: Hello out, HelloAck back, both within the hello bound.
    const TimePoint hello_deadline =
        EffectiveDeadline(cancel, After(config_.hello_timeout_ms));
    Frame hello;
    hello.type = MessageType::kHello;
    hello.payload = EncodeHello("piye-mediator");
    Status hs = WriteFrame(*transport, hello, hello_deadline);
    if (hs.ok()) {
      Result<Frame> ack =
          ReadFrame(*transport, hello_deadline,
                    std::chrono::milliseconds(config_.frame_timeout_ms),
                    config_.max_frame_payload);
      if (!ack.ok()) {
        hs = ack.status();
      } else if (ack->type != MessageType::kHelloAck) {
        hs = Status::InvalidArgument("expected HelloAck, got " +
                                     std::string(MessageTypeName(ack->type)));
      } else {
        Result<std::vector<std::string>> owners = DecodeHelloAck(ack->payload);
        if (!owners.ok()) {
          hs = owners.status();
        } else {
          MutexLock lock(owners_mu_);
          owners_ = std::move(*owners);
        }
      }
    }
    if (!hs.ok()) {
      connect_failures_.fetch_add(1, std::memory_order_relaxed);
      if (hs.IsInvalidArgument()) return hs;  // wrong protocol; don't retry
      last = Status::Unavailable("handshake with '" + config_.address +
                                 "' failed: " + hs.message());
      continue;
    }

    connects_.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock lock(conn->mu);
      if (conn->usable()) return Status::OK();  // lost the redial race
      if (conn->ever_connected) {
        reconnects_.fetch_add(1, std::memory_order_relaxed);
      }
      conn->ever_connected = true;
      conn->transport = std::move(transport);
      conn->broken = false;
      conn->generation += 1;
      const uint64_t generation = conn->generation;
      conn->reader =  // piye-lint: allow(raw-thread) reader thread spawn
          std::thread([this, conn, generation] { ReaderLoop(conn, generation); });
    }
    return Status::OK();
  }
  return Status::Unavailable(
      "source at '" + config_.address + "' unreachable after " +
      std::to_string(std::max<size_t>(1, config_.max_dial_attempts)) +
      " attempts: " + last.message());
}

Result<Frame> NetClient::DoRequest(MessageType type, std::string payload,
                                   MessageType expected_response,
                                   const CancelToken& cancel) {
  if (closed_.load()) return Status::Unavailable("client closed");
  auto conn = conns_[round_robin_.fetch_add(1, std::memory_order_relaxed) %
                     conns_.size()];
  PIYE_RETURN_NOT_OK(EnsureConnected(conn, cancel));

  const uint64_t request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  auto pending = std::make_shared<Pending>();
  uint64_t generation = 0;
  {
    MutexLock lock(conn->mu);
    // Backpressure: wait for a window slot, bounded by the token deadline.
    const TimePoint wait_deadline =
        cancel.has_deadline() ? cancel.deadline() : NoDeadline();
    while (conn->inflight >= config_.max_inflight_per_connection) {
      if (closed_.load()) return Status::Unavailable("client closed");
      PIYE_RETURN_NOT_OK(cancel.Check());
      if (!conn->usable()) {
        return Status::Unavailable(
            "connection lost while awaiting a window slot");
      }
      if (wait_deadline == NoDeadline()) {
        conn->window_cv.WaitFor(lock, std::chrono::milliseconds(50));
      } else if (conn->window_cv.WaitUntil(lock, wait_deadline) ==
                 std::cv_status::timeout) {
        timeouts_.fetch_add(1, std::memory_order_relaxed);
        return Status::DeadlineExceeded(
            "deadline expired awaiting a request window slot");
      }
    }
    if (!conn->usable()) {
      return Status::Unavailable("connection lost before the request was sent");
    }
    generation = conn->generation;
    conn->inflight += 1;
    conn->pending.emplace(request_id, pending);
  }

  // Releases the window slot (and, on abnormal exits, the pending entry).
  auto cleanup = [&](bool erase_pending) {
    MutexLock lock(conn->mu);
    if (erase_pending) conn->pending.erase(request_id);
    conn->inflight -= 1;
    conn->window_cv.NotifyOne();
  };

  Frame request;
  request.type = type;
  request.request_id = request_id;
  request.payload = std::move(payload);
  {
    MutexLock write_lock(conn->write_mu);
    Transport* transport = nullptr;
    {
      MutexLock lock(conn->mu);
      if (conn->generation == generation && conn->usable()) {
        transport = conn->transport.get();
      }
    }
    if (transport == nullptr) {
      cleanup(/*erase_pending=*/true);
      return Status::Unavailable("connection lost before the request was sent");
    }
    const TimePoint write_deadline =
        EffectiveDeadline(cancel, After(config_.frame_timeout_ms));
    const Status written = WriteFrame(*transport, request, write_deadline);
    if (!written.ok()) {
      cleanup(/*erase_pending=*/true);
      if (written.IsDeadlineExceeded()) {
        timeouts_.fetch_add(1, std::memory_order_relaxed);
        return written;
      }
      FailConnection(*conn, generation, Status::Unavailable(written.message()));
      return Status::Unavailable("request write to '" + config_.address +
                                 "' failed: " + written.message());
    }
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
  }

  // Wait for the reader to demux our response, the token to fire, or the
  // connection to die (FailConnection completes us with kUnavailable).
  Status fired = Status::OK();  ///< non-OK once the token aborts the wait
  Status status = Status::OK();
  Frame response;
  {
    MutexLock pending_lock(pending->mu);
    while (!pending->done) {
      if (!cancel.can_fire()) {
        pending->cv.Wait(pending_lock);
        continue;
      }
      fired = cancel.Check();
      if (fired.ok()) {
        pending->cv.WaitFor(pending_lock, std::chrono::milliseconds(10));
        continue;
      }
      break;  // abandon the request below, outside the lock
    }
    if (fired.ok()) {
      status = pending->status;
      response = std::move(pending->response);
    }
  }
  if (!fired.ok()) {
    // Best-effort cancel so the server stops burning work on an abandoned
    // query. Failure just means the connection is already dead.
    Frame cancel_frame;
    cancel_frame.type = MessageType::kCancelRequest;
    cancel_frame.request_id = request_id;
    {
      MutexLock write_lock(conn->write_mu);
      Transport* transport = nullptr;
      {
        MutexLock lock(conn->mu);
        if (conn->generation == generation && conn->usable()) {
          transport = conn->transport.get();
        }
      }
      if (transport != nullptr &&
          WriteFrame(*transport, cancel_frame, After(50)).ok()) {
        frames_sent_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    cleanup(/*erase_pending=*/true);
    if (fired.IsDeadlineExceeded()) {
      timeouts_.fetch_add(1, std::memory_order_relaxed);
    }
    return fired;
  }
  cleanup(/*erase_pending=*/false);  // whoever completed us removed the entry

  PIYE_RETURN_NOT_OK(status);
  if (response.type != expected_response) {
    return Status::InvalidArgument(
        std::string("expected ") + MessageTypeName(expected_response) +
        ", got " + MessageTypeName(response.type));
  }
  return response;
}

Result<source::FederatedSource::FragmentResult> NetClient::ExecuteFragment(
    const std::string& owner, const std::string& fragment_xml,
    const CancelToken& cancel) {
  ExecuteRequest req;
  req.owner = owner;
  req.fragment_xml = fragment_xml;
  if (cancel.has_deadline()) {
    const auto remaining = cancel.deadline() - std::chrono::steady_clock::now();
    if (remaining <= std::chrono::milliseconds(0)) {
      return Status::DeadlineExceeded("deadline expired before dispatch");
    }
    req.deadline_budget_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
            .count());
    if (req.deadline_budget_ms == 0) req.deadline_budget_ms = 1;
  }
  PIYE_ASSIGN_OR_RETURN(
      Frame response,
      DoRequest(MessageType::kExecuteRequest, EncodeExecuteRequest(req),
                MessageType::kExecuteResponse, cancel));
  PIYE_ASSIGN_OR_RETURN(ExecuteResponse resp,
                        DecodeExecuteResponse(response.payload));
  PIYE_RETURN_NOT_OK(resp.status);
  return std::move(resp.result);
}

Result<std::vector<match::ColumnSketch>> NetClient::FetchSketches(
    const std::string& owner, const std::string& shared_key) {
  SketchRequest req;
  req.owner = owner;
  req.shared_key = shared_key;
  PIYE_ASSIGN_OR_RETURN(
      Frame response,
      DoRequest(MessageType::kSketchRequest, EncodeSketchRequest(req),
                MessageType::kSketchResponse, CancelToken()));
  PIYE_ASSIGN_OR_RETURN(SketchResponse resp,
                        DecodeSketchResponse(response.payload));
  PIYE_RETURN_NOT_OK(resp.status);
  return std::move(resp.sketches);
}

Result<std::vector<std::string>> NetClient::ListOwners() {
  if (closed_.load()) return Status::Unavailable("client closed");
  PIYE_RETURN_NOT_OK(EnsureConnected(conns_[0], CancelToken()));
  MutexLock lock(owners_mu_);
  return owners_;
}

}  // namespace net
}  // namespace piye
