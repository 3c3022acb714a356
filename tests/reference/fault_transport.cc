#include "reference/fault_transport.h"

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string>

#include "common/macros.h"
#include "common/rng.h"
#include "net/frame.h"

namespace piye {
namespace net {
namespace faultref {

namespace {
constexpr uint64_t kStreamSalt = 0x9E3779B97F4A7C15ULL;
constexpr uint64_t kConnectionSalt = 0x517CC1B727220A95ULL;
/// How often the accept loop checks for shutdown and reaps finished links.
constexpr std::chrono::milliseconds kAcceptTick{100};
constexpr std::chrono::milliseconds kDialTimeout{1000};

TimePoint After(std::chrono::milliseconds timeout) {
  return std::chrono::steady_clock::now() + timeout;
}

/// A socket path no other proxy in this process or another one uses.
std::string UniqueProxyAddress() {
  static std::atomic<uint64_t> next{0};
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("piye_fault_proxy_" + std::to_string(::getpid()) + "_" +
       std::to_string(next.fetch_add(1)) + ".sock");
  return "unix:" + path.string();
}

/// Forwards frames from `from` to `to` until either side fails or closes,
/// then shuts both down so the opposite pump wakes and ends too. A frame is
/// read with ReadFrame and written with WriteFrame, so a faulty leg sees the
/// very operations a NetClient's or SourceServer's own socket would: one
/// Read for a frame's first byte, then the rest of its header, its payload
/// and its trailer (more if the socket returns them in pieces), and one
/// WriteAll per frame.
void Pump(Transport& from, Transport& to) {
  for (;;) {
    const Result<Frame> frame = ReadFrame(from, NoDeadline(), kFrameTimeout);
    if (!frame.ok()) break;
    if (!WriteFrame(to, *frame, After(kFrameTimeout)).ok()) break;
  }
  from.Shutdown();
  to.Shutdown();
}
}  // namespace

FaultInjectingTransport::Decision FaultInjectingTransport::Decide(bool is_write,
                                                                  size_t len,
                                                                  uint64_t op) {
  Decision d;
  if (!plan_.enabled()) return d;
  Rng rng(plan_.seed ^ ((op + 1) * kStreamSalt));
  if (is_write) {
    if (plan_.drop_write_rate > 0 && rng.NextBernoulli(plan_.drop_write_rate)) {
      d.drop = true;
      return d;
    }
    if (plan_.tear_rate > 0 && rng.NextBernoulli(plan_.tear_rate) && len > 1) {
      d.tear = true;
      d.tear_prefix = 1 + static_cast<size_t>(rng.NextBounded(len - 1));
      return d;
    }
    if (plan_.corrupt_rate > 0 && rng.NextBernoulli(plan_.corrupt_rate) &&
        len > 0) {
      d.corrupt = true;
      d.corrupt_offset = static_cast<size_t>(rng.NextBounded(len));
      d.corrupt_mask = static_cast<uint8_t>(1u << rng.NextBounded(8));
    }
  } else {
    if (plan_.drop_read_rate > 0 && rng.NextBernoulli(plan_.drop_read_rate)) {
      d.drop = true;
    }
  }
  return d;
}

Result<size_t> FaultInjectingTransport::Read(char* buf, size_t len,
                                             TimePoint deadline) {
  if (killed_.load(std::memory_order_acquire)) {
    return Status::Unavailable("fault injection: connection is dead");
  }
  const Decision d =
      Decide(/*is_write=*/false, len, ops_.fetch_add(1, std::memory_order_relaxed));
  if (d.drop) {
    killed_.store(true, std::memory_order_release);
    inner_->Shutdown();
    return Status::Unavailable("fault injection: connection dropped mid-read");
  }
  return inner_->Read(buf, len, deadline);
}

Status FaultInjectingTransport::WriteAll(std::string_view data,
                                         TimePoint deadline) {
  if (killed_.load(std::memory_order_acquire)) {
    return Status::Unavailable("fault injection: connection is dead");
  }
  const Decision d =
      Decide(/*is_write=*/true, data.size(),
             ops_.fetch_add(1, std::memory_order_relaxed));
  if (d.drop) {
    killed_.store(true, std::memory_order_release);
    inner_->Shutdown();
    return Status::Unavailable("fault injection: write swallowed, connection dropped");
  }
  if (d.tear) {
    // Deliver a strict prefix, then die: the receiver sees a torn frame.
    (void)inner_->WriteAll(data.substr(0, d.tear_prefix), deadline);
    killed_.store(true, std::memory_order_release);
    inner_->Shutdown();
    return Status::Unavailable("fault injection: frame torn after " +
                               std::to_string(d.tear_prefix) + " bytes");
  }
  if (d.corrupt) {
    std::string mangled(data);
    mangled[d.corrupt_offset] =
        static_cast<char>(static_cast<uint8_t>(mangled[d.corrupt_offset]) ^
                          d.corrupt_mask);
    // The write itself succeeds — the damage surfaces at the receiver's CRC.
    return inner_->WriteAll(mangled, deadline);
  }
  return inner_->WriteAll(data, deadline);
}

/// One proxied connection: the accepted socket, the dialed one, and a pump
/// thread per direction. The transports outlive both pumps.
struct FaultProxy::Link {
  std::unique_ptr<Transport> downstream;
  std::unique_ptr<Transport> upstream;
  std::thread to_upstream;
  std::thread to_downstream;
  std::atomic<int> pumps_running{2};

  void Shutdown() {
    downstream->Shutdown();
    upstream->Shutdown();
  }
  void Join() {
    if (to_upstream.joinable()) to_upstream.join();
    if (to_downstream.joinable()) to_downstream.join();
  }
};

FaultProxy::FaultProxy(std::string upstream_address, FaultPlan plan, Leg leg)
    : upstream_(std::move(upstream_address)), plan_(plan), leg_(leg) {}

FaultProxy::~FaultProxy() {
  stopping_.store(true);
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& link : links_) link->Shutdown();
  for (auto& link : links_) link->Join();
  listener_.Close();
}

Status FaultProxy::Start() {
  PIYE_ASSIGN_OR_RETURN(listener_, Listener::Listen(UniqueProxyAddress()));
  address_ = listener_.bound_address();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void FaultProxy::Reap() {
  for (auto it = links_.begin(); it != links_.end();) {
    if ((*it)->pumps_running.load(std::memory_order_acquire) == 0) {
      (*it)->Join();
      it = links_.erase(it);
    } else {
      ++it;
    }
  }
}

void FaultProxy::AcceptLoop() {
  while (!stopping_.load()) {
    Result<Socket> accepted = listener_.Accept(After(kAcceptTick));
    if (!accepted.ok()) {
      if (!accepted.status().IsDeadlineExceeded()) return;  // shut down
      Reap();
      continue;
    }
    FaultPlan plan = plan_;
    plan.seed ^= kConnectionSalt * ++accepted_;
    Result<Socket> dialed = Dial(upstream_, After(kDialTimeout));
    // An unreachable upstream: the accepted socket closes here.
    if (!dialed.ok()) continue;

    auto link = std::make_shared<Link>();
    link->downstream = std::make_unique<SocketTransport>(std::move(*accepted));
    link->upstream = std::make_unique<SocketTransport>(std::move(*dialed));
    std::unique_ptr<Transport>& faulty =
        leg_ == Leg::kUpstream ? link->upstream : link->downstream;
    faulty = std::make_unique<FaultInjectingTransport>(std::move(faulty), plan);
    Link* raw = link.get();
    link->to_upstream = std::thread([raw] {
      Pump(*raw->downstream, *raw->upstream);
      raw->pumps_running.fetch_sub(1, std::memory_order_release);
    });
    link->to_downstream = std::thread([raw] {
      Pump(*raw->upstream, *raw->downstream);
      raw->pumps_running.fetch_sub(1, std::memory_order_release);
    });
    links_.push_back(std::move(link));
  }
}

}  // namespace faultref
}  // namespace net
}  // namespace piye
