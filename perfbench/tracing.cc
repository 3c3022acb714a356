// The benchmark's own tracer: spans are recorded around the calls into each
// layer from outside the program, kept in memory, and written out at exit.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "perfbench.h"

namespace perfbench {
namespace {

/// Times every ExecuteFragment of one source, on either side of the wire.
class TracedSource : public piye::source::FederatedSource {
 public:
  TracedSource(const FederatedSource* inner, Tracer* tracer, bool server_side)
      : inner_(inner), tracer_(tracer), server_side_(server_side) {}

  const std::string& owner() const override { return inner_->owner(); }

  Result<FragmentResult> ExecuteFragment(
      const piye::source::PiqlQuery& fragment,
      const piye::CancelToken& cancel) const override {
    Tracer::SourceSpan span;
    span.owner = inner_->owner();
    span.server_side = server_side_;
    span.start_ns = NowNs();
    Result<FragmentResult> result = inner_->ExecuteFragment(fragment, cancel);
    span.end_ns = NowNs();
    span.ok = result.ok();
    span.refused = !result.ok() && (result.status().IsPrivacyViolation() ||
                                    result.status().IsPermissionDenied());
    if (result.ok()) {
      span.rows = result->table.num_rows();
      span.bytes = result->table.ApproxBytes();
    }
    tracer_->RecordSource(fragment.requester, std::move(span));
    return result;
  }

  Result<std::vector<piye::match::ColumnSketch>> ExportSketches(
      const std::string& shared_key) const override {
    return inner_->ExportSketches(shared_key);
  }

  piye::source::TransportStats transport_stats() const override {
    return inner_->transport_stats();
  }

 private:
  const FederatedSource* inner_;
  Tracer* tracer_;
  bool server_side_;
};

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer(const Plan* plan) : plan_(plan), queries_(plan->clients.size()) {
  for (size_t c = 0; c < plan->clients.size(); ++c) {
    inflight_.push_back(std::make_unique<std::atomic<uint64_t>>(0));
    queries_[c].reserve(plan->clients[c].size());
  }
}

void Tracer::BeginQuery(size_t client, uint64_t query) {
  inflight_[client]->store(query, std::memory_order_release);
}

void Tracer::EndQuery(size_t client, QuerySpan span) {
  inflight_[client]->store(0, std::memory_order_release);
  queries_[client].push_back(std::move(span));
}

void Tracer::RecordSource(const std::string& requester, SourceSpan span) {
  const auto it = plan_->client_of.find(requester);
  if (it != plan_->client_of.end()) {
    span.query = inflight_[it->second]->load(std::memory_order_acquire);
  }
  if (span.query == 0) {
    unattributed_.fetch_add(1);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  sources_.push_back(std::move(span));
}

std::unique_ptr<piye::source::FederatedSource> Tracer::Wrap(
    const piye::source::FederatedSource* inner, bool server_side) {
  return std::make_unique<TracedSource>(inner, this, server_side);
}

std::vector<Tracer::SourceSpan> Tracer::sources() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sources_;
}

Status Tracer::Dump(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot write " + path);
  // Every source span, but at most kMaxQuerySpans root spans per client: a
  // warehouse-hit workload makes millions of near-identical ones.
  constexpr size_t kMaxQuerySpans = 25000;
  size_t omitted = 0;
  for (const auto& client : queries_) {
    if (client.size() > kMaxQuerySpans) omitted += client.size() - kMaxQuerySpans;
    for (size_t i = 0; i < std::min(client.size(), kMaxQuerySpans); ++i) {
      const QuerySpan& q = client[i];
      std::fprintf(f, "{\"span\":\"query\",\"id\":\"q%llu\",\"start_ns\":%lld,"
                      "\"dur_us\":%.3f,\"answered\":%s,\"stages_us\":{",
                   static_cast<unsigned long long>(q.query),
                   static_cast<long long>(q.start_ns),
                   (q.end_ns - q.start_ns) / 1e3, q.answered ? "true" : "false");
      for (size_t i = 0; i < kNumStages; ++i) {
        std::fprintf(f, "%s\"%s\":%.3f", i ? "," : "", kStages[i], q.stage_us[i]);
      }
      std::fprintf(f, "}}\n");
    }
  }
  if (omitted > 0) {
    std::fprintf(f, "{\"omitted_query_spans\":%zu}\n", omitted);
  }
  for (const auto& s : sources()) {
    const auto q = static_cast<unsigned long long>(s.query);
    const std::string call = "q" + std::to_string(q) + "/" + s.owner;
    std::fprintf(f, "{\"span\":\"%s\",\"id\":\"%s%s\",\"parent\":\"%s\","
                    "\"start_ns\":%lld,\"dur_us\":%.3f,\"ok\":%s,\"refused\":%s,"
                    "\"rows\":%llu,\"bytes\":%llu}\n",
                 s.server_side ? "source.server_call" : "source.call", call.c_str(),
                 s.server_side ? "/server" : "",
                 s.server_side ? call.c_str() : ("q" + std::to_string(q)).c_str(),
                 static_cast<long long>(s.start_ns), (s.end_ns - s.start_ns) / 1e3,
                 s.ok ? "true" : "false", s.refused ? "true" : "false",
                 static_cast<unsigned long long>(s.rows),
                 static_cast<unsigned long long>(s.bytes));
  }
  const bool ok = std::fclose(f) == 0;
  return ok ? Status::OK() : Status::Internal("cannot write " + path);
}

}  // namespace perfbench
