#ifndef PIYE_TESTS_REFERENCE_FAULTY_SOURCE_H_
#define PIYE_TESTS_REFERENCE_FAULTY_SOURCE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "source/federated_source.h"
#include "source/remote_source.h"

namespace piye {
namespace source {
namespace faultref {

/// A federated source that misbehaves the way an autonomous service does:
/// slow, transiently failing, or hung. It wraps any source (not owned; it
/// must outlive the wrapper) and forwards `owner`, `ExportSketches` and
/// `transport_stats` unchanged, so tests and benches register it with an
/// engine, or host it on a `net::SourceServer`, in the wrapped source's
/// place. The product has no fault hook; `net::faultref::FaultProxy`
/// (reference/fault_transport.h) injects faults on the wire.
class FaultySource : public FederatedSource {
 public:
  /// Faults apply per `ExecuteFragment` call. Every call first sleeps
  /// `latency_micros`. Then, with probability `drop_rate`, it hangs for
  /// `hang_micros` and fails with kUnavailable; otherwise, with probability
  /// `error_rate`, it fails with kUnavailable at once. The draws come from
  /// an RNG seeded by `seed` and a per-call counter, so a source misbehaves
  /// reproducibly in call order. A plan with no latency and zero rates
  /// passes each call straight through and draws nothing. Sleeps wake early
  /// when the call's `CancelToken` fires.
  struct Plan {
    uint64_t latency_micros = 0;
    double error_rate = 0.0;
    double drop_rate = 0.0;
    uint64_t hang_micros = 50'000;
    uint64_t seed = 0;
  };

  FaultySource(const FederatedSource* inner, Plan plan);

  /// Replaces the plan for later calls; a call already sleeping keeps the
  /// plan it started with. The call counter is not reset.
  void set_plan(const Plan& plan);

  const std::string& owner() const override { return inner_->owner(); }
  Result<FragmentResult> ExecuteFragment(
      const PiqlQuery& fragment, const CancelToken& cancel = {}) const override;
  Result<std::vector<match::ColumnSketch>> ExportSketches(
      const std::string& shared_key) const override {
    return inner_->ExportSketches(shared_key);
  }
  TransportStats transport_stats() const override { return inner_->transport_stats(); }

 private:
  const FederatedSource* inner_;
  mutable Mutex mu_;
  Plan plan_ GUARDED_BY(mu_);
  /// Calls that drew from the plan's RNG so far.
  mutable std::atomic<uint64_t> calls_{0};
};

/// Sources and the FaultySource in front of each, in the order added. Tests
/// and benches register `faulty[i]` with an engine in `sources[i]`'s place
/// and call `faulty[i]->set_plan` to make source i misbehave.
struct Fleet {
  std::vector<std::unique_ptr<RemoteSource>> sources;
  std::vector<std::unique_ptr<FaultySource>> faulty;

  /// Adds `source` behind a FaultySource running `plan`.
  void Add(std::unique_ptr<RemoteSource> source, FaultySource::Plan plan = {}) {
    faulty.push_back(std::make_unique<FaultySource>(source.get(), plan));
    sources.push_back(std::move(source));
  }
  size_t size() const { return faulty.size(); }
};

}  // namespace faultref
}  // namespace source
}  // namespace piye

#endif  // PIYE_TESTS_REFERENCE_FAULTY_SOURCE_H_
