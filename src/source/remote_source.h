#ifndef PIYE_SOURCE_REMOTE_SOURCE_H_
#define PIYE_SOURCE_REMOTE_SOURCE_H_

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "access/rbac.h"
#include "common/cancel.h"
#include "common/result.h"
#include "common/rng.h"
#include "match/schema_matcher.h"
#include "policy/policy_store.h"
#include "relational/executor.h"
#include "source/federated_source.h"
#include "source/loss_computation.h"
#include "source/optimizer.h"
#include "source/piql.h"
#include "source/preservation.h"
#include "source/privacy_rewriter.h"
#include "source/query_cluster.h"
#include "source/query_transformer.h"
#include "xml/loose_path.h"

namespace piye {
namespace source {

/// A remote source running the complete privacy-preserving query processing
/// framework of Figure 2(a), implementing the `FederatedSource` execution
/// interface in-process. The mediation engine talks to it exclusively
/// through `ExecuteFragment` (XML query in, tagged table out) and
/// `ExportSketches` (privacy-respecting schema summaries for mediated-schema
/// generation) — it never sees the raw tables. The same object can also be
/// hosted out-of-process by a `net::SourceServer`, in which case the engine
/// reaches it through a `net::NetSource` over the wire protocol instead.
class RemoteSource : public FederatedSource {
 public:
  /// `owner` names the organization (policy key); `seed` drives the
  /// perturbation RNG deterministically.
  RemoteSource(std::string owner, std::string table_name, relational::Table data,
               uint64_t seed = 0);

  /// Builds a source from a hierarchical store: record-shaped XML text is
  /// ingested through relational::TableFromXmlRecords (schema and types
  /// inferred), so XML-native organizations plug into the same pipeline.
  static Result<std::unique_ptr<RemoteSource>> FromXmlRecords(
      const std::string& owner, const std::string& table_name,
      std::string_view xml_text, uint64_t seed = 0);

  const std::string& owner() const override { return owner_; }
  const std::string& table_name() const { return table_name_; }
  const relational::Schema& schema() const;
  size_t num_rows() const;

  /// Mutable configuration (populated during deployment).
  policy::PolicyStore* mutable_policies() { return &policies_; }
  const policy::PolicyStore& policies() const { return policies_; }
  access::RbacDatabase* mutable_rbac() { return &rbac_; }
  void set_cluster_store(ClusterStore store) { clusters_ = std::move(store); }
  void set_preservation_config(PreservationModule::Config config) {
    preservation_ = PreservationModule(config);
  }
  void set_name_matcher(xml::LooseNameMatcher matcher);

  /// Seeded fault injection for testing and benchmarking the mediation
  /// engine's degradation behaviour against a misbehaving autonomous
  /// source. Faults apply per `ExecuteFragment` call: every call first
  /// sleeps `latency_micros`; then, with probability `error_rate`, fails
  /// with `kUnavailable` (a transient fault the engine may retry); with
  /// probability `drop_rate`, simulates a hang — sleeping `hang_micros`
  /// before failing, long enough to trip any realistic per-source deadline.
  /// Decisions are drawn from an RNG stream seeded by `seed` and a per-call
  /// counter, so a given source misbehaves reproducibly in call order.
  struct FaultInjection {
    uint64_t latency_micros = 0;
    double error_rate = 0.0;
    double drop_rate = 0.0;
    uint64_t hang_micros = 50'000;
    uint64_t seed = 0;
  };
  void set_fault_injection(const FaultInjection& faults) { faults_ = faults; }
  const FaultInjection& fault_injection() const { return faults_; }

  /// Marks a column whose *name* is itself sensitive: it still participates
  /// in mediated-schema generation (via instance sketches) but is exported
  /// under a salted hash tag, so the mediated schema stays partial
  /// (Section 5: "the schemas of some sources may not be available freely").
  void HideSchemaColumn(const std::string& column) {
    hidden_schema_columns_.insert(column);
  }

  /// Everything `ExecuteFragment` reports back: the released table, its
  /// privacy tags and per-stage diagnostics used by the Fig. 2 pipeline
  /// benchmark. The type itself lives on the `FederatedSource` interface;
  /// this alias keeps the `RemoteSource::FragmentResult` spelling working.
  using FragmentResult = FederatedSource::FragmentResult;

  /// Runs the full pipeline: privacy view → transform → rewrite →
  /// cluster-match → loss → optimize → (query-set restriction) → execute →
  /// preserve → tag.
  ///
  /// Safe for concurrent callers: the pipeline stages are all const over
  /// the source's configuration, and stochastic preservation draws from a
  /// per-call RNG stream derived from the source seed and the fragment's
  /// serialized content rather than shared mutable generator state. That
  /// derivation also means re-asking the *same* fragment reproduces the
  /// same perturbation — averaging repeated answers gains an attacker
  /// nothing (the same property Denning's random-sample queries rely on).
  ///
  /// `cancel` makes the call cooperative: the pipeline polls the token at
  /// its stage boundaries and the fault-injection sleeps are interruptible,
  /// so an expired query deadline or a caller cancellation returns promptly
  /// with the token's status (kDeadlineExceeded / kCancelled) instead of
  /// running the remaining stages — or sleeping out a simulated hang — for
  /// an answer nobody will read. The default token never fires.
  Result<FragmentResult> ExecuteFragment(
      const PiqlQuery& fragment, const CancelToken& cancel = {}) const override;

  /// The table the pipeline actually sees: the raw table filtered through
  /// every privacy view registered for it (the Section 3 privacy-view
  /// language — rows and columns outside the views simply do not exist for
  /// the outside world). Returns the raw table when no view is registered.
  Result<relational::Table> EffectiveTable() const;

  /// Column sketches for mediated-schema generation, respecting policy: a
  /// denied column is not exported at all; a column disclosed only in
  /// coarsened form is exported with a hashed (non-public) name.
  Result<std::vector<match::ColumnSketch>> ExportSketches(
      const std::string& shared_key) const override;

  /// Direct (policy-bypassing) access for tests and for the no-privacy
  /// baseline integrator in the benchmarks.
  const relational::Table& raw_table_for_testing() const;

 private:
  std::string owner_;
  std::string table_name_;
  std::set<std::string> hidden_schema_columns_;
  relational::Catalog catalog_;
  policy::PolicyStore policies_;
  access::RbacDatabase rbac_;
  ClusterStore clusters_;
  PreservationModule preservation_;
  QueryTransformer transformer_;
  uint64_t perturb_seed_;
  uint64_t rsq_seed_;
  FaultInjection faults_;
  /// Per-call fault-decision counter (the only mutable state ExecuteFragment
  /// touches; atomic so concurrent callers draw distinct fault decisions).
  mutable std::atomic<uint64_t> fault_calls_{0};
};

/// The default clinical-domain synonym dictionary used by the examples and
/// tests (sex~gender, dob~birthdate tokens, etc.).
xml::LooseNameMatcher DefaultClinicalNameMatcher();

}  // namespace source
}  // namespace piye

#endif  // PIYE_SOURCE_REMOTE_SOURCE_H_
