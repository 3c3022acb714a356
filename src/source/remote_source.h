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
#include "common/sync.h"
#include "match/schema_matcher.h"
#include "policy/policy_store.h"
#include "relational/executor.h"
#include "relational/sorted_index.h"
#include "source/federated_source.h"
#include "source/loss_computation.h"
#include "source/piql.h"
#include "source/preservation.h"
#include "source/privacy_rewriter.h"
#include "source/query_cluster.h"
#include "source/query_transformer.h"
#include "xml/loose_name.h"

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
  const relational::Schema& schema() const { return raw_.schema(); }
  size_t num_rows() const { return raw_.num_rows(); }

  /// Mutable configuration (populated during deployment).
  policy::PolicyStore* mutable_policies() { return &policies_; }
  const policy::PolicyStore& policies() const { return policies_; }
  access::RbacDatabase* mutable_rbac() { return &rbac_; }
  void set_preservation_config(PreservationModule::Config config) {
    preservation_ = PreservationModule(config);
  }

  /// Marks a column whose *name* is itself sensitive: it still participates
  /// in mediated-schema generation (via instance sketches) but is exported
  /// under a salted hash tag, so the mediated schema stays partial
  /// (Section 5: "the schemas of some sources may not be available freely").
  void HideSchemaColumn(const std::string& column) {
    hidden_schema_columns_.insert(column);
  }

  /// Runs the full pipeline: privacy view → transform → rewrite (policy
  /// predicate pushed into the WHERE) → cluster-match → loss → scan →
  /// (query-set restriction) → execute → preserve → tag.
  ///
  /// The scan evaluates the WHERE once for both the query-set restriction
  /// and execution. When the WHERE's AND chain bounds one column against
  /// literals (relational::MatchIndexable), it reads a sorted index of that
  /// column instead of every row. A row-shaped fragment then evaluates the
  /// rest of the WHERE on the index's candidates only. An aggregate-shaped
  /// fragment tests every row against the index range in one pass, so its
  /// cost does not depend on how many rows it selects. Every other WHERE
  /// is evaluated on every row.
  ///
  /// Safe for concurrent callers: the pipeline stages are all const over
  /// the source's configuration (the effective table and its indexes are
  /// built once per policy generation under locks), and stochastic
  /// preservation draws from a per-call RNG stream derived from the source
  /// seed and the fragment's serialized content rather than shared mutable
  /// generator state. That derivation also means re-asking the *same*
  /// fragment reproduces the same perturbation — averaging repeated answers
  /// gains an attacker nothing (the same property Denning's random-sample
  /// queries rely on).
  ///
  /// `cancel` makes the call cooperative: the pipeline polls the token at
  /// its stage boundaries, so an expired query deadline or a caller
  /// cancellation returns promptly with the token's status
  /// (kDeadlineExceeded / kCancelled) instead of running the remaining
  /// stages for an answer nobody will read. The default token never fires.
  Result<FragmentResult> ExecuteFragment(
      const PiqlQuery& fragment, const CancelToken& cancel = {}) const override;

  /// Column sketches for mediated-schema generation, respecting policy: a
  /// denied column is not exported at all; a column disclosed only in
  /// coarsened form is exported with a hashed (non-public) name.
  Result<std::vector<match::ColumnSketch>> ExportSketches(
      const std::string& shared_key) const override;

  /// Test hook: running totals of the scan's choices, for tests and
  /// benches.
  struct ScanStats {
    uint64_t index_scans = 0;    ///< WHEREs answered through a sorted index
    uint64_t full_scans = 0;     ///< WHEREs evaluated on every row
    uint64_t rows_examined = 0;  ///< rows a WHERE or an index range was tested on
    uint64_t rows_gathered = 0;  ///< selected rows copied before execution
    uint64_t index_builds = 0;   ///< sorted indexes built, over all generations
  };
  ScanStats scan_stats() const;

 private:
  /// The effective table of one policy generation and its lazily built
  /// column indexes.
  struct Snapshot;

  /// The snapshot of the current policy generation, built on first use.
  Result<std::shared_ptr<const Snapshot>> CurrentSnapshot() const
      EXCLUDES(snapshot_mu_);
  /// The sorted index of `column`, built the first time it is asked for;
  /// null when the column has no sort order.
  const relational::SortedIndex* IndexFor(const Snapshot& snapshot,
                                          size_t column) const;
  /// The WHERE's selection over the snapshot's table (see ExecuteFragment).
  Result<relational::Selection> Scan(const Snapshot& snapshot,
                                     const relational::SelectStatement& stmt) const;

  std::string owner_;
  std::string table_name_;
  std::set<std::string> hidden_schema_columns_;
  relational::Table raw_;
  policy::PolicyStore policies_;
  access::RbacDatabase rbac_;
  ClusterStore clusters_;
  PreservationModule preservation_;
  QueryTransformer transformer_;
  uint64_t perturb_seed_;
  uint64_t rsq_seed_;
  mutable Mutex snapshot_mu_;
  mutable std::shared_ptr<const Snapshot> snapshot_ GUARDED_BY(snapshot_mu_);
  struct ScanCounters {
    std::atomic<uint64_t> index_scans{0};
    std::atomic<uint64_t> full_scans{0};
    std::atomic<uint64_t> rows_examined{0};
    std::atomic<uint64_t> rows_gathered{0};
    std::atomic<uint64_t> index_builds{0};
  };
  mutable ScanCounters counters_;
};

/// The default clinical-domain synonym dictionary used by the examples and
/// tests (sex~gender, dob~birthdate tokens, etc.).
xml::LooseNameMatcher DefaultClinicalNameMatcher();

}  // namespace source
}  // namespace piye

#endif  // PIYE_SOURCE_REMOTE_SOURCE_H_
