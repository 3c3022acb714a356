#ifndef PIYE_SOURCE_FEDERATED_SOURCE_H_
#define PIYE_SOURCE_FEDERATED_SOURCE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "match/schema_matcher.h"
#include "policy/policy.h"
#include "relational/table.h"
#include "source/loss_computation.h"
#include "source/optimizer.h"
#include "source/piql.h"
#include "source/preservation.h"
#include "source/query_cluster.h"

namespace piye {
namespace source {

/// Cumulative transport-level counters of one federated source, surfaced
/// through `MediationEngine::Health()` so operators can tell a network
/// failure (connects climbing, frames stalling, corrupt frames) apart from a
/// healthy source refusing on privacy grounds. An in-process source reports
/// all zeros with `over_network == false`.
struct TransportStats {
  bool over_network = false;  ///< true ⇒ the counters below are live
  uint64_t connects = 0;      ///< successful connection establishments
  uint64_t reconnects = 0;    ///< connects after a connection was lost
  uint64_t connect_failures = 0;
  uint64_t frames_sent = 0;
  uint64_t frames_received = 0;
  uint64_t timeouts = 0;        ///< deadline expiries waiting on the wire
  uint64_t corrupt_frames = 0;  ///< CRC/framing violations (connection killed)
  uint64_t disconnects = 0;     ///< connections lost mid-use
};

/// The Metadata Tagger's annotation of one released result column: the
/// disclosure form and loss budget the source's privacy rewriter settled on,
/// which the mediator's privacy control re-verifies after integration.
struct ColumnTag {
  std::string name;  ///< the column's source-local name
  /// Disclosure form granted; empty for a column the rewriter did not rate
  /// (such a column takes no part in per-item loss accounting).
  std::optional<policy::DisclosureForm> form;
  double budget = 1.0;  ///< policy loss budget (1.0 = unconstrained)
};

/// The mediation engine's execution-facing view of one autonomous source —
/// the seam along which "federated" becomes literal. The engine talks to a
/// source exclusively through this interface: `ExecuteFragment` (XML query
/// in, table plus privacy tags out) and `ExportSketches` (privacy-respecting
/// schema summaries for mediated-schema generation). `RemoteSource`
/// implements it in-process (each source runs the full Figure 2(a) pipeline
/// in the mediator's address space); `net::NetSource` implements it over the
/// length-prefixed wire protocol against a source-server process, so the
/// same engine code paths — fan-out, retry, deadlines, breakers, quorum —
/// run unchanged against a real network.
///
/// Contract: implementations must be safe for concurrent `ExecuteFragment`
/// calls (the engine fans fragments out across a thread pool), must honour
/// the `CancelToken` cooperatively, and must report failures with faithful
/// status codes — `kUnavailable` for transient transport faults the engine
/// may retry, `kDeadlineExceeded` for expired deadlines, and
/// `kPrivacyViolation` for policy refusals (never retried, never blamed on
/// the transport).
class FederatedSource {
 public:
  virtual ~FederatedSource() = default;

  /// The organization this source answers for (policy key; unique per
  /// engine).
  virtual const std::string& owner() const = 0;

  /// Everything `ExecuteFragment` reports back. The released rows and their
  /// privacy tags — per column, aligned with `table` by position, plus the
  /// result-level `losses` and `loss_budget` — are what the mediator
  /// consumes; a network source reconstructs exactly those from the wire.
  /// In-process sources also fill the per-stage diagnostics (used by the
  /// Fig. 2 pipeline benchmark), which a network source leaves at their
  /// defaults.
  struct FragmentResult {
    relational::Table table;  ///< the released rows
    std::vector<ColumnTag> column_tags;
    LossEstimate losses;
    double loss_budget = 1.0;
    PrivacyOptimizer::Plan plan;
    BreachClass breach = BreachClass::kNone;
    std::vector<Technique> techniques;
    std::vector<std::string> denied_columns;
  };

  /// Executes one query fragment under the source's privacy machinery.
  virtual Result<FragmentResult> ExecuteFragment(
      const PiqlQuery& fragment, const CancelToken& cancel = {}) const = 0;

  /// Column sketches for mediated-schema generation, respecting policy.
  virtual Result<std::vector<match::ColumnSketch>> ExportSketches(
      const std::string& shared_key) const = 0;

  /// Transport-level counters (zeros for in-process sources).
  virtual TransportStats transport_stats() const { return TransportStats{}; }
};

}  // namespace source
}  // namespace piye

#endif  // PIYE_SOURCE_FEDERATED_SOURCE_H_
