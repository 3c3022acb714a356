#ifndef PIYE_MEDIATOR_PRIVACY_CONTROL_H_
#define PIYE_MEDIATOR_PRIVACY_CONTROL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sync.h"
#include "inference/sequence_auditor.h"
#include "source/federated_source.h"

namespace piye {
namespace mediator {

/// The Privacy Control of Figure 2(b). It re-verifies what the sources
/// individually approved, because "the computed value of privacy loss in a
/// source may not hold after the results are integrated with other sources":
///
///  1. *Metadata combination*: per-source tagged losses l_i combine as
///     1 - Π(1 - l_i) — integrating independent partial disclosures about
///     the same entities compounds. The combined loss must stay within
///     every participating source's own budget.
///  2. *Inference audit*: for releases of aggregates over registered
///     sensitive cells, a SequenceAuditor simulates the snooping adversary
///     of Figure 1 across the whole history and refuses any release that
///     would narrow some cell's interval beyond the threshold — this is the
///     defense the fig1-defense benchmark exercises.
///
/// The inference-audit state (the sequence auditor's committed disclosures)
/// is internally locked, so concurrent `MediationEngine::Execute` callers
/// can share one control. `CheckIntegratedResults` is pure.
///
/// The audit state is part of the mediator's trust anchor: when the engine
/// runs durably, every registered cell and committed disclosure is journaled
/// through the `Journal` hook before the disclosed value is released, and
/// `Replay` rebuilds the identical constraint system after a crash — so the
/// auditor refuses the same follow-up disclosure it would have refused had
/// the process never died.
class PrivacyControl {
 public:
  /// A registered sensitive cell, as journaled and snapshotted.
  struct SensitiveCellSpec {
    std::string name;
    double lo = 0.0;
    double hi = 0.0;
    double true_value = 0.0;
  };

  /// A committed aggregate disclosure, as journaled and snapshotted.
  struct DisclosureSpec {
    enum Kind : uint16_t { kMean = 1, kStdDev = 2 };
    uint16_t kind = kMean;
    std::vector<uint64_t> cells;
    double tol = 0.0;
  };

  /// One journaled audit event: exactly one of `cell` / `disclosure` is
  /// meaningful, selected by `kind`.
  struct JournalEvent {
    enum class Kind { kCell, kDisclosure } kind = Kind::kCell;
    SensitiveCellSpec cell;
    DisclosureSpec disclosure;
  };
  using Journal = std::function<Status(const JournalEvent&)>;

  PrivacyControl(double max_combined_loss, double max_interval_loss)
      : max_combined_loss_(max_combined_loss), auditor_(max_interval_loss) {}

  /// Combined loss of tagged per-source results: 1 - prod(1 - loss_i).
  static double CombineLosses(const std::vector<double>& losses);

  /// One source's tagged answer: per-column tags, plus the result-level
  /// loss and budget that stand in when no column carries a form.
  struct TaggedResult {
    std::string owner;
    std::vector<source::ColumnTag> column_tags;
    double privacy_loss = 0.0;
    double loss_budget = 1.0;
  };

  /// Checks the tagged results of one integrated answer: each rated column
  /// adds loss FormWeight(form) to its source-local name, whose combined
  /// loss must stay within the tightest budget any source set for it and
  /// within the engine-wide maximum (kPrivacyViolation otherwise). Returns
  /// the combined loss.
  Result<double> CheckIntegratedResults(
      const std::vector<TaggedResult>& tagged_results) const;

  // --- Inference-audit interface (delegates to the sequence auditor) ---

  /// Registers a sensitive cell the engine must protect across queries.
  size_t RegisterSensitiveCell(const std::string& name, double lo, double hi,
                               double true_value);

  /// Fail-closed ordering: the disclosure is committed to the auditor and
  /// journaled before the value is returned. A journal failure surfaces as
  /// the call's error — the caller must then withhold the value, while the
  /// in-memory auditor keeps the (stricter) committed constraint.
  Result<double> ApproveMeanDisclosure(const std::vector<size_t>& cells, double tol);
  Result<double> ApproveStdDevDisclosure(const std::vector<size_t>& cells, double tol);

  /// Installs the durability hook. The hook is invoked *outside* the
  /// control lock (after the event committed in memory), so an engine
  /// snapshotting this state under its own persistence lock cannot deadlock
  /// with a journaling approval; a snapshot may therefore include an event
  /// whose WAL record is still in flight — a superset of the durable log,
  /// which recovery tolerates.
  void set_journal(Journal journal);

  /// Rebuilds the audit state from journaled/snapshotted events (recovery
  /// path; never re-journals). A replayed disclosure that the auditor now
  /// refuses is logged and skipped — the surviving state is then strictly
  /// more conservative than the pre-crash one.
  Status Replay(const std::vector<SensitiveCellSpec>& cells,
                const std::vector<DisclosureSpec>& disclosures);

  /// Committed audit state for snapshotting.
  std::vector<SensitiveCellSpec> SnapshotCells() const;
  std::vector<DisclosureSpec> SnapshotDisclosures() const;

  /// Locked views of the auditor's committed state. (An earlier `auditor()`
  /// accessor handed out an unlocked reference the annotation pass flagged:
  /// reading disclosure counts while a concurrent Approve* mutated the
  /// constraint system was a data race.)
  size_t disclosures_committed() const EXCLUDES(mu_);
  size_t disclosures_refused() const EXCLUDES(mu_);
  Result<std::vector<double>> CurrentLosses() const EXCLUDES(mu_);
  double max_combined_loss() const { return max_combined_loss_; }

 private:
  /// Commits one disclosure under mu_, then journals it outside the lock.
  Result<double> Approve(uint16_t kind, const std::vector<size_t>& cells,
                         double tol) EXCLUDES(mu_);

  double max_combined_loss_;
  mutable Mutex mu_;
  inference::SequenceAuditor auditor_ GUARDED_BY(mu_);
  /// Copied out under mu_ and invoked outside it (ABBA-freedom vs the
  /// engine's persistence lock — see set_journal).
  Journal journal_ GUARDED_BY(mu_);
  std::vector<SensitiveCellSpec> cells_ GUARDED_BY(mu_);
  std::vector<DisclosureSpec> disclosures_ GUARDED_BY(mu_);
};

}  // namespace mediator
}  // namespace piye

#endif  // PIYE_MEDIATOR_PRIVACY_CONTROL_H_
