#include "mediator/privacy_control.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/logging.h"
#include "common/macros.h"
#include "common/strings.h"
#include "source/loss_computation.h"

namespace piye {
namespace mediator {

double PrivacyControl::CombineLosses(const std::vector<double>& losses) {
  double keep = 1.0;
  for (double l : losses) keep *= 1.0 - l;
  return 1.0 - keep;
}

Result<double> PrivacyControl::CheckIntegratedResults(
    const std::vector<TaggedResult>& tagged_results) const {
  // Per-data-item accounting: for every *protected* column (some source set
  // a budget below 1 for it), combine the per-source losses and verify the
  // combination still respects the tightest budget. Columns no policy
  // constrains (budget 1.0 everywhere) carry no compounding risk.
  struct ColumnAccount {
    std::vector<double> losses;
    double tightest_budget = 1.0;
    std::string tightest_owner;
  };
  std::map<std::string, ColumnAccount> accounts;
  auto charge = [&accounts](const std::string& item, double loss, double budget,
                            const std::string& owner) {
    ColumnAccount& account = accounts[item];
    account.losses.push_back(loss);
    if (budget < account.tightest_budget) {
      account.tightest_budget = budget;
      account.tightest_owner = owner;
    }
  };
  for (const TaggedResult& r : tagged_results) {
    for (const source::ColumnTag& tag : r.column_tags) {
      if (!tag.form.has_value()) continue;
      charge(tag.name, source::LossComputation::FormWeight(*tag.form), tag.budget,
             r.owner);
    }
  }
  if (accounts.empty()) {
    // No column carries a form: treat each result's result-level
    // loss/budget as a single pseudo-item.
    for (const TaggedResult& r : tagged_results) {
      charge("_result", r.privacy_loss, r.loss_budget, r.owner);
    }
  }
  double overall = 0.0;
  for (const auto& [name, account] : accounts) {
    const double combined = CombineLosses(account.losses);
    if (account.tightest_budget < 1.0 && combined > account.tightest_budget) {
      return Status::PrivacyViolation(strings::Format(
          "combined privacy loss %.3f of item '%s' exceeds source '%s' budget "
          "%.3f — the per-source approval does not survive integration",
          combined, name.c_str(), account.tightest_owner.c_str(),
          account.tightest_budget));
    }
    if (account.tightest_budget < 1.0) overall = std::max(overall, combined);
  }
  if (overall > max_combined_loss_) {
    return Status::PrivacyViolation(strings::Format(
        "combined privacy loss %.3f exceeds the engine maximum %.3f", overall,
        max_combined_loss_));
  }
  return overall;
}

size_t PrivacyControl::RegisterSensitiveCell(const std::string& name, double lo,
                                             double hi, double true_value) {
  size_t id = 0;
  Journal journal;
  JournalEvent event;
  event.kind = JournalEvent::Kind::kCell;
  {
    MutexLock lock(mu_);
    id = auditor_.AddSensitiveValue(name, lo, hi, true_value);
    cells_.push_back({name, lo, hi, true_value});
    event.cell = cells_.back();
    journal = journal_;
  }
  if (journal) {
    const Status status = journal(event);
    if (!status.ok()) {
      // Registration discloses nothing, so there is no value to withhold;
      // the journal hook is responsible for failing the engine closed.
      Logger::Warn("mediator", "sensitive-cell journal failed: " + status.ToString());
    }
  }
  return id;
}

Result<double> PrivacyControl::Approve(uint16_t kind,
                                       const std::vector<size_t>& cells,
                                       double tol) {
  double value = 0.0;
  Journal journal;
  JournalEvent event;
  event.kind = JournalEvent::Kind::kDisclosure;
  {
    MutexLock lock(mu_);
    auto result = kind == DisclosureSpec::kMean
                      ? auditor_.DiscloseMean(cells, tol)
                      : auditor_.DiscloseStdDev(cells, tol);
    if (!result.ok()) return result;
    value = *result;
    DisclosureSpec spec;
    spec.kind = kind;
    spec.cells.assign(cells.begin(), cells.end());
    spec.tol = tol;
    disclosures_.push_back(spec);
    event.disclosure = std::move(spec);
    journal = journal_;
  }
  // Journaled outside mu_ (see set_journal). The auditor keeps the committed
  // — stricter — constraint even when journaling fails and the value is
  // withheld.
  if (journal) PIYE_RETURN_NOT_OK(journal(event));
  return value;
}

Result<double> PrivacyControl::ApproveMeanDisclosure(const std::vector<size_t>& cells,
                                                     double tol) {
  return Approve(DisclosureSpec::kMean, cells, tol);
}

Result<double> PrivacyControl::ApproveStdDevDisclosure(
    const std::vector<size_t>& cells, double tol) {
  return Approve(DisclosureSpec::kStdDev, cells, tol);
}

void PrivacyControl::set_journal(Journal journal) {
  MutexLock lock(mu_);
  journal_ = std::move(journal);
}

Status PrivacyControl::Replay(const std::vector<SensitiveCellSpec>& cells,
                              const std::vector<DisclosureSpec>& disclosures) {
  MutexLock lock(mu_);
  if (!cells_.empty() || !disclosures_.empty()) {
    return Status::InvalidArgument(
        "PrivacyControl::Replay requires pristine audit state");
  }
  for (const auto& cell : cells) {
    auditor_.AddSensitiveValue(cell.name, cell.lo, cell.hi, cell.true_value);
    cells_.push_back(cell);
  }
  for (const auto& d : disclosures) {
    std::vector<size_t> ids(d.cells.begin(), d.cells.end());
    auto result = d.kind == DisclosureSpec::kMean
                      ? auditor_.DiscloseMean(ids, d.tol)
                      : auditor_.DiscloseStdDev(ids, d.tol);
    if (!result.ok()) {
      // A disclosure that committed before the crash is deterministic, so
      // this should not happen; if it does, skipping it leaves the auditor
      // stricter than pre-crash — conservative, so recovery proceeds.
      Logger::Warn("mediator", "replayed disclosure refused (keeping stricter "
                               "state): " + result.status().ToString());
      continue;
    }
    disclosures_.push_back(d);
  }
  return Status::OK();
}

size_t PrivacyControl::disclosures_committed() const {
  MutexLock lock(mu_);
  return auditor_.disclosures_committed();
}

size_t PrivacyControl::disclosures_refused() const {
  MutexLock lock(mu_);
  return auditor_.disclosures_refused();
}

Result<std::vector<double>> PrivacyControl::CurrentLosses() const {
  MutexLock lock(mu_);
  return auditor_.CurrentLosses();
}

std::vector<PrivacyControl::SensitiveCellSpec> PrivacyControl::SnapshotCells() const {
  MutexLock lock(mu_);
  return cells_;
}

std::vector<PrivacyControl::DisclosureSpec> PrivacyControl::SnapshotDisclosures()
    const {
  MutexLock lock(mu_);
  return disclosures_;
}

}  // namespace mediator
}  // namespace piye
