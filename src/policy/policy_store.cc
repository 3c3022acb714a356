#include "policy/policy_store.h"

#include <atomic>

namespace piye {
namespace policy {

namespace {

uint64_t NextGeneration() {
  static std::atomic<uint64_t> last{0};
  return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

Status PolicyStore::AddPolicy(PrivacyPolicy policy) {
  const std::string owner = policy.owner();
  if (owner.empty()) {
    return Status::InvalidArgument("policy must have an owner");
  }
  auto [it, inserted] = policies_.emplace(owner, std::move(policy));
  if (!inserted) {
    return Status::AlreadyExists("policy for '" + owner + "' already registered");
  }
  generation_ = NextGeneration();
  return Status::OK();
}

Result<const PrivacyPolicy*> PolicyStore::GetPolicy(const std::string& owner) const {
  auto it = policies_.find(owner);
  if (it == policies_.end()) {
    return Status::NotFound("no policy for owner '" + owner + "'");
  }
  return &it->second;
}

Status PolicyStore::AddView(const std::string& owner, PrivacyView view) {
  auto key = std::make_pair(owner, view.name());
  auto [it, inserted] = views_.emplace(key, std::move(view));
  if (!inserted) {
    return Status::AlreadyExists("view '" + key.second + "' already registered for '" +
                                 owner + "'");
  }
  generation_ = NextGeneration();
  return Status::OK();
}

std::vector<const PrivacyView*> PolicyStore::ViewsForTable(
    const std::string& owner, const std::string& table) const {
  std::vector<const PrivacyView*> out;
  for (const auto& [key, view] : views_) {
    if (key.first == owner && view.table() == table) out.push_back(&view);
  }
  return out;
}

Status PolicyStore::AddPreference(UserPreference pref) {
  const std::string id = pref.subject_id();
  auto [it, inserted] = preferences_.emplace(id, std::move(pref));
  if (!inserted) {
    return Status::AlreadyExists("preference for '" + id + "' already registered");
  }
  generation_ = NextGeneration();
  return Status::OK();
}

Disclosure PolicyStore::EffectiveDisclosure(const std::string& owner,
                                            const std::string& table,
                                            const std::string& column,
                                            const std::string& purpose,
                                            const std::string& recipient) const {
  auto policy = GetPolicy(owner);
  Disclosure out;
  if (policy.ok()) {
    out = (*policy)->Evaluate(table, column, purpose, recipient, lattice_);
  } else {
    // Without a registered policy nothing is disclosed (default deny).
    out.form = DisclosureForm::kDenied;
  }
  if (!out.allowed()) return out;
  for (const auto& [_, pref] : preferences_) {
    // Only preferences that mention the column (or "*") constrain it.
    bool mentions = false;
    for (const auto& rule : pref.rules()) {
      if (rule.data_category == column || rule.data_category == "*") {
        mentions = true;
        break;
      }
    }
    if (!mentions) continue;
    out = Meet(out, pref.Evaluate(column, purpose, lattice_));
    if (!out.allowed()) return out;
  }
  return out;
}

}  // namespace policy
}  // namespace piye
