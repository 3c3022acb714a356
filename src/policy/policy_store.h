#ifndef PIYE_POLICY_POLICY_STORE_H_
#define PIYE_POLICY_POLICY_STORE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "policy/policy.h"
#include "policy/preference.h"
#include "policy/privacy_view.h"

namespace piye {
namespace policy {

/// Registry of policies, views, and subject preferences for one deployment
/// site. Section 3 requires the store to exist both at each remote source
/// and inside the mediation engine (which re-verifies integrated results);
/// both instantiate this class.
class PolicyStore {
 public:
  /// Registers the policy of a source (keyed by the policy owner).
  Status AddPolicy(PrivacyPolicy policy);
  Result<const PrivacyPolicy*> GetPolicy(const std::string& owner) const;

  /// Registers a privacy view (keyed by source owner + view name).
  Status AddView(const std::string& owner, PrivacyView view);
  /// All views an owner defined over a given base table.
  std::vector<const PrivacyView*> ViewsForTable(const std::string& owner,
                                                const std::string& table) const;

  /// Registers a data subject's preferences.
  Status AddPreference(UserPreference pref);

  const PurposeLattice& lattice() const { return lattice_; }

  /// Identifies the store's contents: every mutation sets it to a value no
  /// store in the process has used before, so a cache keyed by it (a
  /// source's effective table) is stale exactly when it differs.
  uint64_t generation() const { return generation_; }

  /// Effective disclosure for (owner, table, column, purpose, recipient):
  /// the source policy verdict met with every registered subject preference
  /// that constrains the column.
  Disclosure EffectiveDisclosure(const std::string& owner, const std::string& table,
                                 const std::string& column, const std::string& purpose,
                                 const std::string& recipient) const;

 private:
  PurposeLattice lattice_ = PurposeLattice::Default();
  std::map<std::string, PrivacyPolicy> policies_;
  std::map<std::pair<std::string, std::string>, PrivacyView> views_;
  std::map<std::string, UserPreference> preferences_;
  uint64_t generation_ = 0;
};

}  // namespace policy
}  // namespace piye

#endif  // PIYE_POLICY_POLICY_STORE_H_
