#ifndef PIYE_ACCESS_RBAC_H_
#define PIYE_ACCESS_RBAC_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"

namespace piye {
namespace access {

/// Actions an access rule can grant.
enum class Action { kSelect, kInsert, kUpdate, kDelete };

/// Classic role-based access control with role inheritance: roles form a
/// DAG (a senior role inherits every permission of its juniors), users are
/// assigned roles, and permissions grant an action on a (table, column)
/// object with "*" wildcards.
///
/// The paper (Section 2, "Secured Databases") positions RBAC as necessary
/// but insufficient: the Query Rewriter consults this database *and* the
/// privacy policies — RBAC decides who may touch an object at all, policy
/// decides in what form.
class RbacDatabase {
 public:
  /// Declares a role; `parents` are the roles it inherits from.
  Status AddRole(const std::string& role, const std::vector<std::string>& parents = {});

  /// Assigns a role to a user. The wildcard user "*" assigns the role to
  /// every requester — one row of RBAC state regardless of population size.
  Status AssignRole(const std::string& user, const std::string& role);

  /// Grants `action` on table.column (wildcards allowed) to a role.
  Status Grant(const std::string& role, Action action, const std::string& table,
               const std::string& column);

  /// True if the user (via any assigned role, transitively through the role
  /// hierarchy) holds a grant matching the action and object.
  bool IsAuthorized(const std::string& user, Action action, const std::string& table,
                    const std::string& column) const;

  /// All roles effectively held by the user (assigned + inherited juniors).
  std::set<std::string> EffectiveRoles(const std::string& user) const;

 private:
  struct Permission {
    Action action;
    std::string table;
    std::string column;
  };

  void CollectJuniors(const std::string& role, std::set<std::string>* out) const;

  std::map<std::string, std::vector<std::string>> roles_;  // role -> parent roles
  std::map<std::string, std::set<std::string>> user_roles_;
  std::map<std::string, std::vector<Permission>> grants_;  // role -> permissions
};

}  // namespace access
}  // namespace piye

#endif  // PIYE_ACCESS_RBAC_H_
