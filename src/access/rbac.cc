#include "access/rbac.h"

namespace piye {
namespace access {

Status RbacDatabase::AddRole(const std::string& role,
                             const std::vector<std::string>& parents) {
  if (roles_.count(role) != 0) {
    return Status::AlreadyExists("role '" + role + "' already exists");
  }
  for (const auto& p : parents) {
    if (roles_.count(p) == 0) {
      return Status::NotFound("parent role '" + p + "' does not exist");
    }
  }
  roles_.emplace(role, parents);
  return Status::OK();
}

Status RbacDatabase::AssignRole(const std::string& user, const std::string& role) {
  if (roles_.count(role) == 0) {
    return Status::NotFound("role '" + role + "' does not exist");
  }
  user_roles_[user].insert(role);
  return Status::OK();
}

Status RbacDatabase::Grant(const std::string& role, Action action,
                           const std::string& table, const std::string& column) {
  if (roles_.count(role) == 0) {
    return Status::NotFound("role '" + role + "' does not exist");
  }
  grants_[role].push_back({action, table, column});
  return Status::OK();
}

void RbacDatabase::CollectJuniors(const std::string& role,
                                  std::set<std::string>* out) const {
  if (!out->insert(role).second) return;  // already visited
  auto it = roles_.find(role);
  if (it == roles_.end()) return;
  for (const auto& parent : it->second) CollectJuniors(parent, out);
}

std::set<std::string> RbacDatabase::EffectiveRoles(const std::string& user) const {
  std::set<std::string> out;
  auto it = user_roles_.find(user);
  if (it != user_roles_.end()) {
    for (const auto& role : it->second) CollectJuniors(role, &out);
  }
  // Roles assigned to the wildcard user "*" are held by every requester.
  // This keeps population-scale deployments O(1) in RBAC state instead of
  // one assignment row per requester; the privacy layer still gates each
  // requester's disclosures individually.
  if (user != "*") {
    auto any = user_roles_.find("*");
    if (any != user_roles_.end()) {
      for (const auto& role : any->second) CollectJuniors(role, &out);
    }
  }
  return out;
}

bool RbacDatabase::IsAuthorized(const std::string& user, Action action,
                                const std::string& table,
                                const std::string& column) const {
  for (const auto& role : EffectiveRoles(user)) {
    auto it = grants_.find(role);
    if (it == grants_.end()) continue;
    for (const Permission& p : it->second) {
      if (p.action != action) continue;
      if (p.table != "*" && p.table != table) continue;
      if (p.column != "*" && p.column != column) continue;
      return true;
    }
  }
  return false;
}

}  // namespace access
}  // namespace piye
