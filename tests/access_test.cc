#include <gtest/gtest.h>

#include "access/rbac.h"

namespace piye {
namespace access {
namespace {

class RbacTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.AddRole("staff").ok());
    ASSERT_TRUE(db_.AddRole("nurse", {"staff"}).ok());
    ASSERT_TRUE(db_.AddRole("doctor", {"nurse"}).ok());
    ASSERT_TRUE(db_.Grant("staff", Action::kSelect, "patients", "name").ok());
    ASSERT_TRUE(db_.Grant("nurse", Action::kSelect, "patients", "*").ok());
    ASSERT_TRUE(db_.Grant("doctor", Action::kUpdate, "patients", "diagnosis").ok());
    ASSERT_TRUE(db_.AssignRole("alice", "doctor").ok());
    ASSERT_TRUE(db_.AssignRole("bob", "staff").ok());
  }
  RbacDatabase db_;
};

TEST_F(RbacTest, DirectGrant) {
  EXPECT_TRUE(db_.IsAuthorized("bob", Action::kSelect, "patients", "name"));
}

TEST_F(RbacTest, DeniedWithoutGrant) {
  EXPECT_FALSE(db_.IsAuthorized("bob", Action::kSelect, "patients", "diagnosis"));
  EXPECT_FALSE(db_.IsAuthorized("bob", Action::kUpdate, "patients", "name"));
  EXPECT_FALSE(db_.IsAuthorized("carol", Action::kSelect, "patients", "name"));
}

TEST_F(RbacTest, InheritanceIsTransitive) {
  // alice (doctor) inherits nurse and staff grants.
  EXPECT_TRUE(db_.IsAuthorized("alice", Action::kSelect, "patients", "name"));
  EXPECT_TRUE(db_.IsAuthorized("alice", Action::kSelect, "patients", "diagnosis"));
  EXPECT_TRUE(db_.IsAuthorized("alice", Action::kUpdate, "patients", "diagnosis"));
}

TEST_F(RbacTest, WildcardGrants) {
  ASSERT_TRUE(db_.AddRole("admin").ok());
  ASSERT_TRUE(db_.Grant("admin", Action::kDelete, "*", "*").ok());
  ASSERT_TRUE(db_.AssignRole("root", "admin").ok());
  EXPECT_TRUE(db_.IsAuthorized("root", Action::kDelete, "anything", "at_all"));
}

TEST_F(RbacTest, EffectiveRoles) {
  const auto roles = db_.EffectiveRoles("alice");
  EXPECT_EQ(roles.size(), 3u);
  EXPECT_TRUE(roles.count("staff"));
  EXPECT_TRUE(db_.EffectiveRoles("stranger").empty());
}

TEST_F(RbacTest, WildcardUserAssignsRoleToEveryone) {
  // Assigning a role to the user "*" makes every requester — including names
  // never mentioned before — hold it, without a per-user assignment row.
  ASSERT_TRUE(db_.AssignRole("*", "staff").ok());
  EXPECT_TRUE(db_.IsAuthorized("carol", Action::kSelect, "patients", "name"));
  EXPECT_TRUE(db_.IsAuthorized("requester-999999", Action::kSelect, "patients", "name"));
  // The wildcard only adds the assigned role; it does not widen the grant.
  EXPECT_FALSE(db_.IsAuthorized("carol", Action::kSelect, "patients", "diagnosis"));
  // Explicit assignments still compose on top of the wildcard.
  EXPECT_TRUE(db_.IsAuthorized("alice", Action::kUpdate, "patients", "diagnosis"));
  EXPECT_TRUE(db_.EffectiveRoles("carol").count("staff"));
}

TEST_F(RbacTest, InvalidConfigurations) {
  EXPECT_FALSE(db_.AddRole("staff").ok());                       // duplicate
  EXPECT_FALSE(db_.AddRole("x", {"missing-parent"}).ok());       // bad parent
  EXPECT_FALSE(db_.AssignRole("u", "missing-role").ok());        // bad role
  EXPECT_FALSE(db_.Grant("missing-role", Action::kSelect, "t", "c").ok());
}

}  // namespace
}  // namespace access
}  // namespace piye
