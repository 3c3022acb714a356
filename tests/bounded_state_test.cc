// Bounded-state durability suite: the background snapshotter racing live
// traffic (TSan target), the rotate-kill-point matrix (a kill at any step of
// the compact/rotate sequence fails closed and recovers to the exact
// pre-compaction budget decisions), cold-requester spill with fail-closed
// fault-in, and the durability fields of the health report.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/trace.h"
#include "core/scenario.h"
#include "mediator/admission.h"
#include "mediator/engine.h"
#include "persist/state_log.h"
#include "source/remote_source.h"

namespace piye {
namespace {

namespace fs = std::filesystem;
using mediator::MediationEngine;
using mediator::QueryOptions;
using persist::RotateKillPoint;

std::string TestDir(const std::string& name) {
  const fs::path p = fs::path(testing::TempDir()) / ("piye_bounded_" + name);
  fs::remove_all(p);
  return p.string();
}

std::vector<std::unique_ptr<source::RemoteSource>> BuildSources(size_t n) {
  std::vector<std::unique_ptr<source::RemoteSource>> sources;
  for (size_t i = 0; i < n; ++i) {
    auto tables = core::ClinicalScenario::MakePatientTables(20, 0.3, 100 + i);
    auto src = std::make_unique<source::RemoteSource>(
        "hospital" + std::to_string(i), "patients", std::move(tables.hospital),
        /*seed=*/i + 1);
    core::ClinicalScenario::ApplyPatientPolicies(src.get());
    // These tests drive many distinct requester names; the wildcard user
    // grants them all the analyst role in one RBAC row.
    EXPECT_TRUE(src->mutable_rbac()->AssignRole("*", "analyst").ok());
    sources.push_back(std::move(src));
  }
  return sources;
}

std::unique_ptr<MediationEngine> BuildEngine(
    const std::vector<std::unique_ptr<source::RemoteSource>>& sources,
    MediationEngine::Options options) {
  auto engine = std::make_unique<MediationEngine>(options);
  for (const auto& src : sources) {
    EXPECT_TRUE(engine->RegisterSource(src.get()).ok());
  }
  EXPECT_TRUE(engine->GenerateMediatedSchema("shared-key").ok());
  return engine;
}

MediationEngine::Options DurableOptions() {
  MediationEngine::Options options;
  options.max_combined_loss = 0.95;
  options.max_cumulative_loss = 1e9;
  options.worker_threads = 1;
  return options;
}

// Every release is a live execution: one history record (and no warehouse
// put) per query, so the WAL counts below are exact.
QueryOptions LiveOptions() { return {.allow_warehouse = false}; }

source::PiqlQuery MakeQuery(const std::string& body,
                            const std::string& requester = "analyst") {
  auto q = source::PiqlQuery::Parse("<query requester=\"" + requester +
                                    "\" purpose=\"research\" maxLoss=\"0.95\">" +
                                    body + "</query>");
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

// --- Snapshotter vs. live traffic (run under TSan in CI) ---

TEST(BoundedStateTest, SnapshotterRacesLiveTraffic) {
  const std::string dir = TestDir("race");
  auto sources = BuildSources(2);
  auto options = DurableOptions();
  options.worker_threads = 2;
  options.snapshot_every_records = 2;  // keep the snapshotter busy
  auto engine = BuildEngine(sources, options);
  ASSERT_TRUE(engine->Recover(dir).ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto query = MakeQuery(
            "<select>patient_id</select><select>diagnosis</select>",
            "analyst" + std::to_string(t) + "-" + std::to_string(i % 3));
        auto r = engine->Execute(query, LiveOptions());
        EXPECT_TRUE(r.ok()) << r.status().ToString();
      }
    });
  }
  // One more thread hammers the snapshot trigger and the health report
  // while traffic flows.
  workers.emplace_back([&] {
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(engine->TriggerSnapshot(/*wait=*/false).ok());
      auto health = engine->Health();
      EXPECT_TRUE(health.persistence_enabled);
    }
  });
  for (auto& w : workers) w.join();

  ASSERT_TRUE(engine->TriggerSnapshot(/*wait=*/true).ok());
  const auto floors_before = engine->history()->CumulativeLosses();
  const size_t size_before = engine->history()->size();
  engine.reset();

  auto revived = BuildEngine(sources, options);
  ASSERT_TRUE(revived->Recover(dir).ok());
  EXPECT_EQ(revived->history()->size(), size_before);
  // Budget floors are monotone across recovery: no requester's durable
  // cumulative loss may come back lower than what the live engine had
  // acknowledged.
  for (const auto& [requester, loss] : floors_before) {
    auto recovered = revived->history()->DurableCumulativeLoss(requester);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_GE(*recovered, loss) << requester;
  }
}

// --- The rotate-kill matrix: a crash at any step of the compact/rotate
// sequence trips the fail-closed latch and recovers to the exact
// pre-compaction refusal state. ---

class RotateKillMatrixTest : public testing::TestWithParam<RotateKillPoint> {};

TEST_P(RotateKillMatrixTest, KillMidCompactionFailsClosedAndRecoversExactly) {
  const RotateKillPoint kp = GetParam();
  const std::string dir =
      TestDir(std::string("rotate_") + persist::RotateKillPointName(kp));
  auto sources = BuildSources(2);
  auto options = DurableOptions();
  options.snapshot_every_records = 1000;  // rotations only when triggered
  const auto query = MakeQuery("<select>patient_id</select><select>diagnosis</select>");

  auto engine = BuildEngine(sources, options);
  ASSERT_TRUE(engine->Recover(dir).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine->Execute(query, LiveOptions()).ok());
  }
  const double durable_loss = engine->history()->CumulativeLoss("analyst");
  ASSERT_GT(durable_loss, 0.0);

  // The process "dies" at this step of the compaction sequence.
  ASSERT_TRUE(engine->ArmRotateKillPoint(kp).ok());
  const Status rotated = engine->TriggerSnapshot(/*wait=*/true);
  ASSERT_FALSE(rotated.ok()) << persist::RotateKillPointName(kp);

  // Satellite regression pin: a durability failure *during* compaction must
  // trip the same refuse-all-queries latch as an append failure.
  EXPECT_TRUE(engine->persistence_failed());
  auto refused = engine->Execute(query, LiveOptions());
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsUnavailable())
      << refused.status().ToString();
  engine.reset();

  // Recovery lands on whichever generation the kill left durable; either
  // way the budget floors are exactly the pre-compaction values.
  auto revived = BuildEngine(sources, options);
  ASSERT_TRUE(revived->Recover(dir).ok());
  EXPECT_DOUBLE_EQ(revived->history()->CumulativeLoss("analyst"),
                   durable_loss);
  EXPECT_EQ(revived->history()->size(), 3u);
  auto r = revived->Execute(query, LiveOptions());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(revived->history()->CumulativeLoss("analyst"), durable_loss);
}

INSTANTIATE_TEST_SUITE_P(
    AllRotateKillPoints, RotateKillMatrixTest,
    testing::Values(RotateKillPoint::kBeforeFloors,
                    RotateKillPoint::kAfterFloors,
                    RotateKillPoint::kAfterSnapshotTmp,
                    RotateKillPoint::kAfterSnapshotRename,
                    RotateKillPoint::kAfterNewWal),
    [](const testing::TestParamInfo<RotateKillPoint>& info) {
      std::string name = persist::RotateKillPointName(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// --- Cold-requester spill and fault-in ---

TEST(BoundedStateTest, SpilledRequesterIsStillRefusedOnReturn) {
  const std::string dir = TestDir("spill");
  auto sources = BuildSources(2);
  auto options = DurableOptions();
  options.hot_requesters = 1;  // spill aggressively
  options.snapshot_every_records = 1000;
  // Any released query exhausts the budget: the first release is admitted
  // (cumulative 0 < budget), every later one must be refused.
  options.max_cumulative_loss = 1e-9;

  auto engine = BuildEngine(sources, options);
  ASSERT_TRUE(engine->Recover(dir).ok());

  const auto cold = MakeQuery("<select>patient_id</select><select>diagnosis</select>", "cold-analyst");
  ASSERT_TRUE(engine->Execute(cold, LiveOptions()).ok());
  auto exhausted = engine->Execute(cold, LiveOptions());
  ASSERT_FALSE(exhausted.ok());
  EXPECT_TRUE(exhausted.status().IsPrivacyViolation());

  // Touch two warmer requesters, then rotate: the cold requester's floor is
  // folded into the floor index and its resident state evicted.
  ASSERT_TRUE(
      engine->Execute(MakeQuery("<select>patient_id</select><select>diagnosis</select>", "warm-a"),
                      LiveOptions())
          .ok());
  ASSERT_TRUE(
      engine->Execute(MakeQuery("<select>patient_id</select><select>diagnosis</select>", "warm-b"),
                      LiveOptions())
          .ok());
  ASSERT_TRUE(engine->TriggerSnapshot(/*wait=*/true).ok());
  EXPECT_LE(engine->history()->resident_requesters(), 1u);
  EXPECT_GE(engine->history()->spilled_total(), 2u);
  // Resident-only view proves the requester really is gone from memory...
  EXPECT_DOUBLE_EQ(engine->history()->CumulativeLoss("cold-analyst"), 0.0);

  // ...and the returning query faults the floor back in before the budget
  // decision: still refused, never default-allowed.
  auto returned = engine->Execute(cold, LiveOptions());
  ASSERT_FALSE(returned.ok());
  EXPECT_TRUE(returned.status().IsPrivacyViolation())
      << returned.status().ToString();
  EXPECT_GE(engine->history()->faulted_in_total(), 1u);
}

TEST(BoundedStateTest, FloorLoadFailureRefusesTheQuery) {
  const std::string dir = TestDir("fail_closed_fault_in");
  auto sources = BuildSources(2);
  auto engine = BuildEngine(sources, DurableOptions());
  ASSERT_TRUE(engine->Recover(dir).ok());

  // Simulate a sick floor index: every lookup for a non-resident requester
  // fails. The query must be refused, not admitted with a fresh budget.
  engine->history()->set_floor_provider(
      [](const std::string&) -> Result<std::optional<double>> {
        return Status::Internal("injected floor-index read failure");
      });
  auto refused = engine->Execute(
      MakeQuery("<select>patient_id</select><select>diagnosis</select>", "never-seen"), LiveOptions());
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsUnavailable()) << refused.status().ToString();
}

// --- Health report durability fields (satellite) ---

TEST(BoundedStateTest, HealthReportsDurabilityState) {
  const std::string dir = TestDir("health");
  auto sources = BuildSources(2);
  auto options = DurableOptions();
  options.snapshot_every_records = 1000;
  auto engine = BuildEngine(sources, options);
  ASSERT_TRUE(engine->Recover(dir).ok());
  const auto query = MakeQuery("<select>patient_id</select><select>diagnosis</select>");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine->Execute(query, LiveOptions()).ok());
  }
  auto health = engine->Health();
  EXPECT_TRUE(health.persistence_enabled);
  EXPECT_GT(health.wal_live_bytes, 0u);
  EXPECT_EQ(health.records_since_snapshot, 3u);
  EXPECT_GE(health.snapshots_total, 1u);  // the recovery fold-in
  EXPECT_NE(health.last_snapshot_age_ms, UINT64_MAX);
  EXPECT_EQ(health.resident_requesters, 1u);

  ASSERT_TRUE(engine->TriggerSnapshot(/*wait=*/true).ok());
  health = engine->Health();
  EXPECT_EQ(health.records_since_snapshot, 0u);
  EXPECT_GE(health.snapshots_total, 2u);
  EXPECT_GE(health.floor_index_requesters, 1u);

  engine.reset();
  auto revived = BuildEngine(sources, options);
  ASSERT_TRUE(revived->Recover(dir).ok());
  health = revived->Health();
  EXPECT_NE(health.last_recovery_replay_ms, UINT64_MAX);
}

// --- The rotation/Record dirty-bit race (regression) ---
//
// Found by the 200k-requester soak: a Record landing between a rotation's
// DirtyFloors capture and its mark-clean step must stay dirty. A blanket
// mark-all-clean wiped the bit, the spiller then evicted the entry as
// "clean", and the returning requester faulted in the stale (lower)
// durable floor — handing back budget and allowing a release the oracle
// refused.

TEST(BoundedStateTest, RecordDuringRotationSurvivesMarkCleanAndSpill) {
  mediator::QueryHistory history(
      mediator::QueryHistory::Options{/*max_resident_entries=*/64});
  mediator::HistoryEntry first;
  first.requester = "racer";
  first.aggregated_privacy_loss = 1.6;
  first.released = true;
  history.Record(first);

  // Rotation captures the dirty floors...
  const auto captured = history.DirtyFloors();
  ASSERT_EQ(captured.size(), 1u);
  ASSERT_DOUBLE_EQ(captured.at("racer"), 1.6);

  // ...and while it persists them, another release lands.
  mediator::HistoryEntry racing = first;
  racing.aggregated_privacy_loss = 0.8;
  history.Record(racing);

  // The rotation finishes and cleans exactly what it persisted.
  history.MarkClean(captured);

  // The raced-in loss is still dirty: the next rotation must persist 2.4.
  const auto still_dirty = history.DirtyFloors();
  ASSERT_EQ(still_dirty.size(), 1u);
  EXPECT_DOUBLE_EQ(still_dirty.at("racer"), 2.4);

  // And the spiller must evict a clean bystander over the dirty racer —
  // the racer's durable floor is stale.
  mediator::HistoryEntry bystander;
  bystander.requester = "bystander";
  bystander.aggregated_privacy_loss = 0.1;
  bystander.released = true;
  history.Record(bystander);
  history.MarkClean({{"bystander", 0.1}});  // bystander's floor: durable
  ASSERT_EQ(history.SpillColdest(/*max_resident=*/1), 1u);
  EXPECT_DOUBLE_EQ(history.CumulativeLoss("racer"), 2.4);
  EXPECT_DOUBLE_EQ(history.CumulativeLoss("bystander"), 0.0);  // spilled

  // Once the newer floor is durable, cleaning and spilling proceed.
  history.MarkClean(still_dirty);
  EXPECT_TRUE(history.DirtyFloors().empty());
}

// --- Recovery must not resurrect a spilled requester below its durable
// floor (regression) ---
//
// Found by the 200k soak: the entry ring keeps the last N entries regardless
// of which requester states are resident, so a snapshot can hold a *subset*
// of a spilled requester's entries. Recovery restored the requester from
// that partial ring sum, and the resident state then shadowed the (higher)
// durable floor on every later budget decision — quietly handing budget
// back. Recover must raise every restored requester to its indexed floor.

TEST(BoundedStateTest, RecoveryDoesNotResurrectSpilledRequesterBelowFloor) {
  const std::string dir = TestDir("ring_resurrection");
  auto sources = BuildSources(2);
  auto options = DurableOptions();
  options.snapshot_every_records = 1000;  // rotations only when triggered
  options.hot_requesters = 1;             // spill aggressively
  options.max_resident_history = 2;       // the ring forgets old entries fast

  auto engine = BuildEngine(sources, options);
  ASSERT_TRUE(engine->Recover(dir).ok());
  const auto victim_query = MakeQuery(
      "<select>patient_id</select><select>diagnosis</select>", "victim");
  ASSERT_TRUE(engine->Execute(victim_query, LiveOptions()).ok());
  ASSERT_TRUE(engine->Execute(victim_query, LiveOptions()).ok());
  const double full_loss = engine->history()->CumulativeLoss("victim");
  ASSERT_GT(full_loss, 0.0);
  // A warmer requester pushes the victim's first entry out of the ring and
  // outranks it in the spill order.
  ASSERT_TRUE(
      engine->Execute(MakeQuery("<select>patient_id</select><select>diagnosis</select>", "warm"),
                      LiveOptions())
          .ok());

  // Rotation 1 makes the victim's floor durable and spills it; rotation 2
  // writes a snapshot in which the victim's budget state is absent but one
  // of its ring entries (half its loss) is still present.
  ASSERT_TRUE(engine->TriggerSnapshot(/*wait=*/true).ok());
  EXPECT_DOUBLE_EQ(engine->history()->CumulativeLoss("victim"), 0.0);
  ASSERT_TRUE(engine->TriggerSnapshot(/*wait=*/true).ok());
  engine.reset();

  // Recover with spill disabled so the restored state stays resident — the
  // exact configuration in which a partial restore shadows the floor index
  // (a spilled-then-faulted-in requester would be healed by the fault-in;
  // a resident one never consults the index again).
  auto revived_options = options;
  revived_options.hot_requesters = 0;
  auto revived = BuildEngine(sources, revived_options);
  ASSERT_TRUE(revived->Recover(dir).ok());
  auto recovered = revived->history()->DurableCumulativeLoss("victim");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_DOUBLE_EQ(*recovered, full_loss);
}

// --- Admission state is bounded too (sharded buckets, queue sweep) ---

TEST(BoundedStateTest, AdmissionTracksABoundedRequesterSet) {
  mediator::AdmissionConfig config;
  // One token per nanosecond: a bucket is back at full burst by the next
  // clock tick, so the sweep sees every previous requester as evictable.
  config.tokens_per_second = 1e9;
  config.bucket_burst = 1e9;
  config.bucket_shards = 4;
  trace::MetricsRegistry metrics;
  mediator::AdmissionController admission(config, &metrics);
  CancelSource cancel;
  for (int i = 0; i < 4096; ++i) {
    auto permit = admission.Admit("requester" + std::to_string(i),
                                  cancel.token());
    ASSERT_TRUE(permit.ok());
  }
  // Every bucket but the untouched-since-last-sweep tail is sweepable; the
  // tracked set must stay far below the requester count.
  EXPECT_LT(admission.tracked_buckets(), 2048u);
  EXPECT_EQ(admission.tracked_requesters(), 0u);  // nobody ever queued
}

}  // namespace
}  // namespace piye
