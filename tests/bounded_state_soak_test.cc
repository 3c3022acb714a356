// The bounded-state crash/soak matrix (the PR's acceptance gate): a large
// randomized requester population drives a durable engine through a seeded
// schedule of WAL and compaction kill-points, and every admit/refuse
// decision is compared byte-for-byte against an exact oracle of the
// unsharded, unspilled decision rule. Alongside decision identity the
// harness gates boundedness: resident state stays within the configured hot
// set, process RSS stays under a ceiling, and recovery replay time is a
// function of snapshot size, not uptime.
//
// Scaled by environment so CI runs a slice and the full 1M-requester matrix
// runs on demand:
//   PIYE_SOAK_REQUESTERS   population size        (default 20000)
//   PIYE_SOAK_OPS          operations             (default 2x requesters)
//   PIYE_SOAK_RSS_MB       peak-RSS ceiling in MB (default 1500, 0 = off)
//   PIYE_SOAK_RECOVERY_MS  recovery replay ceiling (default 5000)
//   PIYE_SOAK_SEED         LCG seed               (default 42)

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/scenario.h"
#include "mediator/engine.h"
#include "persist/state_log.h"
#include "persist/wal.h"
#include "source/remote_source.h"

namespace piye {
namespace {

namespace fs = std::filesystem;
using mediator::MediationEngine;
using mediator::QueryOptions;
using persist::KillPoint;
using persist::RotateKillPoint;

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<uint64_t>(std::strtoull(v, nullptr, 10));
}

/// Deterministic 64-bit LCG (MMIX constants): the op schedule, requester
/// picks, and kill schedule are all pure functions of the seed.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 17;
  }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t state_;
};

size_t CurrentRssKb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      size_t kb = 0;
      status >> kb;
      return kb;
    }
    status.ignore(256, '\n');
  }
  return 0;
}

struct SoakRig {
  std::vector<std::unique_ptr<source::RemoteSource>> sources;
  MediationEngine::Options options;
  std::string dir;

  SoakRig() = default;
  SoakRig(const SoakRig&) = delete;
  SoakRig& operator=(const SoakRig&) = delete;

  std::unique_ptr<MediationEngine> Boot() const {
    auto engine = std::make_unique<MediationEngine>(options);
    for (const auto& src : sources) {
      EXPECT_TRUE(engine->RegisterSource(src.get()).ok());
    }
    EXPECT_TRUE(engine->GenerateMediatedSchema("shared-key").ok());
    EXPECT_TRUE(engine->Recover(dir).ok());
    return engine;
  }
};

std::unique_ptr<source::RemoteSource> MakeSoakSource() {
  auto tables = core::ClinicalScenario::MakePatientTables(20, 0.3, 100);
  auto src = std::make_unique<source::RemoteSource>(
      "hospital0", "patients", std::move(tables.hospital), /*seed=*/1);
  core::ClinicalScenario::ApplyPatientPolicies(src.get());
  // One wildcard-user RBAC row authorizes the whole generated requester
  // population — per-name assignments at 1M requesters would distort the
  // soak's RSS gate with source-side map state.
  EXPECT_TRUE(src->mutable_rbac()->AssignRole("*", "analyst").ok());
  return src;
}

source::PiqlQuery SoakQuery(const std::string& requester) {
  auto q = source::PiqlQuery::Parse(
      "<query requester=\"" + requester +
      "\" purpose=\"research\" maxLoss=\"0.95\">"
      "<select>patient_id</select><select>diagnosis</select></query>");
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

TEST(BoundedStateSoakTest, CrashSoakMatrixMatchesOracleDecisions) {
  const uint64_t requesters = EnvOr("PIYE_SOAK_REQUESTERS", 20000);
  const uint64_t total_ops = EnvOr("PIYE_SOAK_OPS", 2 * requesters);
  const uint64_t rss_ceiling_mb = EnvOr("PIYE_SOAK_RSS_MB", 1500);
  const uint64_t recovery_ceiling_ms = EnvOr("PIYE_SOAK_RECOVERY_MS", 5000);
  const uint64_t seed = EnvOr("PIYE_SOAK_SEED", 42);

  SoakRig rig;
  // Per-process dir: a ctest-launched run and a manual scaled run must not
  // recover each other's generations.
  const std::string run_tag = std::to_string(static_cast<long>(::getpid()));
  rig.dir =
      (fs::path(testing::TempDir()) / ("piye_bounded_soak_" + run_tag)).string();
  fs::remove_all(rig.dir);
  // One tiny source: the soak exercises the trust anchor, not the
  // federation plane.
  rig.sources.push_back(MakeSoakSource());
  rig.options.max_combined_loss = 0.95;
  rig.options.worker_threads = 1;
  rig.options.snapshot_every_records =
      EnvOr("PIYE_SOAK_SNAPSHOT_EVERY", 512);
  rig.options.max_resident_history = 2048;
  rig.options.hot_requesters = 4096;
  rig.options.max_cumulative_loss = 1.0;  // placeholder, set from L below

  // Measure the (deterministic, policy-derived) per-release loss once, then
  // size the budget for exactly three releases per requester.
  double per_query_loss = 0.0;
  {
    SoakRig probe;
    probe.dir =
        (fs::path(testing::TempDir()) / ("piye_bounded_soak_probe_" + run_tag))
            .string();
    fs::remove_all(probe.dir);
    probe.options = rig.options;
    probe.sources.push_back(MakeSoakSource());
    auto engine = probe.Boot();
    auto probed = engine->Execute(SoakQuery("probe"), QueryOptions{.allow_warehouse = false});
    ASSERT_TRUE(probed.ok()) << probed.status().ToString();
    per_query_loss = engine->history()->CumulativeLoss("probe");
    ASSERT_GT(per_query_loss, 0.0);
    engine.reset();
    fs::remove_all(probe.dir);
  }
  rig.options.max_cumulative_loss = 2.5 * per_query_loss;

  // The kill schedule: every WAL kill-point and every rotate kill-point,
  // repeatedly, at seeded positions spread over the run.
  const std::vector<KillPoint> wal_kills = {
      KillPoint::kBeforeAppend, KillPoint::kMidRecord, KillPoint::kBeforeSync,
      KillPoint::kTornFinalBlock};
  const std::vector<RotateKillPoint> rotate_kills = {
      RotateKillPoint::kBeforeFloors, RotateKillPoint::kAfterFloors,
      RotateKillPoint::kAfterSnapshotTmp, RotateKillPoint::kAfterSnapshotRename,
      RotateKillPoint::kAfterNewWal};
  // Kill cadence is tunable: every kill costs a full recovery, and at
  // million-requester scale each recovery loads a multi-megabyte floor
  // index — the default one-kill-per-2000-ops is right for CI scale, while
  // the full-scale run caps the schedule to keep wall time sane.
  const uint64_t kill_count = std::max<uint64_t>(
      wal_kills.size() + rotate_kills.size(),
      EnvOr("PIYE_SOAK_KILLS", total_ops / 2000));
  Lcg schedule_rng(seed);
  // op index -> kill id (0..3 WAL, 4..8 rotate); later entries may overwrite
  // earlier ones at the same index, which is fine — still deterministic.
  std::unordered_map<uint64_t, int> kill_at;
  for (uint64_t k = 0; k < kill_count; ++k) {
    const uint64_t op = schedule_rng.Below(total_ops);
    kill_at[op] = static_cast<int>(
        k < wal_kills.size() + rotate_kills.size()
            ? k  // first pass covers every kill point at least once
            : schedule_rng.Below(wal_kills.size() + rotate_kills.size()));
  }

  auto engine = rig.Boot();

  // The oracle: the exact decision rule of the unsharded, unspilled engine.
  // A query is refused iff the requester's acknowledged cumulative loss has
  // reached the budget; loss is charged only on acknowledged release. The
  // per-requester sum is accumulated left-to-right exactly as the engine
  // accumulates it, so the comparison is bit-exact, not approximate.
  std::unordered_map<uint64_t, double> oracle_loss;
  oracle_loss.reserve(requesters);

  std::string engine_decisions, oracle_decisions;
  engine_decisions.reserve(total_ops);
  oracle_decisions.reserve(total_ops);

  Lcg op_rng(seed ^ 0x9e3779b97f4a7c15ULL);
  uint64_t recoveries = 0, kills_fired = 0;
  size_t peak_rss_kb = 0;

  for (uint64_t op = 0; op < total_ops; ++op) {
    if (auto it = kill_at.find(op); it != kill_at.end()) {
      const int id = it->second;
      if (id < static_cast<int>(wal_kills.size())) {
        ASSERT_TRUE(
            engine->ArmPersistKillPoint(wal_kills[id], /*after_appends=*/0)
                .ok());
      } else {
        ASSERT_TRUE(
            engine
                ->ArmRotateKillPoint(rotate_kills[id - wal_kills.size()])
                .ok());
        // Force the armed rotation now so the kill fires deterministically.
        EXPECT_FALSE(engine->TriggerSnapshot(/*wait=*/true).ok());
      }
      ++kills_fired;
    }

    const uint64_t requester_id = op_rng.Below(requesters);
    const std::string requester = "r" + std::to_string(requester_id);
    const auto query = SoakQuery(requester);

    // Oracle decision first (it does not depend on the engine).
    double& acknowledged = oracle_loss[requester_id];
    const bool oracle_refuses =
        acknowledged >= rig.options.max_cumulative_loss;
    oracle_decisions.push_back(oracle_refuses ? 'R' : 'A');

    // Engine decision, surviving any number of injected crashes: a crash
    // withholds the answer (charging nothing durable), so recover and retry
    // until the engine commits to admit or refuse.
    char decision = 0;
    for (int attempt = 0; attempt < 8 && decision == 0; ++attempt) {
      auto result = engine->Execute(query, QueryOptions{.allow_warehouse = false});
      if (result.ok()) {
        decision = 'A';
      } else if (result.status().IsPrivacyViolation()) {
        decision = 'R';
      } else if (result.status().IsUnavailable()) {
        // Injected death: the engine latched fail-closed. "Restart the
        // process" and replay from durable state.
        engine.reset();
        engine = rig.Boot();
        ++recoveries;
        ASSERT_LE(engine->Health().last_recovery_replay_ms,
                  recovery_ceiling_ms)
            << "recovery replay exceeded its ceiling at op " << op;
      } else {
        FAIL() << "unexpected status at op " << op << ": "
               << result.status().ToString();
      }
    }
    ASSERT_NE(decision, 0) << "no decision after repeated recoveries, op "
                           << op;
    engine_decisions.push_back(decision);
    if (decision == 'A') acknowledged += per_query_loss;

    ASSERT_EQ(engine_decisions.back(), oracle_decisions.back())
        << "decision divergence at op " << op << " requester " << requester
        << " (oracle cumulative " << acknowledged << ", budget "
        << rig.options.max_cumulative_loss << ")";

    if (op % 1024 == 0) {
      // Boundedness: the resident hot set never outgrows its configuration.
      EXPECT_LE(engine->history()->resident_entries(),
                rig.options.max_resident_history);
      peak_rss_kb = std::max(peak_rss_kb, CurrentRssKb());
    }
  }

  // Final drain: one clean rotation, one clean recovery, full-state checks.
  ASSERT_TRUE(engine->TriggerSnapshot(/*wait=*/true).ok());
  EXPECT_LE(engine->history()->resident_requesters(),
            rig.options.hot_requesters);
  engine.reset();
  engine = rig.Boot();
  ASSERT_LE(engine->Health().last_recovery_replay_ms, recovery_ceiling_ms);

  // Decision streams must be byte-identical (already asserted per-op; this
  // is the headline comparison).
  ASSERT_EQ(engine_decisions.size(), oracle_decisions.size());
  EXPECT_EQ(engine_decisions, oracle_decisions);

  // Every durable floor the engine recovered matches the oracle exactly.
  size_t floors_checked = 0;
  for (const auto& [requester_id, loss] : oracle_loss) {
    auto recovered = engine->history()->DurableCumulativeLoss(
        "r" + std::to_string(requester_id));
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ASSERT_DOUBLE_EQ(*recovered, loss) << "r" << requester_id;
    ++floors_checked;
    if (floors_checked >= 10000) break;  // bounded verification pass
  }

  peak_rss_kb = std::max(peak_rss_kb, CurrentRssKb());
  if (rss_ceiling_mb > 0) {
    EXPECT_LE(peak_rss_kb / 1024, rss_ceiling_mb)
        << "peak RSS exceeded the soak ceiling";
  }

  ::testing::Test::RecordProperty("requesters", static_cast<int>(requesters));
  ::testing::Test::RecordProperty("ops", static_cast<int>(total_ops));
  ::testing::Test::RecordProperty("kills_fired", static_cast<int>(kills_fired));
  ::testing::Test::RecordProperty("recoveries", static_cast<int>(recoveries));
  ::testing::Test::RecordProperty("peak_rss_mb",
                                  static_cast<int>(peak_rss_kb / 1024));
  std::printf(
      "soak: %llu requesters, %llu ops, %llu kills, %llu recoveries, "
      "peak RSS %zu MB, last recovery %llu ms\n",
      static_cast<unsigned long long>(requesters),
      static_cast<unsigned long long>(total_ops),
      static_cast<unsigned long long>(kills_fired),
      static_cast<unsigned long long>(recoveries),
      peak_rss_kb / 1024,
      static_cast<unsigned long long>(
          engine->Health().last_recovery_replay_ms));

  engine.reset();
  fs::remove_all(rig.dir);  // pid-tagged dirs would otherwise accumulate
}

}  // namespace
}  // namespace piye
