// Crash-safety and robustness suite for the mediation engine: the durable
// query-history/budget WAL with fail-closed recovery, the crash-injection
// matrix over every kill-point, the restart-reset attack, auditor
// crash-safety, per-source circuit breakers, warehouse observability
// counters, and the health/readiness report.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/private_iye.h"
#include "core/scenario.h"
#include "mediator/circuit_breaker.h"
#include "mediator/engine.h"
#include "mediator/persistence.h"
#include "persist/codec.h"
#include "persist/state_log.h"
#include "persist/wal.h"
#include "relational/table_codec.h"
#include "source/remote_source.h"

namespace piye {
namespace {

namespace fs = std::filesystem;
using mediator::CircuitBreaker;
using mediator::CircuitBreakerConfig;
using mediator::MediationEngine;
using mediator::QueryOptions;
using mediator::RecordType;
using persist::KillPoint;

std::string TestDir(const std::string& name) {
  const fs::path p = fs::path(testing::TempDir()) / ("piye_recovery_" + name);
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
  options.enable_warehouse = false;  // single WAL record per release
  options.worker_threads = 4;
  return options;
}

source::PiqlQuery MakeQuery(const std::string& body,
                            const std::string& requester = "analyst") {
  auto q = source::PiqlQuery::Parse("<query requester=\"" + requester +
                                    "\" purpose=\"research\" maxLoss=\"0.95\">" +
                                    body + "</query>");
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

// --- Durable execution and recovery ---

TEST(RecoveryTest, StateSurvivesRestart) {
  const std::string dir = TestDir("survives_restart");
  auto sources = BuildSources(3);
  const auto query =
      MakeQuery("<select>patient_id</select><select>diagnosis</select>");

  double loss_before = 0.0;
  size_t history_before = 0;
  {
    auto engine = BuildEngine(sources, DurableOptions());
    ASSERT_TRUE(engine->Recover(dir).ok());
    EXPECT_TRUE(engine->persistence_enabled());
    for (int i = 0; i < 3; ++i) {
      auto r = engine->Execute(query, QueryOptions{});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    loss_before = engine->history()->CumulativeLoss("analyst");
    history_before = engine->history()->size();
    EXPECT_GT(loss_before, 0.0);
  }  // "process death": the engine is destroyed, only the directory remains

  auto revived = BuildEngine(sources, DurableOptions());
  ASSERT_TRUE(revived->Recover(dir).ok());
  EXPECT_EQ(revived->history()->size(), history_before);
  EXPECT_DOUBLE_EQ(revived->history()->CumulativeLoss("analyst"), loss_before);
  // And the revived engine keeps serving (and accounting) normally.
  auto r = revived->Execute(query, QueryOptions{});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(revived->history()->CumulativeLoss("analyst"), loss_before);
}

TEST(RecoveryTest, RecoverTwiceOrOnUsedEngineIsRejected) {
  const std::string dir = TestDir("recover_twice");
  auto sources = BuildSources(2);
  auto engine = BuildEngine(sources, DurableOptions());
  ASSERT_TRUE(engine->Recover(dir).ok());
  EXPECT_FALSE(engine->Recover(dir).ok());

  auto volatile_engine = BuildEngine(sources, DurableOptions());
  auto r = volatile_engine->Execute(
      MakeQuery("<select>patient_id</select>"), QueryOptions{});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(volatile_engine->Recover(TestDir("recover_used")).ok());
}

TEST(RecoveryTest, WarehouseMaterializationsSurviveRestart) {
  const std::string dir = TestDir("warehouse_survives");
  auto sources = BuildSources(3);
  auto options = DurableOptions();
  options.enable_warehouse = true;
  const auto query = MakeQuery("<select>patient_id</select><select>sex</select>");
  {
    auto engine = BuildEngine(sources, options);
    ASSERT_TRUE(engine->Recover(dir).ok());
    auto r = engine->Execute(query, QueryOptions{});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->from_warehouse);
    EXPECT_EQ(engine->warehouse()->size(), 1u);
  }
  auto revived = BuildEngine(sources, options);
  ASSERT_TRUE(revived->Recover(dir).ok());
  EXPECT_EQ(revived->warehouse()->size(), 1u);
  auto r = revived->Execute(query, QueryOptions{});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->from_warehouse);
}

TEST(RecoveryTest, JournaledEvictionSurvivesRestart) {
  const std::string dir = TestDir("evict_survives");
  auto sources = BuildSources(2);
  auto options = DurableOptions();
  options.enable_warehouse = true;
  const auto query = MakeQuery("<select>patient_id</select>");
  {
    auto engine = BuildEngine(sources, options);
    ASSERT_TRUE(engine->Recover(dir).ok());
    ASSERT_TRUE(engine->Execute(query, QueryOptions{}).ok());
    EXPECT_EQ(engine->warehouse()->size(), 1u);
    engine->AdvanceEpoch();
    engine->AdvanceEpoch();
    ASSERT_TRUE(engine->EvictWarehouseOlderThan(engine->epoch()).ok());
    EXPECT_EQ(engine->warehouse()->size(), 0u);
  }
  auto revived = BuildEngine(sources, options);
  ASSERT_TRUE(revived->Recover(dir).ok());
  EXPECT_EQ(revived->warehouse()->size(), 0u);
  EXPECT_EQ(revived->epoch(), 2u);
}

TEST(RecoveryTest, ReplayedWarehousePutDoesNotRollBackNewerEntry) {
  // Recovery replays warehouse-put WAL records through the same
  // Warehouse::Put the live engine uses. A duplicated or re-applied segment
  // can present an *older* materialization after a newer one has already
  // been installed; the warehouse must keep the max-epoch entry.
  auto make_table = [](int64_t marker) {
    relational::Table t(relational::Schema{
        relational::Column{"x", relational::ColumnType::kInt64}});
    EXPECT_TRUE(t.AppendRow(relational::Row{relational::Value::Int(marker)}).ok());
    return t;
  };

  // Round-trip both records through the real recovery codec.
  const std::string fresh_payload =
      mediator::EncodeWarehousePutRecord("fp", /*epoch=*/6, make_table(6));
  const std::string stale_payload =
      mediator::EncodeWarehousePutRecord("fp", /*epoch=*/2, make_table(2));
  auto fresh = mediator::DecodeWarehousePutRecord(fresh_payload);
  auto stale = mediator::DecodeWarehousePutRecord(stale_payload);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(stale.ok());

  trace::MetricsRegistry metrics;
  mediator::Warehouse warehouse;
  warehouse.set_metrics(&metrics);

  // Adversarial replay order: newer record applied first, stale one after.
  warehouse.Put(fresh->fingerprint, fresh->table, fresh->epoch);
  warehouse.Put(stale->fingerprint, stale->table, stale->epoch);

  auto handle = warehouse.Get("fp", /*current_epoch=*/6, /*max_age=*/0);
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(handle->row(0)[0].AsInt(), 6);  // epoch-6 table, not rolled back
  EXPECT_EQ(warehouse.size(), 1u);
  EXPECT_EQ(metrics.counter("warehouse.stale_put_drops"), 1u);
  EXPECT_EQ(metrics.counter("warehouse.puts"), 1u);

  // Replaying the newer record again (same epoch) is idempotent-by-value:
  // it replaces with an identical materialization rather than dropping it.
  warehouse.Put(fresh->fingerprint, fresh->table, fresh->epoch);
  EXPECT_EQ(warehouse.size(), 1u);
  handle = warehouse.Get("fp", 6, 0);
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(handle->row(0)[0].AsInt(), 6);
}

TEST(RecoveryTest, SnapshotRotationPreservesStateAcrossRestart) {
  const std::string dir = TestDir("snapshot_rotation");
  auto sources = BuildSources(2);
  auto options = DurableOptions();
  options.snapshot_every_records = 2;  // rotate every other release
  const auto query = MakeQuery("<select>patient_id</select>");
  double loss_before = 0.0;
  {
    auto engine = BuildEngine(sources, options);
    ASSERT_TRUE(engine->Recover(dir).ok());
    for (int i = 0; i < 7; ++i) {
      ASSERT_TRUE(engine->Execute(query, QueryOptions{}).ok());
    }
    // Rotation is asynchronous now; force one deterministically so the
    // snapshot below is guaranteed to carry all seven entries.
    ASSERT_TRUE(engine->TriggerSnapshot(/*wait=*/true).ok());
    loss_before = engine->history()->CumulativeLoss("analyst");
    EXPECT_GE(engine->metrics()->counter("engine.snapshots"), 2u);
  }
  auto revived = BuildEngine(sources, options);
  ASSERT_TRUE(revived->Recover(dir).ok());
  EXPECT_EQ(revived->history()->size(), 7u);
  EXPECT_DOUBLE_EQ(revived->history()->CumulativeLoss("analyst"), loss_before);
}

// --- The crash matrix (the acceptance gate): at every kill-point, the
// answer is withheld, the engine fails closed, and recovery restores the
// requester's cumulative loss to its exact pre-crash durable value. ---

class CrashMatrixTest : public testing::TestWithParam<KillPoint> {};

TEST_P(CrashMatrixTest, BudgetIsIdenticalBeforeAndAfterCrash) {
  const KillPoint kp = GetParam();
  const std::string dir =
      TestDir(std::string("matrix_") + persist::KillPointName(kp));
  auto sources = BuildSources(3);
  const auto query =
      MakeQuery("<select>patient_id</select><select>diagnosis</select>");

  auto engine = BuildEngine(sources, DurableOptions());
  ASSERT_TRUE(engine->Recover(dir).ok());
  ASSERT_TRUE(engine->Execute(query, QueryOptions{}).ok());
  const double durable_loss = engine->history()->CumulativeLoss("analyst");
  ASSERT_GT(durable_loss, 0.0);

  // The process "dies" at the kill-point during the next release.
  ASSERT_TRUE(engine->ArmPersistKillPoint(kp).ok());
  auto crashed = engine->Execute(query, QueryOptions{});
  ASSERT_FALSE(crashed.ok()) << persist::KillPointName(kp)
                             << ": the un-journalable answer must be withheld";
  EXPECT_TRUE(crashed.status().IsUnavailable());
  EXPECT_TRUE(engine->persistence_failed());

  // Fail closed: the dying engine refuses everything from now on.
  auto refused = engine->Execute(query, QueryOptions{});
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsUnavailable());
  EXPECT_FALSE(engine->Health().ready);

  // A new process recovers. The withheld answer was never released, so the
  // requester's budget must come back at exactly the pre-crash durable
  // value — for every kill-point, including the torn final block.
  auto revived = BuildEngine(sources, DurableOptions());
  ASSERT_TRUE(revived->Recover(dir).ok()) << persist::KillPointName(kp);
  EXPECT_EQ(revived->history()->size(), 1u);
  EXPECT_DOUBLE_EQ(revived->history()->CumulativeLoss("analyst"), durable_loss)
      << persist::KillPointName(kp);
  // And the revived engine serves again.
  auto r = revived->Execute(query, QueryOptions{});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(AllKillPoints, CrashMatrixTest,
                         testing::Values(KillPoint::kBeforeAppend,
                                         KillPoint::kMidRecord,
                                         KillPoint::kBeforeSync,
                                         KillPoint::kTornFinalBlock));

// --- The restart-reset attack the tentpole exists to stop ---

TEST(RecoveryTest, RestartDoesNotResetTheSnoopersBudget) {
  const std::string dir = TestDir("reset_attack");
  auto sources = BuildSources(3);

  QueryOptions per_query;
  per_query.allow_warehouse = false;  // every ask must consume budget
  // The snooper is an *authorized* requester (the paper's threat model) —
  // here the "cdc" role — trying to stretch its budget via restarts.
  const auto query =
      MakeQuery("<select>patient_id</select><select>diagnosis</select>", "cdc");

  // Execution is deterministic, so one probe run tells us a single answer's
  // loss; size the budget so a couple of queries exhaust it.
  double one_query_loss = 0.0;
  {
    auto probe = BuildEngine(sources, DurableOptions());
    auto r = probe->Execute(query, per_query);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    one_query_loss = r->combined_privacy_loss;
    ASSERT_GT(one_query_loss, 0.0);
  }
  auto options = DurableOptions();
  options.max_cumulative_loss = 2.5 * one_query_loss;

  size_t served = 0;
  {
    auto engine = BuildEngine(sources, options);
    ASSERT_TRUE(engine->Recover(dir).ok());
    for (int i = 0; i < 100; ++i) {
      auto r = engine->Execute(query, per_query);
      if (r.ok()) {
        ++served;
        continue;
      }
      ASSERT_TRUE(r.status().IsPrivacyViolation()) << r.status().ToString();
      break;
    }
    ASSERT_GT(served, 0u) << "scenario must serve at least one query";
    ASSERT_LT(served, 100u) << "budget must eventually be exhausted";
  }  // the snooper kills the mediator, hoping for a fresh budget

  auto revived = BuildEngine(sources, options);
  ASSERT_TRUE(revived->Recover(dir).ok());
  auto r = revived->Execute(query, per_query);
  ASSERT_FALSE(r.ok()) << "restart must not reset the cumulative budget";
  EXPECT_TRUE(r.status().IsPrivacyViolation());

  // Control: without durability the same restart WOULD reset the budget —
  // the attack the WAL closes.
  auto amnesiac = BuildEngine(sources, options);
  EXPECT_TRUE(amnesiac->Execute(query, per_query).ok());
}

// --- Auditor crash-safety: the sequence auditor's verdict is identical
// before and after a crash. ---

TEST(RecoveryTest, AuditorRefusesTheSameDisclosureAfterRecovery) {
  const std::string dir = TestDir("auditor");
  auto sources = BuildSources(2);
  auto engine = BuildEngine(sources, DurableOptions());
  ASSERT_TRUE(engine->Recover(dir).ok());

  auto* control = engine->control();
  const size_t a = control->RegisterSensitiveCell("salary_a", 0, 100, 40);
  const size_t b = control->RegisterSensitiveCell("salary_b", 0, 100, 60);
  ASSERT_TRUE(control->ApproveMeanDisclosure({a, b}, 1.0).ok());
  // Disclosing cell a's mean alone would pin it to ±1 — refused.
  auto refused = control->ApproveMeanDisclosure({a}, 1.0);
  ASSERT_FALSE(refused.ok());
  ASSERT_TRUE(refused.status().IsPrivacyViolation());

  // Crash during the next journaled event.
  ASSERT_TRUE(engine->ArmPersistKillPoint(KillPoint::kBeforeSync).ok());
  engine->AdvanceEpoch();  // journaled -> fires the kill-point
  EXPECT_TRUE(engine->persistence_failed());

  auto revived = BuildEngine(sources, DurableOptions());
  ASSERT_TRUE(revived->Recover(dir).ok());
  // Same committed constraints, same verdict: the snooper cannot launder a
  // refused disclosure through a crash.
  auto again = revived->control()->ApproveMeanDisclosure({a}, 1.0);
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsPrivacyViolation());
  // The first-approved disclosure stays approved (it adds no new info).
  EXPECT_EQ(revived->control()->SnapshotDisclosures().size(), 1u);
  EXPECT_EQ(revived->control()->SnapshotCells().size(), 2u);
}

TEST(RecoveryTest, FailedDisclosureJournalWithholdsTheValue) {
  const std::string dir = TestDir("journal_withhold");
  auto sources = BuildSources(2);
  auto engine = BuildEngine(sources, DurableOptions());
  ASSERT_TRUE(engine->Recover(dir).ok());
  auto* control = engine->control();
  const size_t a = control->RegisterSensitiveCell("cell_a", 0, 100, 40);
  const size_t b = control->RegisterSensitiveCell("cell_b", 0, 100, 60);

  ASSERT_TRUE(engine->ArmPersistKillPoint(KillPoint::kBeforeSync).ok());
  auto r = control->ApproveMeanDisclosure({a, b}, 1.0);
  // The auditor approved, but the journal died: the value is withheld and
  // the engine fails closed.
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(engine->persistence_failed());
  EXPECT_FALSE(engine->Execute(MakeQuery("<select>patient_id</select>"),
                               QueryOptions{})
                   .ok());
}

// --- Engine-level corruption: a mangled WAL never crashes Recover and
// never hands budget back. ---

TEST(RecoveryTest, CorruptedWalTailRecoversConservatively) {
  const std::string dir = TestDir("corrupt_tail");
  auto sources = BuildSources(2);
  const auto query = MakeQuery("<select>patient_id</select>");
  double first_loss = 0.0;
  {
    auto engine = BuildEngine(sources, DurableOptions());
    ASSERT_TRUE(engine->Recover(dir).ok());
    ASSERT_TRUE(engine->Execute(query, QueryOptions{}).ok());
    first_loss = engine->history()->CumulativeLoss("analyst");
    ASSERT_TRUE(engine->Execute(query, QueryOptions{}).ok());
  }
  // Tear bytes off the end of the live WAL, as a dying disk would.
  fs::path wal_path;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("wal-", 0) == 0) {
      wal_path = entry.path();
    }
  }
  ASSERT_FALSE(wal_path.empty());
  const auto size = fs::file_size(wal_path);
  ASSERT_GT(size, 10u);
  fs::resize_file(wal_path, size - 7);

  auto revived = BuildEngine(sources, DurableOptions());
  ASSERT_TRUE(revived->Recover(dir).ok());
  // The torn second record is gone, the first survives; budget is at least
  // the last durable floor and the engine still serves.
  EXPECT_GE(revived->history()->CumulativeLoss("analyst"), first_loss);
  EXPECT_TRUE(revived->Execute(query, QueryOptions{}).ok());
}

// --- Fail-closed decoding and the record format ---

/// Appends raw records to the live WAL of a durable directory no engine
/// holds open.
void AppendRaw(const std::string& dir,
               const std::vector<std::pair<RecordType, std::string>>& records) {
  persist::StateLog::RecoveredState recovered;
  auto log = persist::StateLog::Open(dir, &recovered);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  for (const auto& [type, payload] : records) {
    ASSERT_TRUE((*log)->Append(static_cast<uint16_t>(type), payload).ok());
  }
  ASSERT_TRUE((*log)->Sync().ok());
}

/// A later entry for "analyst" whose post-entry loss is far above anything
/// the engine recorded — what recovery would lose if it stopped early.
std::string LaterEntry() {
  mediator::HistoryRecord record;
  record.entry.sequence_number = 1000;
  record.entry.requester = "analyst";
  record.entry.purpose = "research";
  record.entry.query_text = "later";
  record.entry.released = true;
  record.entry.aggregated_privacy_loss = 0.5;
  record.cumulative_after = 42.0;
  return mediator::EncodeHistoryRecord(record);
}

TEST(RecoveryTest, UndecodableRecordMidLogRefusesToStart) {
  // A record that passes its CRC but does not decode is a format mismatch,
  // not a torn write: recovery must refuse to start rather than truncate
  // the log there and lose the later record's budget.
  const std::string good = LaterEntry();
  std::string old_version = good;
  old_version[0] = 1;
  const std::vector<std::pair<std::string, std::pair<RecordType, std::string>>> bad = {
      {"old_version", {RecordType::kHistoryEntry, old_version}},
      {"truncated", {RecordType::kHistoryEntry, good.substr(0, good.size() / 2)}},
      {"unknown_type", {static_cast<RecordType>(99), good}},
  };
  auto sources = BuildSources(2);
  const auto query = MakeQuery("<select>patient_id</select><select>diagnosis</select>");
  for (const auto& [name, record] : bad) {
    SCOPED_TRACE(name);
    const std::string dir = TestDir("undecodable_" + name);
    {
      auto engine = BuildEngine(sources, DurableOptions());
      ASSERT_TRUE(engine->Recover(dir).ok());
      ASSERT_TRUE(engine->Execute(query, QueryOptions{}).ok());
    }
    AppendRaw(dir, {record, {RecordType::kHistoryEntry, LaterEntry()}});
    auto revived = BuildEngine(sources, DurableOptions());
    const Status status = revived->Recover(dir);
    EXPECT_TRUE(status.IsParseError()) << status.ToString();
    EXPECT_FALSE(revived->persistence_enabled());
    EXPECT_EQ(revived->history()->size(), 0u);
  }
}

TEST(RecoveryTest, PreviousFormatDirectoryIsRejected) {
  // Records as the XML-era mediator (record version 1) wrote them: the
  // history layout is unchanged but for its version byte, and a warehouse
  // put carries its table as XML text.
  std::string history_v1 = LaterEntry();
  history_v1[0] = 1;
  persist::Encoder put_v1;
  put_v1.PutU8(1);
  put_v1.PutString("fingerprint");
  put_v1.PutU64(0);
  put_v1.PutString(
      "<result name=\"result\"><schema><column name=\"a\" type=\"INT64\"/>"
      "</schema><rows><row><a>1</a></row></rows></result>");
  const std::string dir = TestDir("previous_format");
  AppendRaw(dir, {{RecordType::kHistoryEntry, history_v1},
                  {RecordType::kWarehousePut, put_v1.Take()}});
  auto sources = BuildSources(1);
  auto engine = BuildEngine(sources, DurableOptions());
  EXPECT_TRUE(engine->Recover(dir).IsParseError());
  EXPECT_FALSE(engine->persistence_enabled());

  // A snapshot of the previous layout version is refused the same way.
  const std::string snap_dir = TestDir("previous_snapshot");
  {
    persist::StateLog::RecoveredState recovered;
    auto log = persist::StateLog::Open(snap_dir, &recovered);
    ASSERT_TRUE(log.ok());
    mediator::DurableState state;
    state.cumulative_loss["analyst"] = 42.0;
    std::string blob = mediator::EncodeSnapshot(state);
    blob[0] = 2;
    ASSERT_TRUE((*log)->Rotate(blob).ok());
  }
  auto snap_engine = BuildEngine(sources, DurableOptions());
  EXPECT_TRUE(snap_engine->Recover(snap_dir).IsParseError());
}

TEST(RecoveryTest, ColumnNamesThatAreNotXmlNamesSurviveRestart) {
  // An answer column named "first visit" is journaled with its warehouse
  // put; a lossy query follows. Every record must replay: both history
  // entries, the cumulative loss and the warehouse entry.
  const std::string dir = TestDir("odd_column_names");
  relational::Table table(relational::Schema{
      {"patient_id", relational::ColumnType::kString},
      {"first visit", relational::ColumnType::kString},
      {"diagnosis", relational::ColumnType::kString}});
  for (int i = 0; i < 12; ++i) {
    const std::string day = std::to_string(i % 9 + 1);
    table.AppendRowUnchecked({relational::Value::Str("p" + std::to_string(i)),
                              relational::Value::Str("2001-02-0" + day),
                              relational::Value::Str(i % 2 == 0 ? "flu" : "cold")});
  }
  std::vector<std::unique_ptr<source::RemoteSource>> sources;
  sources.push_back(std::make_unique<source::RemoteSource>("clinic", "visits",
                                                           std::move(table), 1));
  core::ClinicalScenario::ApplyPatientPolicies(sources[0].get());
  MediationEngine::Options options = DurableOptions();
  options.enable_warehouse = true;

  double loss_before = 0.0;
  std::string first_answer;
  {
    auto engine = BuildEngine(sources, options);
    ASSERT_TRUE(engine->Recover(dir).ok());
    auto first = engine->Execute(
        MakeQuery("<select>patient_id</select><select>first visit</select>"),
        QueryOptions{});
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_EQ(first->table().schema().column(1).name, "first visit");
    first_answer = relational::EncodeTable(first->table());
    auto lossy = engine->Execute(MakeQuery("<select>diagnosis</select>"), QueryOptions{});
    ASSERT_TRUE(lossy.ok()) << lossy.status().ToString();
    loss_before = engine->history()->CumulativeLoss("analyst");
    ASSERT_GT(loss_before, 0.0);
    ASSERT_EQ(engine->history()->size(), 2u);
    ASSERT_EQ(engine->warehouse()->size(), 2u);
  }
  auto revived = BuildEngine(sources, options);
  ASSERT_TRUE(revived->Recover(dir).ok());
  EXPECT_EQ(revived->history()->size(), 2u);
  EXPECT_DOUBLE_EQ(revived->history()->CumulativeLoss("analyst"), loss_before);
  EXPECT_EQ(revived->warehouse()->size(), 2u);
  auto again = revived->Execute(
      MakeQuery("<select>patient_id</select><select>first visit</select>"),
      QueryOptions{});
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->from_warehouse);
  EXPECT_EQ(relational::EncodeTable(again->table()), first_answer);
}

// --- Circuit breakers ---

TEST(CircuitBreakerUnitTest, OpensAfterThresholdShedsThenProbes) {
  CircuitBreakerConfig config;
  config.failure_threshold = 3;
  config.open_cooldown_ms = 20;
  CircuitBreaker breaker(config, nullptr);
  auto now = std::chrono::steady_clock::now();

  for (int i = 0; i < 2; ++i) breaker.OnFailure(now);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.OnFailure(now);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opened_total(), 1u);

  // Shed during the cooldown.
  EXPECT_FALSE(breaker.Admit(now));
  EXPECT_FALSE(breaker.Admit(now + std::chrono::milliseconds(10)));
  EXPECT_EQ(breaker.shed_total(), 2u);

  // After the cooldown: exactly one half-open probe, everyone else shed.
  const auto later = now + std::chrono::milliseconds(25);
  EXPECT_TRUE(breaker.Admit(later));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.Admit(later));

  // Probe succeeds -> closed again; a fresh failure run starts from zero.
  breaker.OnSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Admit(later));
  breaker.OnFailure(later);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerUnitTest, FailedProbeReopensImmediately) {
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.open_cooldown_ms = 5;
  CircuitBreaker breaker(config, nullptr);
  auto now = std::chrono::steady_clock::now();
  breaker.OnFailure(now);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  const auto later = now + std::chrono::milliseconds(10);
  EXPECT_TRUE(breaker.Admit(later));  // the probe
  breaker.OnFailure(later);           // probe failed
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Admit(later + std::chrono::milliseconds(1)));
  EXPECT_EQ(breaker.opened_total(), 2u);
}

MediationEngine::Options BreakerOptions(uint32_t threshold,
                                        uint64_t cooldown_ms) {
  auto options = DurableOptions();
  options.enable_circuit_breakers = true;
  options.circuit_breaker.failure_threshold = threshold;
  options.circuit_breaker.open_cooldown_ms = cooldown_ms;
  return options;
}

TEST(EngineBreakerTest, PersistentlyFailingSourceIsShedNotDialed) {
  auto sources = BuildSources(4);
  source::RemoteSource::FaultInjection faults;
  faults.error_rate = 1.0;
  faults.seed = 11;
  sources[1]->set_fault_injection(faults);

  auto engine = BuildEngine(sources, BreakerOptions(/*threshold=*/2,
                                                    /*cooldown_ms=*/60'000));
  const auto query = MakeQuery("<select>patient_id</select><select>sex</select>");
  // Two queries burn real attempts against the sick source and open its
  // breaker; the third is shed without dialing.
  for (int i = 0; i < 2; ++i) {
    auto r = engine->Execute(query, QueryOptions{});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_NE(r->sources_skipped.find("hospital1"), r->sources_skipped.end());
  }
  const uint64_t attempts_before =
      engine->metrics()->counter("engine.fragment_attempts");
  auto r = engine->Execute(query, QueryOptions{});
  ASSERT_TRUE(r.ok());
  const auto skipped = r->sources_skipped.find("hospital1");
  ASSERT_NE(skipped, r->sources_skipped.end());
  EXPECT_NE(skipped->second.find("circuit breaker open"), std::string::npos);
  // The shed source consumed no fragment attempts: 3 healthy sources only.
  EXPECT_EQ(engine->metrics()->counter("engine.fragment_attempts"),
            attempts_before + 3);
  EXPECT_GE(engine->metrics()->counter("engine.breaker_opened"), 1u);
  EXPECT_GE(engine->metrics()->counter("engine.breaker_shed"), 1u);
}

TEST(EngineBreakerTest, HalfOpenProbeReadmitsARecoveredSource) {
  auto sources = BuildSources(3);
  source::RemoteSource::FaultInjection faults;
  faults.error_rate = 1.0;
  faults.seed = 5;
  sources[0]->set_fault_injection(faults);

  auto engine = BuildEngine(sources, BreakerOptions(/*threshold=*/2,
                                                    /*cooldown_ms=*/1));
  const auto query = MakeQuery("<select>patient_id</select><select>sex</select>");
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(engine->Execute(query, QueryOptions{}).ok());
  }
  // The source heals; after the cooldown the next query probes and readmits.
  sources[0]->set_fault_injection(source::RemoteSource::FaultInjection{});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  auto r = engine->Execute(query, QueryOptions{});
  ASSERT_TRUE(r.ok());
  EXPECT_NE(std::find(r->sources_answered.begin(), r->sources_answered.end(),
                      "hospital0"),
            r->sources_answered.end());
  EXPECT_GE(engine->metrics()->counter("engine.breaker_half_open_probes"), 1u);
  EXPECT_GE(engine->metrics()->counter("engine.breaker_closed"), 1u);
}

TEST(EngineBreakerTest, BypassDialsAnOpenBreakerSource) {
  auto sources = BuildSources(3);
  source::RemoteSource::FaultInjection faults;
  faults.error_rate = 1.0;
  faults.seed = 9;
  sources[0]->set_fault_injection(faults);

  auto engine = BuildEngine(sources, BreakerOptions(/*threshold=*/1,
                                                    /*cooldown_ms=*/60'000));
  const auto query = MakeQuery("<select>patient_id</select><select>sex</select>");
  ASSERT_TRUE(engine->Execute(query, QueryOptions{}).ok());  // opens breaker
  sources[0]->set_fault_injection(source::RemoteSource::FaultInjection{});

  // Shed without bypass (the breaker stays open long past this test)...
  auto shed = engine->Execute(query, QueryOptions{});
  ASSERT_TRUE(shed.ok());
  ASSERT_NE(shed->sources_skipped.find("hospital0"),
            shed->sources_skipped.end());
  // ...but a must-try query dials it and gets the answer.
  QueryOptions bypass;
  bypass.bypass_circuit_breaker = true;
  auto r = engine->Execute(query, bypass);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(std::find(r->sources_answered.begin(), r->sources_answered.end(),
                      "hospital0"),
            r->sources_answered.end());
}

TEST(EngineBreakerTest, AllSourcesShedReportsUnavailableNotPrivacy) {
  auto sources = BuildSources(2);
  source::RemoteSource::FaultInjection faults;
  faults.error_rate = 1.0;
  faults.seed = 3;
  sources[0]->set_fault_injection(faults);
  faults.seed = 4;
  sources[1]->set_fault_injection(faults);

  auto engine = BuildEngine(sources, BreakerOptions(/*threshold=*/1,
                                                    /*cooldown_ms=*/60'000));
  const auto query = MakeQuery("<select>patient_id</select>");
  auto first = engine->Execute(query, QueryOptions{});
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(first.status().IsUnavailable());
  // Both breakers now open: the query is shed everywhere, still a transport
  // verdict (retryable), never a privacy verdict.
  auto second = engine->Execute(query, QueryOptions{});
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsUnavailable());
}

// --- Health / readiness ---

TEST(HealthTest, ReportsSchemaBreakersAndPersistence) {
  const std::string dir = TestDir("health");
  auto sources = BuildSources(2);
  source::RemoteSource::FaultInjection faults;
  faults.error_rate = 1.0;
  faults.seed = 2;
  sources[1]->set_fault_injection(faults);

  auto options = BreakerOptions(/*threshold=*/1, /*cooldown_ms=*/60'000);
  auto engine = std::make_unique<MediationEngine>(options);
  for (const auto& src : sources) {
    ASSERT_TRUE(engine->RegisterSource(src.get()).ok());
  }
  auto report = engine->Health();
  EXPECT_FALSE(report.ready) << "no schema yet";
  EXPECT_FALSE(report.persistence_enabled);

  ASSERT_TRUE(engine->GenerateMediatedSchema("shared-key").ok());
  ASSERT_TRUE(engine->Recover(dir).ok());
  report = engine->Health();
  EXPECT_TRUE(report.ready);
  EXPECT_TRUE(report.persistence_enabled);
  EXPECT_TRUE(report.persistence_ok);
  EXPECT_EQ(report.sources_total, 2u);
  EXPECT_EQ(report.sources_admitting, 2u);

  // One source fails persistently -> its breaker opens -> readiness shows a
  // degraded (but still ready) engine.
  ASSERT_TRUE(
      engine->Execute(MakeQuery("<select>patient_id</select><select>sex</select>"),
                      QueryOptions{})
          .ok());
  report = engine->Health();
  EXPECT_TRUE(report.ready);
  EXPECT_EQ(report.sources_admitting, 1u);
  ASSERT_EQ(report.sources.size(), 2u);
  EXPECT_EQ(report.sources[0].breaker_state, "closed");
  EXPECT_EQ(report.sources[1].breaker_state, "open");
  EXPECT_GE(report.sources[1].opened_total, 1u);

  // A durability failure flips the engine not-ready.
  ASSERT_TRUE(engine->ArmPersistKillPoint(KillPoint::kBeforeSync).ok());
  engine->AdvanceEpoch();
  report = engine->Health();
  EXPECT_FALSE(report.ready);
  EXPECT_FALSE(report.persistence_ok);
}

// --- Warehouse observability counters (satellite) ---

TEST(WarehouseMetricsTest, CountersTrackPutsHitsMissesAndEvictions) {
  auto sources = BuildSources(2);
  auto options = DurableOptions();
  options.enable_warehouse = true;
  auto engine = BuildEngine(sources, options);
  const auto query = MakeQuery("<select>patient_id</select>");

  ASSERT_TRUE(engine->Execute(query, QueryOptions{}).ok());  // miss + put
  ASSERT_TRUE(engine->Execute(query, QueryOptions{}).ok());  // hit
  auto* metrics = engine->metrics();
  EXPECT_EQ(metrics->counter("warehouse.puts"), 1u);
  EXPECT_EQ(metrics->counter("warehouse.hits"), 1u);
  EXPECT_EQ(metrics->counter("warehouse.misses"), 1u);
  EXPECT_EQ(metrics->counter("engine.warehouse_hits"), 1u);

  engine->AdvanceEpoch();
  engine->AdvanceEpoch();
  ASSERT_TRUE(engine->EvictWarehouseOlderThan(engine->epoch()).ok());
  EXPECT_EQ(metrics->counter("warehouse.evictions"), 1u);
  EXPECT_EQ(metrics->counter("warehouse.evicted_entries"), 1u);
  // The registry agrees with the warehouse's own accessors — they are
  // updated under the same lock, so they can never diverge.
  EXPECT_EQ(engine->warehouse()->evicted_entries(),
            metrics->counter("warehouse.evicted_entries"));
  EXPECT_EQ(engine->warehouse()->hits(), metrics->counter("warehouse.hits"));
}

}  // namespace
}  // namespace piye
