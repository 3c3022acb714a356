// True multi-process federation: these tests fork/exec real source_server
// processes (one per clinical organization), point a mediation engine at
// them through NetSources over Unix domain sockets, and check the paper's
// federation story end to end across address spaces — byte-identical
// answers versus the in-process path, graceful degradation when a server is
// SIGKILLed mid-traffic, zero budget charged for failed queries, and
// circuit breakers that reopen once a killed server is restarted.
//
// The server binary is located through PIYE_SOURCE_SERVER_BIN (set by
// ctest) with a /proc/self/exe-relative fallback; the tests skip if it is
// missing (e.g. a test binary copied out of its build tree).

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.h"
#include "mediator/engine.h"
#include "net/client.h"
#include "net/net_source.h"
#include "relational/table_codec.h"
#include "source/remote_source.h"
#include "xml/parser.h"

namespace piye {
namespace {

std::string TableBytes(const relational::Table& t) {
  return relational::EncodeTable(t);
}

std::string ServerBinary() {
  if (const char* env = std::getenv("PIYE_SOURCE_SERVER_BIN")) return env;
  // Fallback: tests build into <build>/tests, the server into <build>/tools.
  char exe[4096];
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) return "";
  exe[n] = '\0';
  std::string path(exe);
  const size_t slash = path.rfind('/');
  if (slash == std::string::npos) return "";
  path = path.substr(0, slash) + "/../tools/source_server";
  return ::access(path.c_str(), X_OK) == 0 ? path : "";
}

/// Serializes a table as record-shaped XML (<patients><patient>...</patient>
/// ...</patients>) — the ingestion format of TableFromXmlRecords. NULLs are
/// omitted fields. Both the servers and the in-process baseline ingest this
/// same text, so schema/type inference agrees on the two sides and any
/// answer difference is the transport's fault.
std::string RecordsXml(const relational::Table& table) {
  auto root = xml::XmlNode::Element("patients");
  for (size_t r = 0; r < table.num_rows(); ++r) {
    xml::XmlNode* record = root->AddElement("patient");
    for (size_t c = 0; c < table.schema().num_columns(); ++c) {
      const relational::Value v = table.Cell(r, c);
      if (v.is_null()) continue;
      record->AddElementWithText(table.schema().column(c).name,
                                 v.ToDisplayString());
    }
  }
  return xml::Serialize(*root, /*indent=*/-1);
}

/// One spawned source_server child. Started with its stdout on a pipe; the
/// harness waits for the "LISTENING <addr>" readiness line.
struct ServerProc {
  pid_t pid = -1;
  int out_fd = -1;
  std::string address;

  bool running() const { return pid > 0; }

  void Reap() {
    if (pid > 0) {
      int status = 0;
      waitpid(pid, &status, 0);
      pid = -1;
    }
    if (out_fd >= 0) {
      close(out_fd);
      out_fd = -1;
    }
  }
  void Kill() {
    if (pid > 0) kill(pid, SIGKILL);
    Reap();
  }
  void Terminate() {
    if (pid > 0) kill(pid, SIGTERM);
    Reap();
  }
};

ServerProc SpawnServer(const std::vector<std::string>& args) {
  ServerProc proc;
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) return proc;

  const pid_t pid = fork();
  if (pid < 0) {
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    return proc;
  }
  if (pid == 0) {
    dup2(pipe_fds[1], STDOUT_FILENO);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    std::vector<char*> argv;
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(pipe_fds[1]);
  proc.pid = pid;
  proc.out_fd = pipe_fds[0];

  // Wait for the readiness line (bounded; a child that dies instead of
  // listening closes the pipe and we fail fast).
  std::string line;
  char ch;
  while (line.find('\n') == std::string::npos) {
    const ssize_t n = read(proc.out_fd, &ch, 1);
    if (n <= 0) break;
    line.push_back(ch);
  }
  const std::string prefix = "LISTENING ";
  if (line.rfind(prefix, 0) == 0) {
    proc.address = line.substr(prefix.size());
    while (!proc.address.empty() &&
           (proc.address.back() == '\n' || proc.address.back() == '\r')) {
      proc.address.pop_back();
    }
  } else {
    proc.Kill();
  }
  return proc;
}

constexpr const char* kOwners[] = {"hospital", "pharmacy", "lab"};

class NetClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    binary_ = ServerBinary();
    if (binary_.empty()) {
      GTEST_SKIP() << "source_server binary not found "
                      "(set PIYE_SOURCE_SERVER_BIN)";
    }
    // One record-XML file per organization, from the shared clinical
    // scenario (same parameters as the in-process chaos suite).
    for (size_t i = 0; i < 3; ++i) {
      auto tables = core::ClinicalScenario::MakePatientTables(20, 0.3, 100 + i);
      const relational::Table& table = i == 0   ? tables.hospital
                                       : i == 1 ? tables.pharmacy
                                                : tables.lab;
      records_xml_[i] = RecordsXml(table);
      data_files_[i] = TempPath(std::string(kOwners[i]) + ".xml");
      std::ofstream out(data_files_[i], std::ios::binary);
      out << records_xml_[i];
      ASSERT_TRUE(out.good());
      socket_paths_[i] = TempPath(std::string(kOwners[i]) + ".sock");
    }
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(StartServer(i)) << "server " << kOwners[i]
                                  << " failed to start";
    }
  }

  void TearDown() override {
    for (auto& client : clients_) {
      if (client) client->Close();
    }
    for (auto& server : servers_) server.Terminate();
  }

  std::string TempPath(const std::string& leaf) const {
    return testing::TempDir() + "piye_cluster_" + std::to_string(::getpid()) +
           "_" + leaf;
  }

  bool StartServer(size_t i) {
    servers_[i] = SpawnServer(
        {binary_, "--listen=unix:" + socket_paths_[i],
         "--source=owner=" + std::string(kOwners[i]) +
             ",table=patients,file=" + data_files_[i] +
             ",seed=" + std::to_string(i + 1),
         "--clinical-policies"});
    return servers_[i].running() && !servers_[i].address.empty();
  }

  /// In-process baseline sources, built from the very same record XML and
  /// seeds the servers ingest.
  std::vector<std::unique_ptr<source::RemoteSource>> BaselineSources() {
    std::vector<std::unique_ptr<source::RemoteSource>> sources;
    for (size_t i = 0; i < 3; ++i) {
      auto src = source::RemoteSource::FromXmlRecords(kOwners[i], "patients",
                                                      records_xml_[i], i + 1);
      EXPECT_TRUE(src.ok()) << src.status().ToString();
      core::ClinicalScenario::ApplyPatientPolicies(src->get());
      for (const char* requester : {"alice", "bob"}) {
        EXPECT_TRUE(
            (*src)->mutable_rbac()->AssignRole(requester, "analyst").ok());
      }
      sources.push_back(std::move(*src));
    }
    return sources;
  }

  std::vector<std::unique_ptr<net::NetSource>> WireSources(
      net::FaultPlan fault = {}) {
    std::vector<std::unique_ptr<net::NetSource>> sources;
    for (size_t i = 0; i < 3; ++i) {
      net::ClientConfig config;
      config.address = servers_[i].address;
      config.fault = fault;
      if (fault.enabled()) config.fault.seed += i;
      auto client = std::make_shared<net::NetClient>(config);
      sources.push_back(std::make_unique<net::NetSource>(kOwners[i], client));
      clients_.push_back(std::move(client));
    }
    return sources;
  }

  static mediator::MediationEngine::Options EngineOptions() {
    mediator::MediationEngine::Options options;
    options.max_combined_loss = 0.95;
    options.max_cumulative_loss = 1e9;
    options.enable_warehouse = false;
    return options;
  }

  template <typename SourceVector>
  static std::unique_ptr<mediator::MediationEngine> BuildEngine(
      const SourceVector& sources,
      mediator::MediationEngine::Options options = EngineOptions()) {
    auto engine = std::make_unique<mediator::MediationEngine>(options);
    for (const auto& src : sources) {
      EXPECT_TRUE(engine->RegisterSource(src.get()).ok());
    }
    EXPECT_TRUE(engine->GenerateMediatedSchema("shared-key").ok());
    return engine;
  }

  static source::PiqlQuery MakeQuery() {
    auto q = source::PiqlQuery::Parse(
        "<query requester=\"analyst\" purpose=\"research\" maxLoss=\"0.95\">"
        "<select>patient_id</select><select>sex</select></query>");
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *q;
  }

  std::string binary_;
  std::string records_xml_[3];
  std::string data_files_[3];
  std::string socket_paths_[3];
  ServerProc servers_[3];
  std::vector<std::shared_ptr<net::NetClient>> clients_;
};

TEST_F(NetClusterTest, AnswerIsByteIdenticalAcrossProcessBoundaries) {
  auto wire_sources = WireSources();
  auto baseline_sources = BaselineSources();
  auto wire_engine = BuildEngine(wire_sources);
  auto local_engine = BuildEngine(baseline_sources);

  mediator::QueryOptions qopts;
  qopts.requester = "alice";
  const auto query = MakeQuery();
  auto federated = wire_engine->Execute(query, qopts);
  auto in_process = local_engine->Execute(query, qopts);
  ASSERT_TRUE(federated.ok()) << federated.status().ToString();
  ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
  EXPECT_EQ(federated->sources_answered.size(), 3u);
  EXPECT_TRUE(federated->sources_skipped.empty());
  EXPECT_EQ(TableBytes(federated->table()), TableBytes(in_process->table()));
  EXPECT_DOUBLE_EQ(federated->combined_privacy_loss,
                   in_process->combined_privacy_loss);

  // Repeatability across separate federated executions too.
  auto again = wire_engine->Execute(query, qopts);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(TableBytes(again->table()), TableBytes(federated->table()));
}

TEST_F(NetClusterTest, SeededFaultStormConvergesToTheSameBytes) {
  net::FaultPlan storm;
  storm.seed = 0xC1A05;
  storm.drop_write_rate = 0.05;
  storm.tear_rate = 0.04;
  storm.corrupt_rate = 0.04;
  storm.drop_read_rate = 0.04;
  auto wire_sources = WireSources(storm);
  auto baseline_sources = BaselineSources();
  // Sketch export rides the same faulty wire, so schema generation itself
  // may need a retry or two — but must succeed without re-registration.
  auto wire_engine =
      std::make_unique<mediator::MediationEngine>(EngineOptions());
  for (const auto& src : wire_sources) {
    ASSERT_TRUE(wire_engine->RegisterSource(src.get()).ok());
  }
  Status schema_status = Status::OK();
  for (int attempt = 0; attempt < 10; ++attempt) {
    schema_status = wire_engine->GenerateMediatedSchema("shared-key");
    if (schema_status.ok()) break;
  }
  ASSERT_TRUE(schema_status.ok()) << schema_status.ToString();

  mediator::QueryOptions qopts;
  qopts.requester = "alice";
  qopts.max_retries = 6;
  qopts.coalesce = false;
  const auto query = MakeQuery();
  auto baseline = BuildEngine(baseline_sources)->Execute(query, qopts);
  ASSERT_TRUE(baseline.ok());
  const std::string expected = TableBytes(baseline->table());

  size_t full_answers = 0;
  for (int round = 0; round < 8; ++round) {
    auto result = wire_engine->Execute(query, qopts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (result->sources_answered.size() == 3) {
      ++full_answers;
      EXPECT_EQ(TableBytes(result->table()), expected);
    }
  }
  EXPECT_GT(full_answers, 0u) << "storm drowned every round";
}

TEST_F(NetClusterTest, SigkillMidTrafficDegradesToQuorumAndChargesNoGhostBudget) {
  auto wire_sources = WireSources();
  auto engine = BuildEngine(wire_sources);
  mediator::QueryOptions qopts;
  qopts.requester = "alice";
  qopts.min_sources = 2;
  qopts.max_retries = 2;
  qopts.coalesce = false;
  const auto query = MakeQuery();

  // Traffic in flight while the lab server dies: every concurrent query must
  // either succeed on the surviving quorum or fail cleanly — never crash or
  // hang the engine.
  std::vector<std::thread> traffic;
  for (int t = 0; t < 3; ++t) {
    traffic.emplace_back([&] {
      for (int round = 0; round < 6; ++round) {
        auto result = engine->Execute(query, qopts);
        if (result.ok()) {
          EXPECT_GE(result->sources_answered.size(), 2u);
        } else {
          EXPECT_TRUE(result.status().IsUnavailable() ||
                      result.status().IsDeadlineExceeded())
              << result.status().ToString();
        }
      }
    });
  }
  servers_[2].Kill();
  for (auto& t : traffic) t.join();

  // Settled state: the dead server is skipped with a kUnavailable reason
  // naming the transport failure, and the answer still integrates.
  auto degraded = engine->Execute(query, qopts);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->sources_answered.size(), 2u);
  ASSERT_EQ(degraded->sources_skipped.count("lab"), 1u);
  EXPECT_NE(degraded->sources_skipped.at("lab").find("Unavailable"),
            std::string::npos)
      << degraded->sources_skipped.at("lab");

  // A query whose quorum cannot be met fails kUnavailable and charges zero
  // budget — degradation must not bill the requester for refused answers.
  const double before = engine->history()->CumulativeLoss("alice");
  mediator::QueryOptions strict = qopts;
  strict.min_sources = 3;
  auto refused = engine->Execute(query, strict);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsUnavailable()) << refused.status().ToString();
  EXPECT_DOUBLE_EQ(engine->history()->CumulativeLoss("alice"), before);
}

TEST_F(NetClusterTest, BreakerOpensOnDeadServerAndReclosesAfterRestart) {
  auto wire_sources = WireSources();
  auto baseline_sources = BaselineSources();
  auto options = EngineOptions();
  options.enable_circuit_breakers = true;
  options.circuit_breaker.failure_threshold = 2;
  options.circuit_breaker.open_cooldown_ms = 100;
  auto engine = BuildEngine(wire_sources, options);

  mediator::QueryOptions qopts;
  qopts.requester = "alice";
  qopts.min_sources = 2;
  qopts.max_retries = 0;
  qopts.coalesce = false;
  const auto query = MakeQuery();
  const std::string expected =
      TableBytes(BuildEngine(baseline_sources)->Execute(query, qopts)->table());

  servers_[1].Kill();
  // Each failed fan-out counts one breaker failure for pharmacy; after the
  // threshold the breaker opens and sheds it without dialing.
  auto BreakerState = [&](const std::string& owner) {
    for (const auto& src : engine->Health().sources) {
      if (src.owner == owner) return src.breaker_state;
    }
    return std::string("missing");
  };
  for (int round = 0; round < 6 && BreakerState("pharmacy") != "open";
       ++round) {
    auto result = engine->Execute(query, qopts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_EQ(BreakerState("pharmacy"), "open");

  // Restart the server on the same socket path; after the cooldown the next
  // query lets a half-open probe through, the probe succeeds, the breaker
  // recloses, and the full-fleet answer is byte-identical again.
  ASSERT_TRUE(StartServer(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  bool recovered = false;
  for (int round = 0; round < 10 && !recovered; ++round) {
    auto result = engine->Execute(query, qopts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (result->sources_answered.size() == 3) {
      recovered = true;
      EXPECT_EQ(TableBytes(result->table()), expected);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  EXPECT_TRUE(recovered) << "breaker never readmitted the restarted server";
  EXPECT_EQ(BreakerState("pharmacy"), "closed");
}

TEST_F(NetClusterTest, GracefulShutdownDrainsInFlightWork) {
  auto wire_sources = WireSources();
  auto engine = BuildEngine(wire_sources);
  mediator::QueryOptions qopts;
  qopts.requester = "alice";
  ASSERT_TRUE(engine->Execute(MakeQuery(), qopts).ok());

  // SIGTERM triggers the server's graceful drain path; it must actually
  // exit (Terminate reaps with a blocking waitpid — a hang here times the
  // whole test out, which is the failure signal).
  servers_[0].Terminate();
  EXPECT_FALSE(servers_[0].running());
}

}  // namespace
}  // namespace piye
