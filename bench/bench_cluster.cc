// Experiment abl-net-federation — what process separation costs and what the
// transport resilience buys back. Four configurations of the same federated
// query over the clinical scenario:
//
//   1. in-process        — engine calls RemoteSource directly (the ceiling)
//   2. wire/UDS          — engine -> NetSource -> Unix socket -> in-process
//                          SourceServer (protocol + socket + thread handoff)
//   3. multi-process     — engine -> 3 forked source_server processes
//                          (the real deployment shape; skipped when the
//                          server binary is not found)
//   4. wire + fault storm — configuration 2 with a fault proxy in front of
//                          each server running a seeded transport fault
//                          schedule, with retries (the recovery price)
//
// The query-cluster accuracy experiment that previously lived here moved to
// bench_query_cluster.cc.

#include <benchmark/benchmark.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "mediator/engine.h"
#include "net/client.h"
#include "net/net_source.h"
#include "net/server.h"
#include "reference/fault_transport.h"
#include "source/remote_source.h"
#include "xml/parser.h"

using namespace piye;

namespace {

constexpr const char* kOwners[] = {"hospital", "pharmacy", "lab"};

std::vector<std::unique_ptr<source::RemoteSource>> MakeSources() {
  std::vector<std::unique_ptr<source::RemoteSource>> sources;
  for (size_t i = 0; i < 3; ++i) {
    auto tables = core::ClinicalScenario::MakePatientTables(200, 0.3, 100 + i);
    relational::Table table = i == 0   ? std::move(tables.hospital)
                              : i == 1 ? std::move(tables.pharmacy)
                                       : std::move(tables.lab);
    auto src = std::make_unique<source::RemoteSource>(
        kOwners[i], "patients", std::move(table), /*seed=*/i + 1);
    core::ClinicalScenario::ApplyPatientPolicies(src.get());
    (void)src->mutable_rbac()->AssignRole("alice", "analyst");
    sources.push_back(std::move(src));
  }
  return sources;
}

source::PiqlQuery MakeQuery() {
  return *source::PiqlQuery::Parse(
      "<query requester=\"analyst\" purpose=\"research\" maxLoss=\"0.95\">"
      "<select>patient_id</select><select>sex</select></query>");
}

mediator::MediationEngine::Options EngineOptions() {
  mediator::MediationEngine::Options options;
  options.max_combined_loss = 0.95;
  options.max_cumulative_loss = 1e12;
  return options;
}

template <typename SourceVector>
std::unique_ptr<mediator::MediationEngine> BuildEngine(
    const SourceVector& sources) {
  auto engine = std::make_unique<mediator::MediationEngine>(EngineOptions());
  for (const auto& src : sources) (void)engine->RegisterSource(src.get());
  // Sketch export may ride a faulty wire; the engine retries its drops.
  const Status status = engine->GenerateMediatedSchema("shared-key");
  if (!status.ok()) {
    std::fprintf(stderr, "schema generation failed: %s\n",
                 status.ToString().c_str());
    std::abort();
  }
  return engine;
}

void RunLoop(benchmark::State& state, mediator::MediationEngine* engine,
             uint32_t max_retries) {
  const auto query = MakeQuery();
  mediator::QueryOptions qopts;
  qopts.allow_warehouse = false;
  qopts.requester = "alice";
  qopts.max_retries = max_retries;
  qopts.coalesce = false;
  size_t failures = 0;
  for (auto _ : state) {
    auto result = engine->Execute(query, qopts);
    if (!result.ok() || result->sources_answered.size() != 3) ++failures;
    benchmark::DoNotOptimize(result);
  }
  state.counters["degraded_rounds"] =
      static_cast<double>(failures);
}

// 1. The ceiling: no wire at all.
void BM_FederationInProcess(benchmark::State& state) {
  auto sources = MakeSources();
  auto engine = BuildEngine(sources);
  RunLoop(state, engine.get(), /*max_retries=*/0);
}
BENCHMARK(BM_FederationInProcess)->Unit(benchmark::kMillisecond);

/// In-process servers behind real Unix sockets, one per source. An enabled
/// `fault` puts a proxy running it (seed + i for source i) in front of each
/// server.
struct WireCluster {
  std::vector<std::unique_ptr<source::RemoteSource>> sources;
  std::vector<std::unique_ptr<net::SourceServer>> servers;
  std::vector<std::unique_ptr<net::faultref::FaultProxy>> proxies;
  std::vector<std::shared_ptr<net::NetClient>> clients;
  std::vector<std::unique_ptr<net::NetSource>> net_sources;

  explicit WireCluster(net::faultref::FaultPlan fault = {}) {
    sources = MakeSources();
    for (size_t i = 0; i < sources.size(); ++i) {
      net::ServerConfig server_config;
      server_config.listen_address =
          "unix:/tmp/piye_bench_" + std::to_string(::getpid()) + "_" +
          std::to_string(i) + ".sock";
      auto server = std::make_unique<net::SourceServer>(server_config);
      server->AddSource(sources[i].get());
      if (!server->Start().ok()) std::abort();

      net::ClientConfig client_config;
      client_config.address = server->bound_address();
      if (fault.enabled()) {
        net::faultref::FaultPlan plan = fault;
        plan.seed += i;
        auto proxy =
            std::make_unique<net::faultref::FaultProxy>(server->bound_address(), plan);
        if (!proxy->Start().ok()) std::abort();
        client_config.address = proxy->address();
        proxies.push_back(std::move(proxy));
      }
      auto client = std::make_shared<net::NetClient>(client_config);
      net_sources.push_back(
          std::make_unique<net::NetSource>(sources[i]->owner(), client));
      clients.push_back(std::move(client));
      servers.push_back(std::move(server));
    }
  }
  ~WireCluster() {
    for (auto& client : clients) client->Close();
    proxies.clear();
    for (auto& server : servers) server->Stop();
  }
};

// 2. Protocol + socket overhead, no process boundary.
void BM_FederationWireUds(benchmark::State& state) {
  WireCluster cluster;
  auto engine = BuildEngine(cluster.net_sources);
  RunLoop(state, engine.get(), /*max_retries=*/0);
}
BENCHMARK(BM_FederationWireUds)->Unit(benchmark::kMillisecond);

// 4. The same wire under a seeded fault storm, with the retry budget that
// rides it out. degraded_rounds counts iterations where a source was lost.
void BM_FederationWireFaultStorm(benchmark::State& state) {
  net::faultref::FaultPlan storm;
  storm.seed = 0xBE7C;
  storm.drop_write_rate = 0.05;
  storm.tear_rate = 0.04;
  storm.corrupt_rate = 0.04;
  storm.drop_read_rate = 0.04;
  WireCluster cluster(storm);
  auto engine = BuildEngine(cluster.net_sources);
  RunLoop(state, engine.get(), /*max_retries=*/6);
}
BENCHMARK(BM_FederationWireFaultStorm)->Unit(benchmark::kMillisecond);

// --- True multi-process configuration ---------------------------------------

std::string ServerBinary() {
  if (const char* env = std::getenv("PIYE_SOURCE_SERVER_BIN")) return env;
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

struct ProcessCluster {
  std::vector<pid_t> pids;
  /// Each server's records file. The constructor's early returns still end
  /// in the destructor, which deletes them.
  std::vector<std::string> files;
  std::vector<std::shared_ptr<net::NetClient>> clients;
  std::vector<std::unique_ptr<net::NetSource>> net_sources;
  bool ok = false;

  explicit ProcessCluster(const std::string& binary) {
    for (size_t i = 0; i < 3; ++i) {
      auto tables =
          core::ClinicalScenario::MakePatientTables(200, 0.3, 100 + i);
      const relational::Table& table = i == 0   ? tables.hospital
                                       : i == 1 ? tables.pharmacy
                                                : tables.lab;
      const std::string base = "/tmp/piye_bench_proc_" +
                               std::to_string(::getpid()) + "_" +
                               std::to_string(i);
      files.push_back(base + ".xml");
      {
        std::ofstream out(files.back(), std::ios::binary);
        out << RecordsXml(table);
      }
      int pipe_fds[2];
      if (pipe(pipe_fds) != 0) return;
      const pid_t pid = fork();
      if (pid < 0) return;
      if (pid == 0) {
        dup2(pipe_fds[1], STDOUT_FILENO);
        close(pipe_fds[0]);
        close(pipe_fds[1]);
        const std::string listen = "--listen=unix:" + base + ".sock";
        const std::string source = "--source=owner=" + std::string(kOwners[i]) +
                                   ",table=patients,file=" + base +
                                   ".xml,seed=" + std::to_string(i + 1);
        execl(binary.c_str(), binary.c_str(), listen.c_str(), source.c_str(),
              "--clinical-policies", static_cast<char*>(nullptr));
        _exit(127);
      }
      close(pipe_fds[1]);
      pids.push_back(pid);
      std::string line;
      char ch;
      while (line.find('\n') == std::string::npos &&
             read(pipe_fds[0], &ch, 1) == 1) {
        line.push_back(ch);
      }
      close(pipe_fds[0]);
      if (line.rfind("LISTENING ", 0) != 0) return;

      net::ClientConfig client_config;
      client_config.address = "unix:" + base + ".sock";
      auto client = std::make_shared<net::NetClient>(client_config);
      net_sources.push_back(
          std::make_unique<net::NetSource>(kOwners[i], client));
      clients.push_back(std::move(client));
    }
    ok = true;
  }
  ~ProcessCluster() {
    for (auto& client : clients) client->Close();
    for (pid_t pid : pids) {
      kill(pid, SIGTERM);
      int status = 0;
      waitpid(pid, &status, 0);
    }
    for (const std::string& file : files) std::remove(file.c_str());
  }
};

// 3. The real deployment shape: every source in its own process.
void BM_FederationMultiProcess(benchmark::State& state) {
  const std::string binary = ServerBinary();
  if (binary.empty()) {
    state.SkipWithError("source_server binary not found");
    return;
  }
  ProcessCluster cluster(binary);
  if (!cluster.ok) {
    state.SkipWithError("failed to spawn source_server processes");
    return;
  }
  auto engine = BuildEngine(cluster.net_sources);
  RunLoop(state, engine.get(), /*max_retries=*/0);
}
BENCHMARK(BM_FederationMultiProcess)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "Federation transport cost, 3 clinical sources x 200 patients\n"
      "(in-process ceiling vs wire/UDS vs separate processes vs fault "
      "storm):\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
