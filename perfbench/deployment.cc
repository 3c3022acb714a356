// Builds the serving stack of a workload and times each set-up step.
#include <algorithm>
#include <iterator>
#include <thread>

#include "common/executor.h"
#include "core/scenario.h"
#include "perfbench.h"

namespace perfbench {
namespace {

constexpr const char* kOwners[] = {"hospital", "pharmacy", "lab"};

double MsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e6; }

}  // namespace

size_t ServerWorkers() {
  // One pool per source server; together they never exceed the cores.
  return std::max<size_t>(1, std::thread::hardware_concurrency() / 3);
}

size_t EngineWorkers(const WorkloadSpec& spec) {
  // Over the wire a fan-out thread mostly waits on its socket, so the pool
  // is sized to every fragment the clients can have in flight.
  if (spec.wire) return spec.clients * std::size(kOwners);
  return piye::Executor::DefaultThreadCount();
}

Result<std::unique_ptr<Deployment>> Deployment::Create(
    const WorkloadSpec& spec, uint64_t seed, double max_cumulative_loss,
    const std::string& socket_dir, const std::string& persist_dir,
    Tracer* tracer, bool in_process) {
  std::unique_ptr<Deployment> d(new Deployment());
  const int64_t start = NowNs();

  int64_t step = NowNs();
  auto tables = piye::core::ClinicalScenario::MakePatientTables(spec.patients, 0.3, seed);
  piye::relational::Table data[] = {std::move(tables.hospital),
                                    std::move(tables.pharmacy), std::move(tables.lab)};
  for (size_t i = 0; i < std::size(kOwners); ++i) {
    auto src = std::make_unique<piye::source::RemoteSource>(
        kOwners[i], "patients", std::move(data[i]), seed * 3 + i + 1);
    piye::core::ClinicalScenario::ApplyPatientPolicies(src.get());
    // Every generated requester holds the analyst role.
    PIYE_RETURN_NOT_OK(src->mutable_rbac()->AssignRole("*", "analyst"));
    d->sources_.push_back(std::move(src));
  }
  d->split_.sources_ms = MsSince(step);

  step = NowNs();
  std::vector<piye::source::FederatedSource*> registered;
  if (spec.wire && !in_process) {
    for (size_t i = 0; i < d->sources_.size(); ++i) {
      const piye::source::FederatedSource* hosted = d->sources_[i].get();
      if (tracer != nullptr) {
        d->server_side_.push_back(tracer->Wrap(hosted, /*server_side=*/true));
        hosted = d->server_side_.back().get();
      }
      piye::net::ServerConfig server_config;
      server_config.listen_address =
          "unix:" + socket_dir + "/" + kOwners[i] + ".sock";
      server_config.worker_threads = ServerWorkers();
      auto server = std::make_unique<piye::net::SourceServer>(server_config);
      server->AddSource(hosted);
      PIYE_RETURN_NOT_OK(server->Start());

      piye::net::ClientConfig client_config;
      client_config.address = server->bound_address();
      client_config.connections = 1;
      auto client = std::make_shared<piye::net::NetClient>(client_config);
      d->servers_.push_back(std::move(server));
      d->net_clients_.push_back(client);
      // Connect now: dialing is set-up a mediator pays before serving.
      PIYE_ASSIGN_OR_RETURN(auto owners, client->ListOwners());
      if (owners.size() != 1 || owners[0] != kOwners[i]) {
        return Status::Internal(std::string("server does not host ") + kOwners[i]);
      }
      d->net_sources_.push_back(
          std::make_unique<piye::net::NetSource>(kOwners[i], std::move(client)));
      registered.push_back(d->net_sources_.back().get());
    }
  } else {
    for (const auto& src : d->sources_) registered.push_back(src.get());
  }
  d->split_.net_ms = MsSince(step);

  step = NowNs();
  Engine::Options options;
  if (max_cumulative_loss > 0) options.max_cumulative_loss = max_cumulative_loss;
  options.worker_threads = EngineWorkers(spec);
  d->engine_ = std::make_unique<Engine>(options);
  for (auto* src : registered) {
    if (tracer != nullptr) {
      d->engine_side_.push_back(tracer->Wrap(src, /*server_side=*/false));
      src = d->engine_side_.back().get();
    }
    PIYE_RETURN_NOT_OK(d->engine_->RegisterSource(src));
  }
  PIYE_RETURN_NOT_OK(d->engine_->GenerateMediatedSchema("perfbench"));
  d->split_.schema_ms = MsSince(step);

  if (!persist_dir.empty()) {
    step = NowNs();
    PIYE_RETURN_NOT_OK(d->engine_->Recover(persist_dir));
    d->split_.recover_ms = MsSince(step);
  }
  d->split_.total_s = (NowNs() - start) / 1e9;
  return d;
}

Deployment::~Deployment() {
  engine_.reset();
  for (auto& client : net_clients_) client->Close();
  for (auto& server : servers_) server->Stop();
}

}  // namespace perfbench
