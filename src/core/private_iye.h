#ifndef PIYE_CORE_PRIVATE_IYE_H_
#define PIYE_CORE_PRIVATE_IYE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "mediator/engine.h"
#include "source/remote_source.h"

namespace piye {
namespace core {

/// PRIVATE-IYE: the top-level system facade. Owns the remote sources and
/// the mediation engine and exposes the end-to-end flow a deployment uses:
///
///   PrivateIye system;
///   auto* hmo = system.AddSource("HMO1", "compliance", table);
///   hmo->mutable_policies()->AddPolicy(...);
///   system.Initialize();
///   auto result = system.QueryXml(R"(<query ...>...</query>)");
///
/// See examples/quickstart.cc for the full walk-through.
class PrivateIye {
 public:
  explicit PrivateIye(mediator::MediationEngine::Options options);
  PrivateIye() : PrivateIye(mediator::MediationEngine::Options()) {}

  /// Creates, registers, and owns a new remote source; returns a stable
  /// pointer for policy/RBAC configuration. Returns nullptr when the engine
  /// rejects the registration (duplicate owner, or called after
  /// Initialize).
  source::RemoteSource* AddSource(const std::string& owner,
                                  const std::string& table_name,
                                  relational::Table data, uint64_t seed = 0);

  /// Registers an externally owned source. Fails with kAlreadyExists for a
  /// duplicate owner and kInvalidArgument after Initialize.
  Status AddExternalSource(source::RemoteSource* src) {
    return engine_.RegisterSource(src);
  }

  /// Generates the mediated schema. Call after all sources are added;
  /// freezes source registration.
  Status Initialize(const std::string& shared_key = "private-iye");

  /// Attaches a durability directory to the mediation engine and restores
  /// any crash-surviving state from it (see MediationEngine::Recover). Call
  /// once at startup, before the first query.
  Status Recover(const std::string& dir) { return engine_.Recover(dir); }

  /// Runs an integrated PIQL query under the given options (deadlines,
  /// retries, quorum, dedup keys — see mediator/query_options.h).
  Result<mediator::MediationEngine::IntegratedResult> Query(
      const source::PiqlQuery& query, const mediator::QueryOptions& options = {});

  /// Parses and runs a PIQL query from its XML text.
  Result<mediator::MediationEngine::IntegratedResult> QueryXml(
      std::string_view piql_xml, const mediator::QueryOptions& options = {});

  mediator::MediationEngine* engine() { return &engine_; }
  const match::MediatedSchema& mediated_schema() const {
    return engine_.mediated_schema();
  }

  /// The owned source registered under `owner`, or nullptr.
  source::RemoteSource* source(const std::string& owner);

 private:
  std::vector<std::unique_ptr<source::RemoteSource>> owned_sources_;
  mediator::MediationEngine engine_;
};

}  // namespace core
}  // namespace piye

#endif  // PIYE_CORE_PRIVATE_IYE_H_
