#include "core/private_iye.h"

#include "common/logging.h"
#include "common/macros.h"

namespace piye {
namespace core {

PrivateIye::PrivateIye(mediator::MediationEngine::Options options)
    : engine_(options) {}

source::RemoteSource* PrivateIye::AddSource(const std::string& owner,
                                            const std::string& table_name,
                                            relational::Table data, uint64_t seed) {
  auto src = std::make_unique<source::RemoteSource>(owner, table_name,
                                                    std::move(data), seed);
  const Status status = engine_.RegisterSource(src.get());
  if (!status.ok()) {
    Logger::Warn("core", "AddSource('" + owner + "') rejected: " + status.ToString());
    return nullptr;
  }
  owned_sources_.push_back(std::move(src));
  return owned_sources_.back().get();
}

Status PrivateIye::Initialize(const std::string& shared_key) {
  return engine_.GenerateMediatedSchema(shared_key);
}

Result<mediator::MediationEngine::IntegratedResult> PrivateIye::Query(
    const source::PiqlQuery& query, const mediator::QueryOptions& options) {
  return engine_.Execute(query, options);
}

Result<mediator::MediationEngine::IntegratedResult> PrivateIye::QueryXml(
    std::string_view piql_xml, const mediator::QueryOptions& options) {
  PIYE_ASSIGN_OR_RETURN(source::PiqlQuery query, source::PiqlQuery::Parse(piql_xml));
  return engine_.Execute(query, options);
}

source::RemoteSource* PrivateIye::source(const std::string& owner) {
  for (const auto& s : owned_sources_) {
    if (s->owner() == owner) return s.get();
  }
  return nullptr;
}

}  // namespace core
}  // namespace piye
