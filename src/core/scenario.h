#ifndef PIYE_CORE_SCENARIO_H_
#define PIYE_CORE_SCENARIO_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "inference/snooping_attack.h"
#include "relational/table.h"
#include "source/remote_source.h"

namespace piye {
namespace core {

/// Synthetic data for the paper's clinical scenario. The paper's original
/// data (PHC4 2001 diabetes reports) is not redistributable, so these
/// generators produce deterministic stand-ins that preserve exactly the
/// properties the experiments consume — Figure 1's published aggregates and
/// overlapping patient populations across heterogeneous schemas (see
/// DESIGN.md, "Substitutions"). The outbreak scenario is in
/// lab/core/outbreak.h.
class ClinicalScenario {
 public:
  /// Ground-truth compliance rates per (measure, party) consistent with the
  /// Figure 1 aggregates, with HMO1's own values fixed to the paper's. The
  /// free cells are solved for with the in-tree NLP machinery from a fixed
  /// seed, so they are deterministic.
  static Result<std::vector<std::vector<double>>> GroundTruthRates(uint64_t seed = 7);

  /// HMO `party_index`'s raw "compliance" table: one row per measure
  /// (test STRING, rate DOUBLE, year INT64) with its rates from `rates`.
  static Result<relational::Table> HmoComplianceTable(
      size_t party_index, const std::vector<std::vector<double>>& rates);

  /// A fully configured HMO source: a "compliance" table with one row per
  /// measure (test STRING, rate DOUBLE, year INT64) + a policy that allows
  /// `rate` only in aggregate form for healthcare purposes, and `test`
  /// exactly; RBAC grants SELECT to the "analyst" requester.
  static Result<std::unique_ptr<source::RemoteSource>> MakeHmoSource(
      size_t party_index, const std::vector<std::vector<double>>& rates,
      uint64_t seed = 0);

  /// Patient-level sources with heterogeneous schemas and overlapping
  /// populations (hospital / pharmacy / laboratory), for the integration
  /// and dedup demos. `overlap` in [0,1] controls shared patients.
  struct PatientSources {
    relational::Table hospital;  ///< patient_id,name,dob,zip,sex,diagnosis
    relational::Table pharmacy;  ///< pid,patientName,dateOfBirth,drug
    relational::Table lab;       ///< patient,birthdate,test,result
  };
  static PatientSources MakePatientTables(size_t patients_per_source, double overlap,
                                          uint64_t seed);

  /// Applies the standard clinical policies to a patient-level source:
  /// names denied, dob range-only, zip generalized, diagnosis exact for
  /// healthcare purposes only.
  static void ApplyPatientPolicies(source::RemoteSource* src);
};

}  // namespace core
}  // namespace piye

#endif  // PIYE_CORE_SCENARIO_H_
