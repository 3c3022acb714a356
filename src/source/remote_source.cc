#include "source/remote_source.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/macros.h"
#include "common/strings.h"
#include "relational/xml_bridge.h"
#include "statdb/sampling.h"
#include "xml/parser.h"

namespace piye {
namespace source {

xml::LooseNameMatcher DefaultClinicalNameMatcher() {
  xml::LooseNameMatcher matcher;
  matcher.AddSynonyms({"sex", "gender"});
  matcher.AddSynonyms({"dob", "birthdate", "birthday"});
  matcher.AddSynonyms({"diagnosis", "disease", "condition"});
  matcher.AddSynonyms({"medication", "drug", "prescription"});
  matcher.AddSynonyms({"doctor", "physician", "provider"});
  matcher.AddSynonyms({"id", "identifier", "key"});
  matcher.AddSynonyms({"zip", "zipcode", "postcode"});
  matcher.AddSynonyms({"rate", "ratio", "pct", "percentage"});
  return matcher;
}

RemoteSource::RemoteSource(std::string owner, std::string table_name,
                           relational::Table data, uint64_t seed)
    : owner_(std::move(owner)),
      table_name_(std::move(table_name)),
      transformer_(DefaultClinicalNameMatcher()),
      perturb_seed_(seed ^ 0xBF58476D1CE4E5B9ULL),
      rsq_seed_(seed ^ 0x94D049BB133111EBULL) {
  catalog_.PutTable(table_name_, std::move(data));
  clusters_ = ClusterStore::Default();
}

Result<std::unique_ptr<RemoteSource>> RemoteSource::FromXmlRecords(
    const std::string& owner, const std::string& table_name,
    std::string_view xml_text, uint64_t seed) {
  PIYE_ASSIGN_OR_RETURN(xml::XmlDocument doc, xml::Parse(xml_text));
  PIYE_ASSIGN_OR_RETURN(relational::Table table,
                        relational::TableFromXmlRecords(doc.root()));
  return std::make_unique<RemoteSource>(owner, table_name, std::move(table), seed);
}

const relational::Schema& RemoteSource::schema() const {
  return (*catalog_.GetTable(table_name_))->schema();
}

size_t RemoteSource::num_rows() const {
  return (*catalog_.GetTable(table_name_))->num_rows();
}

const relational::Table& RemoteSource::raw_table_for_testing() const {
  return **catalog_.GetTable(table_name_);
}

void RemoteSource::set_name_matcher(xml::LooseNameMatcher matcher) {
  transformer_ = QueryTransformer(std::move(matcher));
}

Result<relational::Table> RemoteSource::EffectiveTable() const {
  PIYE_ASSIGN_OR_RETURN(const relational::Table* raw, catalog_.GetTable(table_name_));
  const auto views = policies_.ViewsForTable(owner_, table_name_);
  relational::Table table = *raw;
  for (const policy::PrivacyView* view : views) {
    PIYE_ASSIGN_OR_RETURN(table, view->Apply(table));
  }
  return table;
}

Result<RemoteSource::FragmentResult> RemoteSource::ExecuteFragment(
    const PiqlQuery& fragment, const CancelToken& cancel) const {
  PIYE_RETURN_NOT_OK(cancel.Check());
  // (F) Fault injection, when configured: the source misbehaves the way an
  // autonomous federated service does — slow, transiently failing, or hung.
  // The sleeps are token-interruptible: a cancelled query does not hold a
  // pool thread hostage for the remainder of a simulated hang.
  if (faults_.latency_micros > 0 || faults_.error_rate > 0.0 ||
      faults_.drop_rate > 0.0) {
    if (faults_.latency_micros > 0 &&
        !cancel.SleepFor(std::chrono::microseconds(faults_.latency_micros))) {
      return cancel.status();
    }
    const uint64_t call = fault_calls_.fetch_add(1, std::memory_order_relaxed);
    Rng fault_rng(faults_.seed ^ (call * 0x9E3779B97F4A7C15ULL) ^
                  0xD1B54A32D192ED03ULL);
    if (fault_rng.NextBernoulli(faults_.drop_rate)) {
      if (!cancel.SleepFor(std::chrono::microseconds(faults_.hang_micros))) {
        return cancel.status();
      }
      return Status::Unavailable("injected drop: source '" + owner_ +
                                 "' hung past its deadline");
    }
    if (fault_rng.NextBernoulli(faults_.error_rate)) {
      return Status::Unavailable("injected fault: source '" + owner_ +
                                 "' failed transiently");
    }
  }

  // (0) Privacy views define what exists at all.
  PIYE_ASSIGN_OR_RETURN(relational::Table effective, EffectiveTable());
  const relational::Table* base = &effective;

  // (1) Query Transformer: XML fragment → local SQL with loose name
  // resolution.
  PIYE_ASSIGN_OR_RETURN(QueryTransformer::Transformed transformed,
                        transformer_.Transform(fragment, table_name_, base->schema()));

  // (2) Query Rewriter: integrate RBAC + policies; may strip columns.
  PrivacyRewriter rewriter(&policies_, &rbac_, owner_);
  PIYE_ASSIGN_OR_RETURN(PrivacyRewriter::Rewritten rewritten,
                        rewriter.Rewrite(transformed.stmt, fragment));

  FragmentResult out;
  out.denied_columns = rewritten.denied_columns;
  out.loss_budget = rewritten.loss_budget;

  // (3) Cluster Matching: classify the breach profile without executing.
  const QueryFeatures features = QueryFeatures::Extract(rewritten.stmt);
  if (const QueryCluster* cluster = clusters_.Map(features)) {
    out.breach = cluster->breach;
    out.techniques = cluster->techniques;
  }
  // Merge in the defaults implied by the disclosure forms.
  for (Technique t :
       preservation_.DefaultTechniques(rewritten.column_forms, rewritten.loss_budget)) {
    if (std::find(out.techniques.begin(), out.techniques.end(), t) ==
        out.techniques.end()) {
      out.techniques.push_back(t);
    }
  }

  // (4) Privacy Loss Computation; the requester's tolerance gates execution.
  out.losses =
      LossComputation::Estimate(rewritten.column_forms, rewritten.denied_columns.size());
  if (out.losses.information_loss > fragment.max_information_loss) {
    return Status::PrivacyViolation(
        "release would lose more information than the requester tolerates "
        "(information loss " +
        std::to_string(out.losses.information_loss) + " > " +
        std::to_string(fragment.max_information_loss) + ")");
  }

  // Cheap stages are done; poll before the expensive execution half.
  PIYE_RETURN_NOT_OK(cancel.Check());

  // (5) Privacy-conscious optimization (the rewritten statement already has
  // the policy predicate pushed down; the plan records the reasoning).
  PIYE_ASSIGN_OR_RETURN(
      out.plan, PrivacyOptimizer::Choose(rewritten.stmt, *base, rewritten.stmt.where));

  // (5b) Statistical query-set restriction: when the cluster matcher tagged
  // the query as aggregate-inference-prone, refuse *predicate-selected
  // global* aggregates whose query set could act as a tracker (|C| < k or
  // |C| > N - k). Grouped or unfiltered statistics are not attacker-chosen
  // subsets; they are governed by the rounding/noise techniques instead.
  if (rewritten.stmt.HasAggregates() && rewritten.stmt.where != nullptr &&
      rewritten.stmt.group_by.empty() &&
      std::find(out.techniques.begin(), out.techniques.end(),
                Technique::kQuerySetRestriction) != out.techniques.end()) {
    PIYE_ASSIGN_OR_RETURN(relational::Table query_set,
                          relational::Executor::Filter(*base, rewritten.stmt.where));
    const size_t k = preservation_.config().k;
    const size_t n = base->num_rows();
    if (query_set.num_rows() < k || query_set.num_rows() + k > n) {
      return Status::PrivacyViolation(
          "aggregate query set size " + std::to_string(query_set.num_rows()) +
          " outside [" + std::to_string(k) + ", " +
          std::to_string(n >= k ? n - k : 0) + "] — tracker risk");
    }
  }

  // (6) Execute against the effective (view-filtered) table. When enabled,
  // ungrouped single aggregates are answered through Denning random-sample
  // queries instead of the exact executor.
  relational::Table result;
  const relational::SelectItem* lone_aggregate =
      rewritten.stmt.group_by.empty() && rewritten.stmt.items.size() == 1 &&
              rewritten.stmt.items[0].kind == relational::SelectItem::Kind::kAggregate &&
              !rewritten.stmt.items[0].column.empty()
          ? &rewritten.stmt.items[0]
          : nullptr;
  if (preservation_.config().use_random_sample_queries && lone_aggregate != nullptr) {
    // Key records by their stable ordinal in the effective table. The
    // payload columns are shared (copy-on-write), only _rowid is built.
    relational::Table keyed;
    for (size_t c = 0; c < base->schema().num_columns(); ++c) {
      keyed.AddColumn(base->schema().column(c), base->col(c));
    }
    relational::ColumnVector rowid(relational::ColumnType::kInt64);
    rowid.Reserve(base->num_rows());
    for (size_t r = 0; r < base->num_rows(); ++r) {
      rowid.AppendInt(static_cast<int64_t>(r));
    }
    keyed.AddColumn({"_rowid", relational::ColumnType::kInt64}, std::move(rowid));
    statdb::AggregateQuery agg_query;
    agg_query.func = lone_aggregate->func;
    agg_query.column = lone_aggregate->column;
    agg_query.predicate = rewritten.stmt.where;
    // The sampling seed is a per-source constant: re-asking the same query
    // must return the same answer (no averaging attack), which is the whole
    // point of Denning's design.
    const statdb::RandomSampleQueries rsq("_rowid",
                                          preservation_.config().sampling_rate,
                                          rsq_seed_);
    PIYE_ASSIGN_OR_RETURN(double value, rsq.Answer(agg_query, keyed));
    relational::Table sampled(relational::Schema{
        {lone_aggregate->OutputName(), relational::ColumnType::kDouble}});
    sampled.AppendRowUnchecked({relational::Value::Real(value)});
    result = std::move(sampled);
  } else {
    relational::Catalog scratch;
    scratch.PutTable(table_name_, *base);
    relational::Executor executor(&scratch);
    PIYE_ASSIGN_OR_RETURN(result, executor.Execute(rewritten.stmt));
  }

  PIYE_RETURN_NOT_OK(cancel.Check());

  // (7) Privacy preservation on the results. The RNG stream is derived per
  // call from (source seed, serialized fragment): concurrent fragments never
  // contend on generator state, results are independent of execution order,
  // and re-asking the same fragment reproduces the identical perturbation
  // (no averaging attack across retries or repeats).
  Rng call_rng(perturb_seed_ ^
               strings::Fnv1a64(xml::Serialize(*fragment.ToXml(), /*indent=*/-1)));
  PIYE_ASSIGN_OR_RETURN(
      result, preservation_.Apply(std::move(result), rewritten.column_forms,
                                  rewritten.loss_budget, out.techniques, &call_rng));

  // (8) Metadata Tagger: each released column carries the disclosure form
  // and budget the rewriter settled on, so the mediator can re-verify the
  // loss per data item after integration.
  for (const relational::Column& column : result.schema().columns()) {
    ColumnTag& tag = out.column_tags.emplace_back();
    tag.name = column.name;
    auto form = rewritten.column_forms.find(column.name);
    if (form != rewritten.column_forms.end()) tag.form = form->second;
    auto budget = rewritten.column_budgets.find(column.name);
    if (budget != rewritten.column_budgets.end()) tag.budget = budget->second;
  }
  out.table = std::move(result);
  return out;
}

Result<std::vector<match::ColumnSketch>> RemoteSource::ExportSketches(
    const std::string& shared_key) const {
  PIYE_ASSIGN_OR_RETURN(relational::Table effective, EffectiveTable());
  const relational::Table* base = &effective;
  // A column belongs in the mediated schema if *some* purpose can ever see
  // it, so probe with every purpose the policy mentions (plus the root).
  std::vector<std::string> probe_purposes{"any"};
  if (auto policy = policies_.GetPolicy(owner_); policy.ok()) {
    for (const auto& rule : (*policy)->rules()) {
      for (const auto& p : rule.purposes) {
        if (p != "*") probe_purposes.push_back(p);
      }
    }
  }
  std::vector<match::ColumnSketch> out;
  for (const auto& col : base->schema().columns()) {
    policy::Disclosure d;
    for (const auto& purpose : probe_purposes) {
      const policy::Disclosure candidate = policies_.EffectiveDisclosure(
          owner_, /*table=*/"*", col.name, purpose, /*recipient=*/"mediator");
      if (candidate.form > d.form) d = candidate;
    }
    if (!d.allowed()) continue;  // fully private columns stay invisible
    const bool name_public = hidden_schema_columns_.count(col.name) == 0;
    PIYE_ASSIGN_OR_RETURN(
        match::ColumnSketch sketch,
        match::ColumnSketch::Build({owner_, table_name_, col.name}, *base, shared_key,
                                   name_public));
    out.push_back(std::move(sketch));
  }
  return out;
}

}  // namespace source
}  // namespace piye
