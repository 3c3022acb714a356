#include "source/remote_source.h"

#include <algorithm>
#include <optional>

#include "common/macros.h"
#include "common/strings.h"
#include "relational/xml_bridge.h"
#include "statdb/restriction.h"
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

struct RemoteSource::Snapshot {
  /// One per column: the index is built under `mu` by the first fragment
  /// that can use the column, and never changes afterwards.
  struct IndexSlot {
    Mutex mu;
    bool built GUARDED_BY(mu) = false;
    std::optional<relational::SortedIndex> index GUARDED_BY(mu);
  };

  Snapshot(uint64_t generation, relational::Table table)
      : generation(generation),
        table(std::move(table)),
        slots(std::make_unique<IndexSlot[]>(this->table.num_columns())) {}

  const uint64_t generation;
  const relational::Table table;
  const std::unique_ptr<IndexSlot[]> slots;
};

RemoteSource::RemoteSource(std::string owner, std::string table_name,
                           relational::Table data, uint64_t seed)
    : owner_(std::move(owner)),
      table_name_(std::move(table_name)),
      raw_(std::move(data)),
      transformer_(DefaultClinicalNameMatcher()),
      perturb_seed_(seed ^ 0xBF58476D1CE4E5B9ULL),
      rsq_seed_(seed ^ 0x94D049BB133111EBULL) {
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

Result<std::shared_ptr<const RemoteSource::Snapshot>> RemoteSource::CurrentSnapshot()
    const {
  const uint64_t generation = policies_.generation();
  MutexLock lock(snapshot_mu_);
  if (snapshot_ == nullptr || snapshot_->generation != generation) {
    relational::Table table = raw_;
    for (const policy::PrivacyView* view : policies_.ViewsForTable(owner_, table_name_)) {
      PIYE_ASSIGN_OR_RETURN(table, view->Apply(table));
    }
    snapshot_ = std::make_shared<const Snapshot>(generation, std::move(table));
  }
  return snapshot_;
}

const relational::SortedIndex* RemoteSource::IndexFor(const Snapshot& snapshot,
                                                      size_t column) const {
  Snapshot::IndexSlot& slot = snapshot.slots[column];
  MutexLock lock(slot.mu);
  if (!slot.built) {
    slot.index = relational::SortedIndex::Build(snapshot.table.col(column));
    slot.built = true;
    counters_.index_builds.fetch_add(1, std::memory_order_relaxed);
  }
  return slot.index.has_value() ? &*slot.index : nullptr;
}

Result<relational::Selection> RemoteSource::Scan(
    const Snapshot& snapshot, const relational::SelectStatement& stmt) const {
  const relational::Table& base = snapshot.table;
  const size_t n = base.num_rows();
  if (stmt.where == nullptr) return relational::Selection::All(n);
  // An empty table keeps the full scan: it evaluates nothing, so not even
  // an unknown column raises there.
  std::optional<relational::IndexableWhere> plan;
  const relational::SortedIndex* index = nullptr;
  if (n > 0) plan = relational::MatchIndexable(stmt.where, base);
  if (plan.has_value()) index = IndexFor(snapshot, plan->column);
  if (index == nullptr) {
    counters_.full_scans.fetch_add(1, std::memory_order_relaxed);
    counters_.rows_examined.fetch_add(n, std::memory_order_relaxed);
    PIYE_ASSIGN_OR_RETURN(std::vector<uint32_t> rows,
                          relational::Executor::FilterSelection(base, *stmt.where));
    counters_.rows_gathered.fetch_add(rows.size(), std::memory_order_relaxed);
    return relational::Selection::Rows(std::move(rows));
  }
  counters_.index_scans.fetch_add(1, std::memory_order_relaxed);
  const relational::SortedIndex::Range range =
      index->Find(base.col(plan->column), plan->bounds);
  if (!stmt.HasAggregates() && stmt.group_by.empty()) {
    // Row-shaped: the release holds |C| rows anyway, so the work may follow
    // |C|. The rest of the WHERE runs on the candidates only.
    counters_.rows_examined.fetch_add(range.size(), std::memory_order_relaxed);
    PIYE_ASSIGN_OR_RETURN(
        relational::Selection selection,
        index->Select(base, range, plan->residual, relational::Selection::Kind::kRows));
    counters_.rows_gathered.fetch_add(selection.count, std::memory_order_relaxed);
    return selection;
  }
  // Aggregate-shaped: every row is tested, whatever |C| is, so neither the
  // query-set restriction nor the answer takes time that tracks |C|.
  counters_.rows_examined.fetch_add(n, std::memory_order_relaxed);
  PIYE_ASSIGN_OR_RETURN(
      relational::Selection selection,
      index->Select(base, range, plan->residual, relational::Selection::Kind::kMask));
  // Grouped aggregates gather, then group: the one aggregate path whose
  // cost grows with |C| (the query-set restriction exempts them).
  if (!stmt.group_by.empty()) {
    counters_.rows_gathered.fetch_add(selection.count, std::memory_order_relaxed);
  }
  return selection;
}

RemoteSource::ScanStats RemoteSource::scan_stats() const {
  ScanStats stats;
  stats.index_scans = counters_.index_scans.load(std::memory_order_relaxed);
  stats.full_scans = counters_.full_scans.load(std::memory_order_relaxed);
  stats.rows_examined = counters_.rows_examined.load(std::memory_order_relaxed);
  stats.rows_gathered = counters_.rows_gathered.load(std::memory_order_relaxed);
  stats.index_builds = counters_.index_builds.load(std::memory_order_relaxed);
  return stats;
}

Result<RemoteSource::FragmentResult> RemoteSource::ExecuteFragment(
    const PiqlQuery& fragment, const CancelToken& cancel) const {
  PIYE_RETURN_NOT_OK(cancel.Check());

  // (0) Privacy views define what exists at all.
  PIYE_ASSIGN_OR_RETURN(std::shared_ptr<const Snapshot> snapshot, CurrentSnapshot());
  const relational::Table* base = &snapshot->table;

  // (1) Query Transformer: XML fragment → local SQL with loose name
  // resolution.
  PIYE_ASSIGN_OR_RETURN(QueryTransformer::Transformed transformed,
                        transformer_.Transform(fragment, table_name_, base->schema()));

  // (2) Query Rewriter: integrate RBAC + policies; may strip columns.
  PrivacyRewriter rewriter(&policies_, &rbac_, owner_);
  PIYE_ASSIGN_OR_RETURN(PrivacyRewriter::Rewritten rewritten,
                        rewriter.Rewrite(transformed.stmt, fragment));

  FragmentResult out;
  out.loss_budget = rewritten.loss_budget;

  // (3) Cluster Matching: classify the breach profile without executing.
  const QueryFeatures features = QueryFeatures::Extract(rewritten.stmt);
  std::vector<Technique> techniques;
  if (const QueryCluster* cluster = clusters_.Map(features)) {
    techniques = cluster->techniques;
  }
  // Merge in the defaults implied by the disclosure forms.
  for (Technique t :
       preservation_.DefaultTechniques(rewritten.column_forms, rewritten.loss_budget)) {
    if (std::find(techniques.begin(), techniques.end(), t) == techniques.end()) {
      techniques.push_back(t);
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

  // When enabled, ungrouped single aggregates are answered through Denning
  // random-sample queries, which evaluate the WHERE themselves.
  const relational::SelectItem* lone_aggregate =
      rewritten.stmt.group_by.empty() && rewritten.stmt.items.size() == 1 &&
              rewritten.stmt.items[0].kind == relational::SelectItem::Kind::kAggregate &&
              !rewritten.stmt.items[0].column.empty()
          ? &rewritten.stmt.items[0]
          : nullptr;
  const bool random_sample =
      preservation_.config().use_random_sample_queries && lone_aggregate != nullptr;
  // (5b) Statistical query-set restriction: when the cluster matcher tagged
  // the query as aggregate-inference-prone, refuse *predicate-selected
  // global* aggregates whose query set could act as a tracker (|C| < k or
  // |C| > N - k). Grouped or unfiltered statistics are not attacker-chosen
  // subsets; they are governed by the rounding/noise techniques instead.
  const bool restricted =
      rewritten.stmt.HasAggregates() && rewritten.stmt.where != nullptr &&
      rewritten.stmt.group_by.empty() &&
      std::find(techniques.begin(), techniques.end(),
                Technique::kQuerySetRestriction) != techniques.end();
  // The scan's one selection serves both (5b) and (6).
  relational::Selection selection;
  if (restricted || !random_sample) {
    PIYE_ASSIGN_OR_RETURN(selection, Scan(*snapshot, rewritten.stmt));
  }
  if (restricted) {
    const Status size_check = statdb::QuerySetSizeControl(preservation_.config().k)
                                  .Check(selection.count, base->num_rows());
    if (!size_check.ok()) {
      return Status::PrivacyViolation("aggregate " + size_check.message() +
                                      " — tracker risk");
    }
  }

  // (6) Execute against the effective (view-filtered) table.
  relational::Table result;
  if (random_sample) {
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
    PIYE_ASSIGN_OR_RETURN(
        result, relational::Executor::Execute(rewritten.stmt, *base, selection));
  }

  PIYE_RETURN_NOT_OK(cancel.Check());

  // (7) Privacy preservation on the results. The RNG stream is derived per
  // call from (source seed, the fragment's canonical key): concurrent
  // fragments never contend on generator state, results are independent of
  // execution order, and re-asking the same fragment reproduces the
  // identical perturbation (no averaging attack across retries or repeats).
  Rng call_rng(perturb_seed_ ^ strings::Fnv1a64(fragment.CanonicalKey()));
  PIYE_ASSIGN_OR_RETURN(
      result, preservation_.Apply(std::move(result), rewritten.column_forms,
                                  rewritten.loss_budget, techniques, &call_rng));

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
  PIYE_ASSIGN_OR_RETURN(std::shared_ptr<const Snapshot> snapshot, CurrentSnapshot());
  const relational::Table* base = &snapshot->table;
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
