#include "mediator/result_integrator.h"

#include <deque>

#include "common/macros.h"
#include "common/strings.h"
#include "relational/dedup.h"

namespace piye {
namespace mediator {

namespace {

const char* kAggPrefixes[] = {"count_", "sum_", "avg_", "min_", "max_", "stddev_"};

/// Maps one source-local column name to its mediated name (or returns the
/// input unchanged when no mapping exists).
std::string MediatedName(const match::MediatedSchema& schema,
                         const std::string& owner, const std::string& column) {
  for (const auto& attr : schema.attributes()) {
    for (const auto& m : attr.mappings) {
      if (m.source == owner && m.column == column) return attr.name;
    }
  }
  // Aggregate aliases: func_column → func_attribute.
  for (const char* prefix : kAggPrefixes) {
    if (strings::StartsWith(column, prefix)) {
      const std::string inner = column.substr(std::string(prefix).size());
      const std::string mapped = MediatedName(schema, owner, inner);
      if (mapped != inner) return std::string(prefix) + mapped;
      return column;
    }
  }
  return column;
}

}  // namespace

ResultIntegrator::SourceResult ResultIntegrator::FromSource(
    std::string owner, relational::Table table) const {
  SourceResult out{std::move(owner), std::move(table)};
  for (size_t c = 0; c < out.table.schema().num_columns(); ++c) {
    out.table.mutable_schema().SetColumnName(
        c, MediatedName(*schema_, out.owner, out.table.schema().column(c).name));
  }
  return out;
}

Result<relational::Table> ResultIntegrator::Integrate(
    const std::vector<SourceResult>& results,
    const std::vector<std::string>& dedup_keys) const {
  // Ordered union of mediated column names, plus provenance.
  relational::Schema schema;
  for (const auto& r : results) {
    for (const auto& col : r.table.schema().columns()) {
      if (!schema.Contains(col.name)) schema.AddColumn(col);
    }
  }
  const size_t payload_cols = schema.num_columns();
  schema.AddColumn({"_source", relational::ColumnType::kString});

  // One block per source, one entry per mediated column: the source's own
  // column when its type matches, a coerced copy (AppendValue rules) when a
  // later source disagrees on the type, nullptr (all NULL) when it lacks
  // the column.
  std::deque<relational::ColumnVector> owned;
  std::vector<relational::KeyBlock> blocks(results.size());
  for (size_t b = 0; b < results.size(); ++b) {
    const relational::Table& t = results[b].table;
    blocks[b].num_rows = t.num_rows();
    for (size_t c = 0; c < payload_cols; ++c) {
      const relational::Column& column = schema.column(c);
      auto idx = t.schema().IndexOf(column.name);
      const relational::ColumnVector* col = nullptr;
      if (idx.ok() && t.schema().column(*idx).type == column.type) {
        col = &t.col(*idx);
      } else if (idx.ok()) {
        relational::ColumnVector& coerced = owned.emplace_back(column.type);
        coerced.Reserve(t.num_rows());
        for (size_t i = 0; i < t.num_rows(); ++i) {
          coerced.AppendValue(t.col(*idx).ValueAt(i));
        }
        col = &coerced;
      }
      blocks[b].cols.push_back(col);
    }
  }

  // Dedup keys: the named columns, or the whole row ignoring provenance.
  std::vector<relational::KeyBlock> keys = blocks;
  if (!dedup_keys.empty()) {
    for (auto& k : keys) k.cols.clear();
    for (const auto& name : dedup_keys) {
      PIYE_ASSIGN_OR_RETURN(size_t c, schema.IndexOf(name));
      for (size_t b = 0; b < results.size(); ++b) {
        if (c < payload_cols) {
          keys[b].cols.push_back(blocks[b].cols[c]);
        } else {
          relational::ColumnVector& owner =
              owned.emplace_back(relational::ColumnType::kString);
          owner.AppendStrRun(results[b].owner, results[b].table.num_rows());
          keys[b].cols.push_back(&owner);
        }
      }
    }
  }
  const std::vector<uint32_t> first = relational::FirstOccurrences(keys);

  // Survivors are ascending, so source b's are the run [runs[b], runs[b+1])
  // of `first`; make them source-local, then emit every column with one
  // gather per source.
  std::vector<uint32_t> local(first.size());
  std::vector<size_t> runs(results.size() + 1, 0);
  for (size_t b = 0, block_start = 0, i = 0; b < results.size(); ++b) {
    const size_t block_end = block_start + blocks[b].num_rows;
    for (; i < first.size() && first[i] < block_end; ++i) {
      local[i] = first[i] - static_cast<uint32_t>(block_start);
    }
    runs[b + 1] = i;
    block_start = block_end;
  }
  relational::Table out;
  for (size_t c = 0; c <= payload_cols; ++c) {
    relational::ColumnVector data(schema.column(c).type);
    data.Reserve(first.size());
    for (size_t b = 0; b < results.size(); ++b) {
      const size_t n = runs[b + 1] - runs[b];
      if (c == payload_cols) {
        data.AppendStrRun(results[b].owner, n);
      } else if (blocks[b].cols[c] == nullptr) {
        data.AppendNulls(n);
      } else {
        data.AppendGather(*blocks[b].cols[c], local.data() + runs[b], n);
      }
    }
    out.AddColumn(schema.column(c), std::move(data));
  }
  return out;
}

}  // namespace mediator
}  // namespace piye
