#include "reference/sql_tables.h"

#include <utility>
#include <vector>

#include "common/macros.h"
#include "relational/executor.h"

namespace piye {
namespace relational {
namespace sqlref {

Result<Table> Execute(const Tables& tables, const SelectStatement& stmt) {
  auto it = tables.find(stmt.table);
  if (it == tables.end()) {
    return Status::NotFound("no table named '" + stmt.table + "'");
  }
  const Table& base = it->second;
  if (stmt.where == nullptr) {
    return Executor::Execute(stmt, base, Selection::All(base.num_rows()));
  }
  PIYE_ASSIGN_OR_RETURN(std::vector<uint32_t> rows,
                        Executor::FilterSelection(base, *stmt.where));
  return Executor::Execute(stmt, base, Selection::Rows(std::move(rows)));
}

Result<Table> Query(const Tables& tables, std::string_view sql) {
  PIYE_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSql(sql));
  return Execute(tables, stmt);
}

}  // namespace sqlref
}  // namespace relational
}  // namespace piye
