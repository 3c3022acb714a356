#ifndef PIYE_TESTS_REFERENCE_SQL_TABLES_H_
#define PIYE_TESTS_REFERENCE_SQL_TABLES_H_

#include <map>
#include <string>
#include <string_view>

#include "common/result.h"
#include "relational/sql.h"
#include "relational/table.h"

namespace piye {
namespace relational {
namespace sqlref {

// Named tables that SQL-text tests and benchmarks resolve `FROM <name>`
// against. The product has no catalog: a source runs a statement over its
// own table with `Executor::Execute(stmt, base, selection)`, and these
// helpers do exactly that after looking the table up by name.
using Tables = std::map<std::string, Table>;

/// Runs `stmt` over `tables[stmt.table]`: the WHERE becomes a row
/// selection (`Executor::FilterSelection`), then `Executor::Execute` runs
/// the rest. An unknown table fails with kNotFound.
Result<Table> Execute(const Tables& tables, const SelectStatement& stmt);

/// Parses `sql` with `ParseSql`, then runs it as `Execute` does.
Result<Table> Query(const Tables& tables, std::string_view sql);

}  // namespace sqlref
}  // namespace relational
}  // namespace piye

#endif  // PIYE_TESTS_REFERENCE_SQL_TABLES_H_
