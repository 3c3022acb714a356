#ifndef PIYE_RELATIONAL_XML_BRIDGE_H_
#define PIYE_RELATIONAL_XML_BRIDGE_H_

#include "common/result.h"
#include "relational/table.h"
#include "xml/node.h"

namespace piye {
namespace relational {

/// Ingests *record-shaped* XML — the hierarchical stores and structured
/// files the paper's data model is chosen for — into a table:
///
///   <patients>
///     <patient><dob>1970-01-02</dob><zip>13053</zip></patient>
///     ...
///   </patients>
///
/// Every child element of `root` is a record; the schema is the union of
/// the records' child-element names, with types inferred per column (INT64
/// if every non-empty value parses as an integer, else DOUBLE if numeric,
/// else STRING). Missing fields become NULL. Nested structure below a field
/// is flattened to its inner text.
Result<Table> TableFromXmlRecords(const xml::XmlNode& root);

}  // namespace relational
}  // namespace piye

#endif  // PIYE_RELATIONAL_XML_BRIDGE_H_
