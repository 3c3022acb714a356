#ifndef PIYE_TOOLS_LINT_LINT_H_
#define PIYE_TOOLS_LINT_LINT_H_

#include <string>
#include <vector>

/// piye_lint: repo-specific structural rules the compiler cannot see.
///
/// The thread-safety annotations in common/sync.h prove lock discipline, but
/// only for code that *uses* the annotated primitives, and only under a
/// clang build. piye_lint closes the gaps with a token-level scan of src/:
/// it bans the raw std primitives (so the annotated wrappers cannot be
/// bypassed), bans the analysis escape hatch outside sync.h itself, and
/// enforces privacy-flow conventions — never retry a privacy refusal, never
/// serialize raw records outside the blessed seams, never render a PIQL
/// query as text past the requester's front door, never schedule on the
/// wall clock, never drop a Status without saying why.
///
/// The scanner strips comments and string literals before matching, so prose
/// mentioning a banned token never trips a rule. A finding is silenced by a
/// comment on the same line or the line above:
///
///   std::thread reader;  // piye-lint: allow(raw-thread) joined in Close
///
/// Each suppression names exactly one rule; reviewers grep for the marker.
namespace piye {
namespace lint {

struct Finding {
  std::string file;
  size_t line = 0;  ///< 1-based
  std::string rule;
  std::string message;
};

/// A file to lint. `path` does not have to exist on disk — tests lint
/// fixture content under virtual paths — but path-scoped rules (e.g.
/// raw-sync's common/sync.h exemption) key off it, so it should look like a
/// repo-relative path.
struct FileContent {
  std::string path;
  std::string content;
};

/// Names of every registered rule, in report order.
const std::vector<std::string>& RuleNames();

/// One-line description of a rule (empty for an unknown name).
std::string RuleDescription(const std::string& rule);

/// Lints every file and returns the findings, ordered by (file, line).
std::vector<Finding> RunLint(const std::vector<FileContent>& files);

/// Product closure: src/ holds only what the product reaches. Follows
/// `#include "..."` lines from the product roots (src/mediator/, src/net/,
/// src/core/private_iye.{h,cc}, tools/source_server.cc and perfbench/*.cc),
/// plus each reached header's same-named .cc, and reports
///  * "product-closure": a src/ file no root reaches;
///  * "lab-include": a src/ or tools/ file that includes a lab/ header.
/// `files` carry repo-relative paths. An include resolves against the
/// including file's directory, then src/, then lab/; lab/ is never followed.
/// There is no suppression: a file is reached or it leaves src/.
std::vector<Finding> CheckProductClosure(const std::vector<FileContent>& files);

/// Machine-readable report:
/// {"count": N, "findings": [{"file", "line", "rule", "message"}, ...]}
std::string FindingsToJson(const std::vector<Finding>& findings);

}  // namespace lint
}  // namespace piye

#endif  // PIYE_TOOLS_LINT_LINT_H_
