#include "lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

namespace piye {
namespace lint {

namespace {

/// One source line split into the code that survives comment/string
/// stripping and the concatenated comment text (used for suppressions and
/// discard justifications).
struct LineInfo {
  std::string code;
  std::string comment;
};

/// Splits `content` into lines, routing every character into either the
/// line's code or its comment text. String and character literals are
/// blanked from the code (their quotes remain, so "(" inside a string can
/// never look like a call); raw strings R"delim(...)delim" are handled so a
/// banned token inside one never fires.
std::vector<LineInfo> SplitLines(const std::string& content) {
  std::vector<LineInfo> lines;
  lines.emplace_back();
  enum class State { kCode, kString, kChar, kRawString, kLineComment, kBlockComment };
  State state = State::kCode;
  std::string raw_delim;  // the )delim" terminator of an active raw string

  const size_t n = content.size();
  for (size_t i = 0; i < n; ++i) {
    const char c = content[i];
    const char next = i + 1 < n ? content[i + 1] : '\0';
    if (c == '\n') {
      // Line comments end at the newline; every other state carries over.
      if (state == State::kLineComment) state = State::kCode;
      lines.emplace_back();
      continue;
    }
    LineInfo& line = lines.back();
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (line.code.empty() ||
                    (!std::isalnum(static_cast<unsigned char>(line.code.back())) &&
                     line.code.back() != '_'))) {
          // R"delim( — capture the delimiter so we know the terminator.
          size_t j = i + 2;
          std::string delim;
          while (j < n && content[j] != '(' && content[j] != '\n') {
            delim += content[j++];
          }
          if (j < n && content[j] == '(') {
            raw_delim = ")" + delim + "\"";
            state = State::kRawString;
            line.code += "\"";
            i = j;
          } else {
            line.code += c;  // not actually a raw string
          }
        } else if (c == '"') {
          state = State::kString;
          line.code += c;
        } else if (c == '\'') {
          state = State::kChar;
          line.code += c;
        } else {
          line.code += c;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;  // skip the escaped character (even across a quote)
        } else if (c == '"') {
          state = State::kCode;
          line.code += c;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          line.code += c;
        }
        break;
      case State::kRawString:
        if (c == raw_delim[0] && content.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          state = State::kCode;
          line.code += "\"";
        }
        break;
      case State::kLineComment:
        line.comment += c;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else {
          line.comment += c;
        }
        break;
    }
  }
  return lines;
}

bool PathHas(const std::string& path, const std::string& fragment) {
  return path.find(fragment) != std::string::npos;
}

bool StartsWith(const std::string& path, const std::string& prefix) {
  return path.rfind(prefix, 0) == 0;
}

/// The trees the path-scoped rules cover: the product (src/) and the
/// ablation substrate beside it (lab/), which mirrors src/'s layout.
bool InLibraryTree(const std::string& path) {
  return PathHas(path, "src/") || StartsWith(path, "lab/") || PathHas(path, "/lab/");
}

bool IsHeader(const std::string& path) {
  return path.size() >= 2 && path.compare(path.size() - 2, 2, ".h") == 0;
}

/// True when `token` occurs in `code` as a complete token: neither neighbor
/// is an identifier character, so `my_system_clock` and `system_clocks`
/// never match, while qualified uses (`std::chrono::system_clock`) do.
bool HasToken(const std::string& code, const std::string& token) {
  size_t pos = 0;
  while ((pos = code.find(token, pos)) != std::string::npos) {
    const char before = pos == 0 ? '\0' : code[pos - 1];
    const size_t end = pos + token.size();
    const char after = end < code.size() ? code[end] : '\0';
    const auto ident = [](char ch) {
      return std::isalnum(static_cast<unsigned char>(ch)) || ch == '_';
    };
    if (!ident(before) && !ident(after)) return true;
    pos = end;
  }
  return false;
}

bool ContainsCaseInsensitive(const std::string& haystack, const std::string& needle) {
  auto it = std::search(haystack.begin(), haystack.end(), needle.begin(), needle.end(),
                        [](char a, char b) {
                          return std::tolower(static_cast<unsigned char>(a)) ==
                                 std::tolower(static_cast<unsigned char>(b));
                        });
  return it != haystack.end();
}

/// The suppression marker for `rule`, honored on the finding's line or the
/// line directly above it.
bool Suppressed(const std::vector<LineInfo>& lines, size_t idx, const std::string& rule) {
  const std::string marker = "piye-lint: allow(" + rule + ")";
  if (lines[idx].comment.find(marker) != std::string::npos) return true;
  return idx > 0 && lines[idx - 1].comment.find(marker) != std::string::npos;
}

/// `#include <name>` / `#include "name"` on a (comment-stripped) line, or
/// empty when the line is not an include.
std::string IncludeTarget(const std::string& code) {
  size_t pos = code.find('#');
  if (pos == std::string::npos) return "";
  ++pos;
  while (pos < code.size() && std::isspace(static_cast<unsigned char>(code[pos]))) ++pos;
  if (code.compare(pos, 7, "include") != 0) return "";
  pos += 7;
  while (pos < code.size() && std::isspace(static_cast<unsigned char>(code[pos]))) ++pos;
  if (pos >= code.size()) return "";
  const char open = code[pos];
  const char close = open == '<' ? '>' : open == '"' ? '"' : '\0';
  if (close == '\0') return "";
  const size_t end = code.find(close, pos + 1);
  if (end == std::string::npos) return "";
  return code.substr(pos + 1, end - pos - 1);
}

using Emit = std::vector<Finding>&;

void AddFinding(Emit out, const std::string& file, size_t idx, const std::string& rule,
                const std::string& message) {
  out.push_back(Finding{file, idx + 1, rule, message});
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// raw-sync: the annotated wrappers in common/sync.h are the only
/// synchronization primitives; using std's directly bypasses the
/// thread-safety analysis entirely.
void CheckRawSync(const std::string& path, const std::vector<LineInfo>& lines, Emit out) {
  static const char* kRule = "raw-sync";
  if (PathHas(path, "common/sync.h")) return;
  static const std::vector<std::string> kBanned = {
      "std::mutex",         "std::timed_mutex",       "std::recursive_mutex",
      "std::shared_mutex",  "std::shared_timed_mutex", "std::condition_variable",
      "std::condition_variable_any", "std::lock_guard", "std::unique_lock",
      "std::shared_lock",   "std::scoped_lock"};
  for (size_t i = 0; i < lines.size(); ++i) {
    for (const auto& token : kBanned) {
      if (HasToken(lines[i].code, token) && !Suppressed(lines, i, kRule)) {
        AddFinding(out, path, i, kRule,
                   token + " outside common/sync.h; use the annotated piye::Mutex/"
                           "MutexLock/CondVar wrappers so the thread-safety "
                           "analysis sees the lock");
        break;  // one finding per line is enough
      }
    }
  }
}

/// raw-thread: thread ownership is concentrated in the executor; anything
/// else spawning threads must say so explicitly with a suppression (the net
/// reader/handler threads do).
void CheckRawThread(const std::string& path, const std::vector<LineInfo>& lines, Emit out) {
  static const char* kRule = "raw-thread";
  if (PathHas(path, "common/sync.h") || PathHas(path, "common/executor.")) return;
  static const std::vector<std::string> kBanned = {"std::thread", "std::jthread",
                                                   "pthread_create"};
  for (size_t i = 0; i < lines.size(); ++i) {
    for (const auto& token : kBanned) {
      if (HasToken(lines[i].code, token) && !Suppressed(lines, i, kRule)) {
        AddFinding(out, path, i, kRule,
                   token + " outside common/executor; submit work to the pool, or "
                           "suppress with a comment explaining who joins the thread");
        break;
      }
    }
  }
}

/// wall-clock: scheduling on system_clock breaks under NTP adjustment —
/// deadlines, backoff and spans all use steady_clock (PR 1 converted the
/// stragglers; this keeps them out).
void CheckWallClock(const std::string& path, const std::vector<LineInfo>& lines, Emit out) {
  static const char* kRule = "wall-clock";
  for (size_t i = 0; i < lines.size(); ++i) {
    if (HasToken(lines[i].code, "system_clock") && !Suppressed(lines, i, kRule)) {
      AddFinding(out, path, i, kRule,
                 "system_clock in a scheduling/timing path; use "
                 "std::chrono::steady_clock (wall time moves under NTP)");
    }
  }
}

/// privacy-retry: a privacy refusal is a *verdict*, not a transient fault.
/// Retrying it hammers the auditor with the same disclosure request and, for
/// randomized defenses, hands the attacker fresh noise draws to average.
void CheckPrivacyRetry(const std::string& path, const std::vector<LineInfo>& lines, Emit out) {
  static const char* kRule = "privacy-retry";
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    const bool privacy =
        HasToken(code, "kPrivacyViolation") || HasToken(code, "IsPrivacyViolation");
    if (!privacy) continue;
    const bool retryish = ContainsCaseInsensitive(code, "retry") ||
                          ContainsCaseInsensitive(code, "attempt") ||
                          ContainsCaseInsensitive(code, "backoff");
    if (retryish && !Suppressed(lines, i, kRule)) {
      AddFinding(out, path, i, kRule,
                 "retry logic keyed on a privacy violation; privacy refusals are "
                 "final verdicts and must never be retried");
    }
  }
}

/// serialization-boundary: record tables become bytes (the binary table
/// codec) or come in from record XML only at the blessed seams, so every
/// raw-record byte stream is policy-checked and perturbation-tagged before
/// it exists. A PIQL query is decoded from its canonical key only where one
/// arrives off the wire (the source server), besides the codec itself.
void CheckSerializationBoundary(const std::string& path, const std::vector<LineInfo>& lines,
                                Emit out) {
  static const char* kRule = "serialization-boundary";
  struct Seam {
    std::string token;
    std::vector<std::string> blessed;  ///< path fragments allowed to use it
  };
  static const std::vector<std::string> kRecordSeams = {
      "relational/table_codec", "relational/xml_bridge",
      "source/remote_source.cc", "mediator/persistence.cc", "net/wire.cc"};
  static const std::vector<Seam> kSeams = {
      {"EncodeTable", kRecordSeams},
      {"DecodeTable", kRecordSeams},
      {"TableFromXmlRecords", kRecordSeams},
      {"PiqlQuery::Decode", {"source/piql.cc", "net/server.cc"}},
  };
  for (size_t i = 0; i < lines.size(); ++i) {
    for (const auto& seam : kSeams) {
      if (!HasToken(lines[i].code, seam.token)) continue;
      const bool blessed =
          std::any_of(seam.blessed.begin(), seam.blessed.end(),
                      [&path](const std::string& prefix) { return PathHas(path, prefix); });
      if (!blessed && !Suppressed(lines, i, kRule)) {
        AddFinding(out, path, i, kRule,
                   seam.token + " outside its blessed serialization seams; raw records "
                                "must only (de)materialize where policy tagging is "
                                "applied, and PIQL keys are decoded only off the wire");
        break;
      }
    }
  }
}

/// piql-text: past the requester's front door a PIQL query travels only as
/// its binary canonical key (wire, history, warehouse, noise seed). Text
/// renderings and re-parses stay at the edges: the XML library, the PIQL
/// module itself and the PrivateIye facade that reads the requester's XML.
void CheckPiqlText(const std::string& path, const std::vector<LineInfo>& lines, Emit out) {
  static const char* kRule = "piql-text";
  if (!InLibraryTree(path)) return;
  if (PathHas(path, "src/xml/") || PathHas(path, "src/source/piql.cc") ||
      PathHas(path, "src/core/private_iye.cc")) {
    return;
  }
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    const bool text = HasToken(code, "xml::Serialize") ||
                      HasToken(code, "PiqlQuery::Parse") ||
                      code.find(".ToXml(") != std::string::npos ||
                      code.find("->ToXml(") != std::string::npos;
    if (text && !Suppressed(lines, i, kRule)) {
      AddFinding(out, path, i, kRule,
                 "XML rendering or PIQL re-parse on the query path; carry the "
                 "query as PiqlQuery::CanonicalKey and read it with "
                 "PiqlQuery::Decode");
    }
  }
}

/// status-discard: `(void)call()` swallows a [[nodiscard]] Status/Result.
/// Sometimes that is right (already-failing teardown paths) — but then the
/// line must say why. A comment on the line, on the line above, or heading a
/// contiguous block of discards counts as the justification.
void CheckStatusDiscard(const std::string& path, const std::vector<LineInfo>& lines, Emit out) {
  static const char* kRule = "status-discard";
  bool prev_was_justified_discard = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    const size_t pos = code.find("(void)");
    if (pos == std::string::npos) {
      // Blank separator lines do not break a justified block; code does.
      if (!code.empty() &&
          code.find_first_not_of(" \t") != std::string::npos) {
        prev_was_justified_discard = false;
      }
      continue;
    }
    // `int f(void)` — a parameter list, not a discard.
    if (pos > 0 && (std::isalnum(static_cast<unsigned char>(code[pos - 1])) ||
                    code[pos - 1] == '_')) {
      continue;
    }
    // Walk the discarded expression: a plain `(void)identifier;` silences an
    // unused variable, which needs no justification; a `(` makes it a call.
    bool is_call = false;
    for (size_t j = pos + 6; j < code.size(); ++j) {
      const char c = code[j];
      if (c == '(') {
        is_call = true;
        break;
      }
      if (c == ';') break;
    }
    if (!is_call) continue;
    const bool justified = !lines[i].comment.empty() ||
                           (i > 0 && !lines[i - 1].comment.empty()) ||
                           prev_was_justified_discard;
    if (!justified && !Suppressed(lines, i, kRule)) {
      AddFinding(out, path, i, kRule,
                 "(void)-discarded call with no justification comment; say why "
                 "ignoring this Status is safe");
      prev_was_justified_discard = false;
    } else {
      prev_was_justified_discard = true;
    }
  }
}

/// header-hygiene: headers must not leak iostream (code size, init-order
/// fiascos) nor the raw threading headers the sync/executor wrappers exist
/// to encapsulate.
void CheckHeaderHygiene(const std::string& path, const std::vector<LineInfo>& lines, Emit out) {
  static const char* kRule = "header-hygiene";
  if (!IsHeader(path)) return;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string target = IncludeTarget(lines[i].code);
    if (target.empty()) continue;
    std::string why;
    if (target == "iostream") {
      why = "<iostream> in a header drags stream globals into every TU; "
            "include it in the .cc that actually prints";
    } else if ((target == "mutex" || target == "shared_mutex" ||
                target == "condition_variable") &&
               !PathHas(path, "common/sync.h")) {
      why = "<" + target + "> in a header outside common/sync.h; use the "
            "annotated wrappers from common/sync.h";
    } else if (target == "thread" && !PathHas(path, "common/executor.h") &&
               !PathHas(path, "common/sync.h")) {
      why = "<thread> in a header outside common/executor.h; threads are owned "
            "by the executor (suppress if this type legitimately owns one)";
    }
    if (!why.empty() && !Suppressed(lines, i, kRule)) {
      AddFinding(out, path, i, kRule, why);
    }
  }
}

/// analysis-escape: NO_THREAD_SAFETY_ANALYSIS outside sync.h would let code
/// opt out of the proof the whole tentpole exists to provide. This enforces
/// the acceptance criterion directly.
void CheckAnalysisEscape(const std::string& path, const std::vector<LineInfo>& lines, Emit out) {
  static const char* kRule = "analysis-escape";
  if (PathHas(path, "common/sync.h")) return;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (HasToken(lines[i].code, "NO_THREAD_SAFETY_ANALYSIS") &&
        !Suppressed(lines, i, kRule)) {
      AddFinding(out, path, i, kRule,
                 "NO_THREAD_SAFETY_ANALYSIS outside common/sync.h; there is no "
                 "escape hatch in application code — fix the annotation instead");
    }
  }
}

/// row-loop: the product tree reads tables column by column; materializing
/// Rows reintroduces the per-cell variant churn the columnar rebuild removed
/// (and, for dense write-backs, the NULL-misalignment bug class). Flags row
/// iteration and every `.row(` / `->row(` member call anywhere under src/
/// and lab/.
/// `Table` has no row accessor, and the rule keeps it that way.
/// relational/table.* is exempt as the owner of the row-append boundary
/// (`AppendRow`); the row-engine reference (`rowref::RowAt`) lives in the
/// test tree, outside the scanned paths.
void CheckRowLoop(const std::string& path, const std::vector<LineInfo>& lines, Emit out) {
  static const char* kRule = "row-loop";
  if (!InLibraryTree(path)) return;
  if (PathHas(path, "relational/table.")) return;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    // ".rows()" / "->rows()" but not "num_rows()": the char before "rows()"
    // must not be part of an identifier.
    bool rows_call = false;
    for (size_t p = code.find("rows()"); p != std::string::npos;
         p = code.find("rows()", p + 1)) {
      if (p == 0) continue;  // a bare "rows()" is not a member call
      const char before = code[p - 1];
      if (!(std::isalnum(static_cast<unsigned char>(before)) || before == '_')) {
        rows_call = true;
        break;
      }
    }
    const bool row_call = code.find(".row(") != std::string::npos ||
                          code.find("->row(") != std::string::npos;
    const bool row_iteration =
        row_call || HasToken(code, "mutable_rows") ||
        (HasToken(code, "for") &&
         (rows_call || code.find("Row&") != std::string::npos));
    if (row_iteration && !Suppressed(lines, i, kRule)) {
      AddFinding(out, path, i, kRule,
                 "row-at-a-time access in the product tree; read the column's "
                 "typed buffer (Table::col / MutableColumn) instead");
    }
  }
}

/// manual-snapshot: snapshot rotation is owned by the background
/// snapshotter (and the engine's recovery fold-in). Anything else calling
/// the StateLog rotation surface directly races the snapshotter's dirty
/// tracking, skips the fail-closed latch, and breaks the KillPoint
/// accounting — request a snapshot through
/// MediationEngine::TriggerSnapshot instead.
void CheckManualSnapshot(const std::string& path, const std::vector<LineInfo>& lines,
                         Emit out) {
  static const char* kRule = "manual-snapshot";
  if (PathHas(path, "persist/state_log.") || PathHas(path, "persist/snapshotter.") ||
      PathHas(path, "mediator/engine.")) {
    return;
  }
  static const std::vector<std::string> kBanned = {
      "Rotate", "RotateSnapshotLocked", "RotateSnapshotBackground"};
  for (size_t i = 0; i < lines.size(); ++i) {
    for (const auto& token : kBanned) {
      if (HasToken(lines[i].code, token) && !Suppressed(lines, i, kRule)) {
        AddFinding(out, path, i, kRule,
                   token + " outside the snapshotter/engine rotation seam; "
                           "request snapshots via MediationEngine::TriggerSnapshot "
                           "so dirty-floor tracking and the fail-closed latch stay "
                           "correct");
        break;
      }
    }
  }
}

struct Rule {
  const char* name;
  const char* description;
  void (*check)(const std::string&, const std::vector<LineInfo>&, Emit);
};

const std::vector<Rule>& Rules() {
  static const std::vector<Rule> kRules = {
      {"raw-sync",
       "std sync primitives outside common/sync.h (bypass the annotated wrappers)",
       CheckRawSync},
      {"raw-thread",
       "std::thread/pthread_create outside common/executor (unmanaged threads)",
       CheckRawThread},
      {"wall-clock", "system_clock in timing paths (use steady_clock)",
       CheckWallClock},
      {"privacy-retry",
       "retry logic keyed on kPrivacyViolation (privacy refusals are final)",
       CheckPrivacyRetry},
      {"serialization-boundary",
       "record (de)serialization outside the blessed policy-tagged seams",
       CheckSerializationBoundary},
      {"status-discard",
       "(void)-discarded Status/Result call without a justification comment",
       CheckStatusDiscard},
      {"header-hygiene",
       "banned includes in headers (iostream, raw sync/thread headers)",
       CheckHeaderHygiene},
      {"analysis-escape",
       "NO_THREAD_SAFETY_ANALYSIS outside common/sync.h (no opt-outs)",
       CheckAnalysisEscape},
      {"row-loop",
       "row-at-a-time iteration or Table::row calls anywhere in src/ or lab/ "
       "outside the row shim (relational/table.*)",
       CheckRowLoop},
      {"manual-snapshot",
       "StateLog rotation calls outside the snapshotter/engine seam (bypass "
       "dirty-floor tracking and the fail-closed latch)",
       CheckManualSnapshot},
      {"piql-text",
       "xml::Serialize, ToXml() or PiqlQuery::Parse calls in src/ or lab/ "
       "outside the requester edge (src/xml/, source/piql.cc, "
       "core/private_iye.cc)",
       CheckPiqlText},
  };
  return kRules;
}

/// The `#include "..."` targets of a file with their 1-based lines; an
/// include inside a comment does not count.
std::vector<std::pair<size_t, std::string>> QuotedIncludes(const std::string& content) {
  const std::vector<LineInfo> lines = SplitLines(content);
  std::vector<std::pair<size_t, std::string>> out;
  size_t begin = 0;
  for (size_t i = 0; i < lines.size() && begin <= content.size(); ++i) {
    size_t end = content.find('\n', begin);
    if (end == std::string::npos) end = content.size();
    const std::string raw = content.substr(begin, end - begin);
    begin = end + 1;
    // String literals are blanked in `code`, so the target comes from `raw`.
    const std::string& code = lines[i].code;
    const size_t hash = code.find_first_not_of(" \t");
    if (hash == std::string::npos || code[hash] != '#') continue;
    const size_t kw = code.find_first_not_of(" \t", hash + 1);
    if (kw == std::string::npos || code.compare(kw, 7, "include") != 0) continue;
    const size_t open = raw.find('"');
    const size_t close = open == std::string::npos ? open : raw.find('"', open + 1);
    if (close == std::string::npos) continue;
    out.emplace_back(i + 1, raw.substr(open + 1, close - open - 1));
  }
  return out;
}

bool IsProductRoot(const std::string& path) {
  if (StartsWith(path, "src/mediator/") || StartsWith(path, "src/net/")) return true;
  if (path == "src/core/private_iye.h" || path == "src/core/private_iye.cc") return true;
  if (path == "tools/source_server.cc") return true;
  return StartsWith(path, "perfbench/") && path.find('/', 10) == std::string::npos &&
         path.size() > 3 && path.compare(path.size() - 3, 3, ".cc") == 0;
}

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

const std::vector<std::string>& RuleNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const auto& rule : Rules()) names.push_back(rule.name);
    return names;
  }();
  return kNames;
}

std::string RuleDescription(const std::string& rule) {
  for (const auto& r : Rules()) {
    if (rule == r.name) return r.description;
  }
  return "";
}

std::vector<Finding> RunLint(const std::vector<FileContent>& files) {
  std::vector<Finding> findings;
  for (const auto& file : files) {
    const std::vector<LineInfo> lines = SplitLines(file.content);
    for (const auto& rule : Rules()) {
      rule.check(file.path, lines, findings);
    }
  }
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return findings;
}

std::vector<Finding> CheckProductClosure(const std::vector<FileContent>& files) {
  std::map<std::string, const FileContent*> by_path;
  for (const auto& file : files) by_path[file.path] = &file;
  const auto resolve = [&by_path](const std::string& from, const std::string& name) {
    const size_t slash = from.rfind('/');
    const std::string dir = slash == std::string::npos ? "" : from.substr(0, slash + 1);
    for (const std::string& base : {dir, std::string("src/"), std::string("lab/")}) {
      std::string path = base + name;
      if (by_path.count(path) > 0) return path;
    }
    return std::string();
  };

  std::vector<Finding> findings;
  std::vector<std::string> pending;
  for (const auto& file : files) {
    if (IsProductRoot(file.path)) pending.push_back(file.path);
    if (!StartsWith(file.path, "src/") && !StartsWith(file.path, "tools/")) continue;
    for (const auto& [line, name] : QuotedIncludes(file.content)) {
      const std::string target = resolve(file.path, name);
      if (StartsWith(target, "lab/")) {
        findings.push_back({file.path, line, "lab-include",
                            "includes the lab/ header '" + target +
                                "'; lab/ is linked only by tests/, bench/ and "
                                "examples/"});
      }
    }
  }
  if (pending.empty()) {
    findings.push_back({"", 0, "product-closure", "no product root among the files"});
    return findings;
  }

  std::set<std::string> reached;
  while (!pending.empty()) {
    const std::string path = std::move(pending.back());
    pending.pop_back();
    if (!reached.insert(path).second) continue;
    for (const auto& [line, name] : QuotedIncludes(by_path.at(path)->content)) {
      const std::string target = resolve(path, name);
      if (!target.empty() && !StartsWith(target, "lab/")) pending.push_back(target);
    }
    if (IsHeader(path)) {
      const std::string impl = path.substr(0, path.size() - 2) + ".cc";
      if (by_path.count(impl) > 0) pending.push_back(impl);
    }
  }
  for (const auto& file : files) {
    if (StartsWith(file.path, "src/") && reached.count(file.path) == 0) {
      findings.push_back({file.path, 1, "product-closure",
                          "reached by no #include chain from a product root; "
                          "delete it, or move it to lab/ if only tests, "
                          "benches or examples use it"});
    }
  }
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return a.file != b.file ? a.file < b.file : a.line < b.line;
  });
  return findings;
}

std::string FindingsToJson(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "{\"count\": " << findings.size() << ", \"findings\": [";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i > 0) out << ", ";
    out << "{\"file\": \"" << JsonEscape(f.file) << "\", \"line\": " << f.line
        << ", \"rule\": \"" << JsonEscape(f.rule) << "\", \"message\": \""
        << JsonEscape(f.message) << "\"}";
  }
  out << "]}";
  return out.str();
}

}  // namespace lint
}  // namespace piye
