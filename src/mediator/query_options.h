#ifndef PIYE_MEDIATOR_QUERY_OPTIONS_H_
#define PIYE_MEDIATOR_QUERY_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/cancel.h"

namespace piye {
namespace mediator {

/// Per-query execution options for `MediationEngine::Execute` (and the
/// `PrivateIye::Query*` facades): everything a requester can tune about one
/// integrated query lives here, so adding a knob never grows a signature in
/// the call chain. Callers name what they set, e.g.
/// `Execute(query, {.dedup_keys = {"patient_id"}})`; every field carries a
/// default member initializer so such designated initializers stay
/// warning-free under -Wextra.
struct QueryOptions {
  /// Mediated attribute names used as the (plaintext, typed) duplicate
  /// elimination key (empty ⇒ whole-row distinct).
  std::vector<std::string> dedup_keys{};

  /// Overrides the requester identity carried inside the PIQL query when
  /// non-empty — for deployments where the transport authenticates the
  /// caller and the query text is not trusted to self-identify.
  std::string requester{};

  /// Per-source deadline in milliseconds, measured from fan-out start. A
  /// source that has not answered in time lands in `sources_skipped` with a
  /// DeadlineExceeded reason. 0 ⇒ no deadline; negative values and values
  /// above kMaxDeadlineMs are rejected with kInvalidArgument at the top of
  /// Execute.
  int64_t deadline_ms = 0;
  static constexpr int64_t kMaxDeadlineMs = CancelToken::kMaxTimeoutMs;

  /// Bounded retry for *transient* (kUnavailable) source failures, with
  /// exponential backoff between attempts. Privacy refusals are never
  /// retried — a policy decision is deterministic, not transient. Values
  /// above kMaxRetriesLimit are rejected with kInvalidArgument (a runaway
  /// retry count is an overload amplifier, not a resilience knob).
  uint32_t max_retries = 0;
  static constexpr uint32_t kMaxRetriesLimit = 64;

  /// Cooperative cancellation and whole-query deadline. Obtain a token from
  /// a `CancelSource` (and/or tighten it with `WithTimeout`); when it fires,
  /// admission rejects the query before dispatch (kDeadlineExceeded /
  /// kCancelled), a queued query leaves the admission queue, and an
  /// executing query stops its in-flight fragments cooperatively instead of
  /// letting them run to completion. A fired token never charges privacy
  /// budget for an unreleased answer. Default: never fires.
  CancelToken cancel{};

  /// Quorum: fail the whole query (kUnavailable) unless at least this many
  /// sources contributed answers. 0 or 1 ⇒ any non-empty answer set is
  /// accepted (the engine's original graceful-degradation behaviour).
  size_t min_sources = 0;

  /// Per-query opt-out from the materialized warehouse (both lookup and
  /// population) — for requesters that need a live answer, and for
  /// measurements of the live execution path.
  bool allow_warehouse = true;

  /// Dials every source without consulting its circuit breaker, even one
  /// the breaker has opened — for must-try emergency queries that prefer a
  /// slow failure over shedding. The bypassed fragments report nothing to
  /// the breakers, so they neither open nor close one.
  bool bypass_circuit_breaker = false;

  /// Single-flight coalescing: when, after a warehouse miss, an identical
  /// execution (same warehouse key — query, requester, dedup keys, quorum —
  /// and same options) is already in flight, join it and share its
  /// privacy-checked result instead of fanning out to the
  /// sources again — one federated execution, one history entry, one
  /// per-requester budget charge for the whole burst. Requests from
  /// *different* requesters never coalesce (their budgets are accounted
  /// separately), so this is budget-neutral by construction. Set false to
  /// force a private execution (e.g. when measuring source behaviour).
  bool coalesce = true;
};

}  // namespace mediator
}  // namespace piye

#endif  // PIYE_MEDIATOR_QUERY_OPTIONS_H_
