#!/usr/bin/env bash
# The repo's CI entry point: a warning-free (-Werror) release-ish build with
# the full test suite, then an explicit multi-process federation leg (real
# source_server processes over Unix sockets), then a no-execution static
# analysis leg (piye_lint over src/ and lab/, the product-closure check, and
# clang thread-safety analysis when a clang toolchain is present), then the same suite under AddressSanitizer
# (PIYE_SANITIZE=address), then the concurrency suites under ThreadSanitizer
# (PIYE_SANITIZE=thread), then the parser/overload suites under UBSan
# (PIYE_SANITIZE=undefined), then the columnar hot-path gate
# (bench_fig2_pipeline --quick: speedup + value-identity against the row
# reference engine and the display-string dedup reference), then a
# scaled-down bounded-state soak (crash matrix
# against the counting oracle with RSS and recovery-time ceilings). The
# analysis leg runs before the sanitizer legs
# on purpose: it needs no test execution, so a lock-discipline or
# invariant violation fails CI in seconds instead of after three sanitizer
# builds. The ASan leg matters for the durability layer — the WAL/recovery
# code paths shuffle raw buffers and file descriptors, exactly where ASan
# earns its keep. The TSan leg guards the lock-based hot paths: the sharded
# warehouse, the engine's single-flight coalescing and fragment fan-out, the
# admission pipeline and chaos/soak harness, the metrics registry's cells,
# and the net client's reader/demux threads against the server's
# accept/worker threads. The UBSan leg covers the arithmetic-heavy
# admission/backoff code, the XML parser's malformed-input fuzz loop, and
# the wire-frame decoder's bounds arithmetic driven by the bit-flip fuzz
# suite. Usage:
#
#   scripts/ci.sh              # everything
#   PIYE_CI_SKIP_NET=1 scripts/ci.sh      # skip the multi-process leg (and
#                                         # the spawning cluster test)
#   PIYE_CI_SKIP_ANALYSIS=1 scripts/ci.sh # skip the static-analysis leg
#   PIYE_CI_SKIP_ASAN=1 scripts/ci.sh     # skip the ASan leg
#   PIYE_CI_SKIP_TSAN=1 scripts/ci.sh     # skip the TSan leg
#   PIYE_CI_SKIP_UBSAN=1 scripts/ci.sh    # skip the UBSan leg
#   PIYE_CI_SKIP_BENCH=1 scripts/ci.sh    # skip the columnar hot-path gate
#   PIYE_CI_SKIP_SOAK=1 scripts/ci.sh     # skip the bounded-state soak gate
#
# Exits non-zero on any build failure, compiler warning, test failure,
# lint finding, thread-safety violation, or sanitizer report.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc)"

# With the net leg opted out, the cluster test (which fork/execs server
# processes) is excluded everywhere; the pure in-process net_test still runs.
CTEST_EXCLUDE=()
if [[ "${PIYE_CI_SKIP_NET:-0}" == "1" ]]; then
  CTEST_EXCLUDE=(-E '^net_cluster_test$')
fi

echo "=== [1/8] build (warning-free: -Werror) + test ==="
cmake -B "$ROOT/build" -S "$ROOT" -DPIYE_WERROR=ON
cmake --build "$ROOT/build" -j "$JOBS"
ctest --test-dir "$ROOT/build" --output-on-failure -j "$JOBS" \
  "${CTEST_EXCLUDE[@]}"

if [[ "${PIYE_CI_SKIP_NET:-0}" == "1" ]]; then
  echo "=== [2/8] multi-process federation leg skipped (PIYE_CI_SKIP_NET=1) ==="
else
  echo "=== [2/8] multi-process federation: source servers over UDS ==="
  # Builds the server binary and drives a mediation engine against three
  # real source_server processes: byte-identity with the in-process path,
  # SIGKILL degradation to quorum, breaker reopen after restart, graceful
  # drain. Run serially — the suite forks, kills, and reaps processes.
  cmake --build "$ROOT/build" -j "$JOBS" --target source_server net_cluster_test
  ctest --test-dir "$ROOT/build" --output-on-failure -R '^net_cluster_test$'
fi

if [[ "${PIYE_CI_SKIP_ANALYSIS:-0}" == "1" ]]; then
  echo "=== [3/8] static analysis leg skipped (PIYE_CI_SKIP_ANALYSIS=1) ==="
else
  echo "=== [3/8] static analysis: piye_lint + clang thread-safety ==="
  # piye_lint: repo-specific structural rules (raw sync primitives, analysis
  # escape hatches, privacy-retry, serialization boundaries, status
  # discards, header hygiene — see tools/lint/lint.h) over the product (src/)
  # and the ablation library (lab/). Any finding fails CI; the JSON report is
  # archived next to the build for tooling. The closure check then requires
  # every src/ file to be reached by #include from a product root and no
  # src/ or tools/ file to include lab/ (no exception list).
  cmake --build "$ROOT/build" -j "$JOBS" --target piye_lint
  "$ROOT/build/tools/piye_lint" "$ROOT/src" "$ROOT/lab"
  "$ROOT/build/tools/piye_lint" --json "$ROOT/src" "$ROOT/lab" \
    > "$ROOT/build/piye_lint_report.json"
  "$ROOT/build/tools/piye_lint" --closure "$ROOT"

  # Clang thread-safety analysis: a compile-only pass with the capability
  # annotations from common/sync.h enforced as errors, proving every
  # GUARDED_BY field is only touched with its lock held. Requires a clang
  # frontend; on a gcc-only runner this half is skipped (the annotations
  # compile away there) and piye_lint above still gates the leg.
  if command -v clang++ >/dev/null 2>&1; then
    cmake -B "$ROOT/build-analysis" -S "$ROOT" \
      -DCMAKE_CXX_COMPILER=clang++ -DPIYE_THREAD_SAFETY=ON
    cmake --build "$ROOT/build-analysis" -j "$JOBS"
  else
    echo "clang++ not found: thread-safety analysis half skipped" \
         "(piye_lint still enforced; annotations are no-ops on this toolchain)"
  fi
fi

if [[ "${PIYE_CI_SKIP_ASAN:-0}" == "1" ]]; then
  echo "=== [4/8] ASan leg skipped (PIYE_CI_SKIP_ASAN=1) ==="
else
  echo "=== [4/8] AddressSanitizer build + test ==="
  # halt_on_error makes a sanitizer report fail the test that produced it;
  # leak detection stays off to match scripts/sanitize.sh (ptrace is often
  # unavailable in CI containers).
  export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1 detect_leaks=0}"
  cmake -B "$ROOT/build-addresssan" -S "$ROOT" -DPIYE_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$ROOT/build-addresssan" -j "$JOBS"
  ctest --test-dir "$ROOT/build-addresssan" --output-on-failure -j "$JOBS" \
    "${CTEST_EXCLUDE[@]}"
fi

if [[ "${PIYE_CI_SKIP_TSAN:-0}" == "1" ]]; then
  echo "=== [5/8] TSan leg skipped (PIYE_CI_SKIP_TSAN=1) ==="
else
  echo "=== [5/8] ThreadSanitizer build + concurrency suites ==="
  # The TSan leg runs the suites that exercise real lock/atomic contention:
  # the sharded warehouse + single-flight scale suite, the engine fan-out
  # suite, the admission/cancellation suite and chaos/soak harness, the
  # crash/recovery suite (durable journaling under Execute), and the net
  # suite (client reader/writer threads vs server accept/worker threads,
  # reconnect teardown races, window backpressure), plus the relational
  # suite so the copy-on-write column sharing (shared_ptr buffers cloned on
  # MutableColumn) is exercised under the race detector, the
  # bounded-state suite (background snapshotter racing live traffic, sharded
  # history fault-in, rotate kill points), and the source suite (the
  # per-generation effective-table snapshot and its lazily built indexes;
  # concurrency_test drives them from eight cold-start callers).
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
  cmake -B "$ROOT/build-threadsan" -S "$ROOT" -DPIYE_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$ROOT/build-threadsan" -j "$JOBS" --target \
    warehouse_scale_test concurrency_test recovery_test admission_test \
    chaos_soak_test net_test relational_test bounded_state_test source_test
  ctest --test-dir "$ROOT/build-threadsan" --output-on-failure -j "$JOBS" \
    -R '^(warehouse_scale_test|concurrency_test|recovery_test|admission_test|chaos_soak_test|net_test|relational_test|bounded_state_test|source_test)$'
fi

if [[ "${PIYE_CI_SKIP_UBSAN:-0}" == "1" ]]; then
  echo "=== [6/8] UBSan leg skipped (PIYE_CI_SKIP_UBSAN=1) ==="
else
  echo "=== [6/8] UndefinedBehaviorSanitizer build + parser/overload suites ==="
  # UBSan earns its keep where the arithmetic lives: token-bucket refill and
  # retry-after math, backoff shifting, the XML parser driven by the seeded
  # malformed-input fuzz loop, the wire-frame decoder under the bit-flip
  # and random-garbage fuzz tests, and the relational suite's differential
  # harness (validity-bitmap shifts, int64 overflow-checked SUM, typed
  # buffer reinterpretation in the columnar engine), and the property
  # suite's differential runs of the typed dedup kernel and the bulk column
  # gathers (word-assembled validity, shifted appends).
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"
  cmake -B "$ROOT/build-ubsan" -S "$ROOT" -DPIYE_SANITIZE=undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$ROOT/build-ubsan" -j "$JOBS" --target \
    xml_test admission_test chaos_soak_test common_test net_test \
    relational_test property_test
  ctest --test-dir "$ROOT/build-ubsan" --output-on-failure -j "$JOBS" \
    -R '^(xml_test|admission_test|chaos_soak_test|common_test|net_test|relational_test|property_test)$'
fi

if [[ "${PIYE_CI_SKIP_BENCH:-0}" == "1" ]]; then
  echo "=== [7/8] columnar hot-path gate skipped (PIYE_CI_SKIP_BENCH=1) ==="
else
  echo "=== [7/8] columnar hot-path gate: bench_fig2_pipeline --quick ==="
  # Times the vectorized engine against the row-at-a-time reference on the
  # aggregation and rank-swap hot paths, and the Result Integrator's typed
  # dedup against the display-string reference on three ~2k-row answers;
  # requires identical answers (integration: identical encoded bytes) and
  # fails unless each clears its speedup bar (aggregate 5x, rank-swap 1.2x,
  # integrate 3x). Catches both silent value drift and a perf regression
  # that would quietly undo the columnar rebuild.
  cmake --build "$ROOT/build" -j "$JOBS" --target bench_fig2_pipeline
  "$ROOT/build/bench/bench_fig2_pipeline" --quick
fi

if [[ "${PIYE_CI_SKIP_SOAK:-0}" == "1" ]]; then
  echo "=== [8/8] bounded-state soak skipped (PIYE_CI_SKIP_SOAK=1) ==="
else
  echo "=== [8/8] bounded-state soak: crash matrix vs oracle at 200k requesters ==="
  # A scaled-down run of the 1M-requester crash/soak matrix: randomized WAL
  # and rotation kills, byte-identical refusal decisions against the
  # counting oracle, bounded RSS (the resident set spills to durable budget
  # floors), and a recovery-time ceiling that tracks snapshot size rather
  # than uptime. The full-scale run is documented in EXPERIMENTS.md
  # (abl-bounded-state); this leg pins the invariants on every commit.
  cmake --build "$ROOT/build" -j "$JOBS" --target bounded_state_soak_test
  PIYE_SOAK_REQUESTERS="${PIYE_SOAK_REQUESTERS:-200000}" \
  PIYE_SOAK_RSS_MB="${PIYE_SOAK_RSS_MB:-600}" \
  PIYE_SOAK_RECOVERY_MS="${PIYE_SOAK_RECOVERY_MS:-5000}" \
    "$ROOT/build/tests/bounded_state_soak_test"
fi

echo "=== CI green ==="
