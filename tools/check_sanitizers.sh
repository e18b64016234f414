#!/usr/bin/env bash
# Configure, build, and run the tier-1 test suite under ThreadSanitizer and
# AddressSanitizer(+UBSan). Part of the tier-1 verify loop (see README.md):
# the multi-threaded estimator hammer tests in parallel_query_test are only
# a real race detector under TSan, and the fault-injection sweep
# (fault_injection_test) only proves its "never abort, never leak" claim when
# every injected-fault error path also runs clean under ASan+UBSan.
#
# Usage:
#   tools/check_sanitizers.sh              # both sanitizers, full suite
#   tools/check_sanitizers.sh tsan         # one sanitizer only
#   tools/check_sanitizers.sh faults       # both sanitizers, fault sweep only
#   tools/check_sanitizers.sh obs          # both sanitizers, obs + query hammer
#   tools/check_sanitizers.sh kernels      # both sanitizers, query kernels + cache
#   tools/check_sanitizers.sh sharded      # both sanitizers, sharded build + streaming
#   tools/check_sanitizers.sh scaling      # both sanitizers, sharded cache + parallel path
#   tools/check_sanitizers.sh chaos        # both sanitizers, dist serving + chaos sweep
#   tools/check_sanitizers.sh slo          # both sanitizers, SLO + flight recorder + tracing
#   tools/check_sanitizers.sh arena        # both sanitizers, memory substrate + its hot users
#   tools/check_sanitizers.sh serve        # both sanitizers, serving layer + swap chaos
#   tools/check_sanitizers.sh tsan -R parallel_query_test
#                                          # extra args passed to ctest
set -euo pipefail

cd "$(dirname "$0")/.."

presets=(tsan asan)
extra=()
if [[ $# -ge 1 ]]; then
  case "$1" in
    tsan|asan)
      presets=("$1")
      shift
      ;;
    faults)
      # The fault sweep drives every retry/abort/reclaim path in the storage
      # layer; running it under both sanitizers is the cheap smoke check.
      extra=(-R fault_injection_test)
      shift
      ;;
    obs)
      # The observability smoke check: obs_test's ThreadPool hammer proves
      # the relaxed-atomic metric mutation and per-thread trace rings are
      # race-free, and parallel_query_test proves instrumented hot paths
      # stay bit-deterministic while many shards record concurrently.
      extra=(-R '^(obs_test|parallel_query_test)$')
      shift
      ;;
    kernels)
      # The query-kernel smoke check: query_kernels_test pins the kernel
      # paths to the scalar reference (and exercises cache eviction), while
      # parallel_query_test's tiny-capacity cache hammer makes concurrent
      # insert/evict/lease races visible to TSan and use-after-evict
      # visible to ASan.
      extra=(-R '^(query_kernels_test|parallel_query_test)$')
      shift
      ;;
    scaling)
      # The de-contended query-path smoke check: query_scaling_test's
      # sharded-cache hammer drives the probe-outside-lock hit path, compute-outside-
      # lock misses, race-lost inserts, and copy-and-publish eviction under
      # TSan (the throughput gate itself self-skips under sanitizers), and
      # parallel_query_test proves the batched evaluation and per-thread
      # histogram shards stay bit-deterministic while contended.
      extra=(-R '^(query_scaling_test|parallel_query_test)$')
      shift
      ;;
    sharded)
      # The shard-parallel build smoke check: sharded_anatomizer_test runs
      # per-shard Anatomizers concurrently on the ThreadPool (the byte-
      # identity-across-thread-counts tests only prove race freedom under
      # TSan), and streaming_test's plan-then-commit Finish / flush-window
      # error paths must leave no leaks or UB behind under ASan+UBSan.
      extra=(-R '^(sharded_anatomizer_test|streaming_test)$')
      shift
      ;;
    chaos)
      # The distributed-serving smoke check: dist_test drives scatter-gather
      # (hedges, retries, honest partials) and every swap kill point, and
      # chaos_test's fault × kill × seed sweep exercises the recovery and
      # orphan-sweep error paths — all of which must run clean under
      # ASan+UBSan. The shard-parallel publish inside each scenario and the
      # estimator's concurrent node computes (also driven end to end by
      # bench_serve_smoke's open-loop traffic) give TSan real concurrency.
      extra=(-R '^(dist_test|chaos_test|bench_serve_smoke)$')
      shift
      ;;
    slo)
      # The observability-pipeline smoke check: slo_test's burn-rate windows
      # read live histogram snapshots, flightrec_test hammers the per-thread
      # flight rings from the ThreadPool, obs_test races trace export
      # against concurrent recording, and chaos_test proves every degraded
      # response is explained by a recorder event while the whole sweep runs
      # under the sanitizer.
      extra=(-R '^(slo_test|flightrec_test|obs_test|chaos_test)$')
      shift
      ;;
    arena)
      # The memory-substrate smoke check: arena_test's 8-thread hammer gives
      # TSan the concurrent alloc/free traffic and its poison-on-free death
      # test only fires under ASan (it self-skips elsewhere);
      # query_kernels_test and sharded_anatomizer_test run the arena-on/off
      # bit-identity sweeps over the migrated hot structures.
      extra=(-R '^(arena_test|query_kernels_test|sharded_anatomizer_test)$')
      shift
      ;;
    serve)
      # The serving-layer smoke check: serve_test covers tenant denials,
      # epoch-swap bit-identity, and the COW swap under open-loop load
      # (the swap's shard-parallel rebuild gives TSan real concurrency),
      # and chaos_test keeps the underlying two-phase swap honest under
      # every kill point while ASan+UBSan watch the recovery error paths.
      extra=(-R '^(serve_test|chaos_test)$')
      shift
      ;;
  esac
fi

jobs="$(nproc 2>/dev/null || echo 2)"

for preset in "${presets[@]}"; do
  echo "==== [${preset}] configure ===="
  cmake --preset "${preset}"
  echo "==== [${preset}] build ===="
  cmake --build --preset "${preset}" -j "${jobs}"
  echo "==== [${preset}] ctest ===="
  ctest --preset "${preset}" -j "${jobs}" "${extra[@]}" "$@"
  echo "==== [${preset}] OK ===="
done

echo "All sanitizer runs passed: ${presets[*]}"
