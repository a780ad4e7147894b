#!/usr/bin/env bash
# CI entry point: tier-1 verify, sanitizer jobs, and a bench smoke run.
#
# The ASan/UBSan suite is run TWICE on purpose: together with the sweep-
# budgeted (wall-clock-independent) annealing contract, two identical passes
# catch the class of bug where SA results silently depend on machine load or
# sanitizer slowdown.  The TSan config guards the runtime layer (thread
# pool + plan executor): runtime_test exercises 8-thread fork-joins and
# multi-backend races under instrumentation.
#
# The final stage runs every plain bench binary from the Release build in
# its --smoke configuration (fixed sweep budgets, so deterministic) with
# JSON rows written to build/bench-smoke/, and gates them against the
# committed BENCH_baseline.json with bench_diff.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"

echo "=== tier-1: configure + build + ctest (Release) ==="
cmake -B build -S .
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

echo "=== alsbench harness: build the frozen benchmark against this library ==="
# alsbench/ is frozen and calls the library by name (grep -oh 'als::[A-Za-z_:]*'
# alsbench/*).  Building it here catches a library rename that breaks the
# harness, which otherwise shows only as a failed benchmark run.
cmake -S alsbench -B build/alsbench
cmake --build build/alsbench -j "$JOBS"

echo "=== examples: run every Release example binary ==="
# The walkthroughs in examples/ are the only non-test callers of several
# one-shot placer and sizing entry points; each must run to completion
# (a nonzero exit fails CI).  Each takes well under a second in Release.
mkdir -p build/example-runs
for src in examples/*.cpp; do
  example="$(basename "$src" .cpp)"
  echo "--- $example ---"
  ./build/"$example" > "build/example-runs/$example.out"
done

echo "=== sanitizers: ASan + UBSan build, suite run twice ==="
cmake -B build-asan -S . -DALS_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-asan -j "$JOBS"
(cd build-asan && ctest --output-on-failure -j "$JOBS")
(cd build-asan && ctest --output-on-failure -j "$JOBS")

echo "=== sanitizers: TSan build (runtime-layer concurrency) ==="
cmake -B build-tsan -S . -DALS_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan -j "$JOBS"
(cd build-tsan && ctest --output-on-failure -j "$JOBS")
# Explicit concurrency gates under TSan: the runtime layer's fork-joins and
# the cost layer's shared-circuit model independence (cost_test's threaded
# suite).  Both already ran in the full pass above; re-running them serially
# keeps the two concurrency contracts visible as their own CI signal.
(cd build-tsan && ctest --output-on-failure -R '^(cost_test|runtime_test)$')
# The plan executor under TSan, as its own leg: every portfolio, batch and
# tempering run goes through its fork-joins, and the round-barrier exchange
# loop and the cross-backend reseed path are the only places cells touch
# shared state mid-run, so the executor's thread-invariance suites get a
# dedicated instrumented pass.  The pool's own suite and the executor's
# bank-vs-owned-buffers suite ride along: the pool's job type is the
# executor's only task shape.
./build-tsan/runtime_test --gtest_filter='ThreadPool.*:PlanExecutor.*:Portfolio.*:BatchPlacer.*:Tempering.*'
# Serve layer under both sanitizers, as its own leg: the job tokens (client
# cancels and deadlines, read by the workers' sweep checks), the shared
# result cache (quarantine/eviction under the store mutex) and the worker
# fan-out are the serve stack's concurrency surface, and its recovery paths
# (checksum rejection, scrub, fault-injected torn writes) are exactly where
# memory bugs would hide.  Both binaries already
# ran in the full ctest passes above; the explicit invocations keep the
# failure-model contract visible as its own CI signal.
./build-asan/serve_test
./build-tsan/serve_test
# Stop tokens are read across threads (a parent's stop reaches its
# children's sweep checks), so their unit suite gets a TSan leg too.
./build-tsan/util_test --gtest_filter='CancelToken.*'

echo "=== alloc gate: Release steady-state zero-allocations-per-move ==="
# One warm anneal per backend under the counting operator new of
# tests/alloc_gate_test.cpp; fails if the SA move loop (move + decode +
# cost) allocates at all in steady state.  Runs in the plain
# ctest pass too; the explicit invocation keeps the decode-hot-path
# contract visible as its own CI signal.
(cd build && ctest --output-on-failure -R '^alloc_gate_test$')

echo "=== bench smoke: Release binaries, JSON to build/bench-smoke/ ==="
# Every file in build/bench-smoke/*.json is a bench_json row array that
# bench_diff reads at the end, so the directory starts empty.
rm -rf build/bench-smoke
mkdir -p build/bench-smoke
for bench in bench_table1 bench_fig8 bench_fig10 bench_lemma bench_ablation \
             bench_thermal bench_seqpair_sa bench_hbstar bench_slicing \
             bench_portfolio; do
  echo "--- $bench --smoke ---"
  ./build/"$bench" --smoke --json "build/bench-smoke/$bench.json" \
    > "build/bench-smoke/$bench.out"
done
# bench_kernels is google-benchmark based (built only when the library is
# present) and writes google-benchmark's own JSON, so it lands outside
# build/bench-smoke/.  (min_time is passed unit-less: the distro's
# google-benchmark predates the "0.01s" suffix syntax and rejects it.)
if [ -x build/bench_kernels ]; then
  ./build/bench_kernels --benchmark_min_time=0.01 \
    --benchmark_out=build/bench_kernels.json \
    --benchmark_out_format=json > build/bench_kernels.out
fi

echo "=== timed captures: bench_decode, its --scaling leg and als_place, 5x ==="
# The tools whose timed rows bench_diff gates run five times, interleaved,
# so each timed row has five samples:
#   bench_decode --smoke      decode kernels (map vs flat contour) and the
#                             engine move rate of every backend;
#   bench_decode --scaling    the move loop of the flat B*-tree, slicing,
#                             sequence-pair and HB*-tree backends up to n300;
#   als_place --smoke         the corpus x backends determinism gate: every
#                             embedded corpus circuit on all four backends,
#                             twice and at 1 vs 8 threads, plus the thermal +
#                             shape, tempering and --size legs; exits nonzero
#                             on any parse error, illegal placement or
#                             bit-level mismatch.
for rep in 1 2 3 4 5; do
  ./build/bench_decode --smoke --json "build/bench-smoke/bench_decode.$rep.json" \
    > "build/bench-smoke/bench_decode.$rep.out"
  ./build/bench_decode --scaling --smoke \
    --json "build/bench-smoke/bench_decode_scaling.$rep.json" \
    > "build/bench-smoke/bench_decode_scaling.$rep.out"
  ./build/als_place --smoke --json "build/bench-smoke/als_place.$rep.json" \
    > "build/bench-smoke/als_place.$rep.out"
done
# The als_place stdout carries no timing, so the five captures — five
# processes, five address layouts — must be byte-identical: a result that
# hangs on an address or on stale scratch contents differs here.
for rep in 2 3 4 5; do
  cmp build/bench-smoke/als_place.1.out "build/bench-smoke/als_place.$rep.out"
done

echo "=== als_place knob refusal: a backend refuses a knob it would drop ==="
# Slicing has neither a symmetry penalty nor a symmetry guarantee
# (src/engine/knobs.h), so --sym on it must exit nonzero with a message
# naming the knob and the backend; the flat B*-tree penalises asymmetry
# and must accept the same flag.
if ./build/als_place --backend slicing --sym 3 --circuit apte \
     > /dev/null 2> build/bench-smoke/als_place_refusal.err; then
  echo "als_place accepted --sym on slicing"
  exit 1
fi
grep -q "sym.*slicing" build/bench-smoke/als_place_refusal.err
./build/als_place --backend flat-bstar --sym 3 --sweeps 4 --circuit apte \
  > /dev/null

echo "=== als_serve smoke: daemon + replay, identity / cache / cancel ==="
# Boots the placement daemon and fires the replay harness at it: apte and
# ami33 jobs with duplicate resubmissions, run at 1 client and again at 8
# concurrent clients.  --check asserts the three service contracts — the
# two rounds' per-job results are byte-identical (and match an in-process
# PortfolioRunner oracle), the duplicate stream produces a nonzero cache
# hit rate with a >= 50x warm-over-cold speedup, and a job cancelled
# mid-run is acknowledged within a bounded number of progress rounds with
# the worker then completing a fresh job bit-identically.  The JSON lands
# next to the other smoke records and feeds bench_diff below.
./build/als_replay --serve-bin ./build/als_serve --check --clients 8 \
  --json build/bench-smoke/bench_serve.json \
  > build/bench-smoke/bench_serve.out

echo "=== als_replay --faults: chaos harness (crash/corruption recovery) ==="
# Drives the daemon through the full failure model with deterministic fault
# injection: on-disk entries bit-flipped, truncated and mislabeled (must be
# quarantined, never served, recomputed byte-identically against the
# in-process oracle); a full disk (memory-only degradation); _Exit crashes
# in every store/reply window plus a SIGKILL mid-job (restart scrubs and
# recovers); wall and sweep deadlines (best-so-far within one round, never
# cached); backpressure with retry/backoff clients; and the size cap
# (eviction keeps the store directory bounded).  No --json on purpose: the
# chaos run measures recovery, not throughput, so it stays out of
# bench_diff.
./build/als_replay --serve-bin ./build/als_serve --faults --check \
  > build/bench-smoke/bench_chaos.out

echo "=== readme_tables --check: README tables vs committed baseline ==="
# The README's measured-throughput tables are generated from
# BENCH_baseline.json; drift (hand edits, or a baseline refresh without
# regenerating) fails CI.  Refresh with: ./build/readme_tables
./build/readme_tables --check

echo "=== bench_diff: every captured row vs committed BENCH_baseline.json ==="
# Gates each (tool, layer, metric, backend, circuit, budget) row in its own
# better direction: exact rows (costs, counts) fail when worse by any
# amount; timed rows fail when the best of their samples is worse than the
# baseline median by more than the quartile spread of the baseline's own
# samples; a timed row with one baseline sample is reported, not gated; a
# baseline row missing from this run fails.  Refresh the baseline, on one
# host, by merging the captures of CI runs started a few minutes apart (so
# the spread of each timed row covers that host's run-to-run drift), then
# regenerate the README tables:
#   ./build/bench_diff --merge BENCH_baseline.json run1/*.json run2/*.json ...
#   ./build/readme_tables
./build/bench_diff BENCH_baseline.json build/bench-smoke/*.json

echo "=== CI green ==="
