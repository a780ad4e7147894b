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
# JSON records written to build/bench-smoke/ — per-PR observability for
# perf and quality regressions.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"

echo "=== tier-1: configure + build + ctest (Release) ==="
cmake -B build -S .
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

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
mkdir -p build/bench-smoke
for bench in bench_table1 bench_fig8 bench_fig10 bench_lemma bench_ablation \
             bench_thermal bench_seqpair_sa bench_hbstar bench_slicing \
             bench_portfolio bench_decode; do
  echo "--- $bench --smoke ---"
  ./build/"$bench" --smoke --json "build/bench-smoke/$bench.json" \
    > "build/bench-smoke/$bench.out"
done
# bench_kernels is google-benchmark based (built only when the library is
# present) and has its own machine-readable flag.  (min_time is passed
# unit-less: the distro's google-benchmark predates the "0.01s" suffix
# syntax and rejects it.)
if [ -x build/bench_kernels ]; then
  ./build/bench_kernels --benchmark_min_time=0.01 \
    --benchmark_out=build/bench-smoke/bench_kernels.json \
    --benchmark_out_format=json > build/bench-smoke/bench_kernels.out
fi

echo "=== bench_decode --scaling: move rates up to n300 ==="
# The size axis: runs the flat-bstar, slicing and seqpair SA on every corpus
# circuit up to n300 and records one moves/sec row per (backend, circuit)
# for bench_diff.  Rates only: the decode and trajectory identities are
# checked by the test suites (seqpair_test, bstar_test, slicing_test).
for rep in "" .r2 .r3; do
  ./build/bench_decode --scaling --smoke \
    --json "build/bench-smoke/bench_decode_scaling$rep.json" \
    > "build/bench-smoke/bench_decode_scaling$rep.out"
done

echo "=== als_place smoke: corpus x backends determinism gate ==="
# Places every embedded corpus circuit on all four backends, twice and at
# 1 vs 8 threads — plus the scenario legs (thermal objective + shape moves,
# and the --size sizing-on-portfolio flow); exits nonzero on any parse
# error, illegal placement or bit-level mismatch.
./build/als_place --smoke --json build/bench-smoke/als_place.json \
  > build/bench-smoke/als_place.out

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
# next to the other smoke records and feeds bench_diff coverage below.
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

echo "=== bench_diff: throughput + quality vs committed BENCH_baseline.json ==="
# Fails on a moves/sec regression of any backend x circuit pair against the
# committed baseline (ROADMAP item 5).  The smoke budgets keep every pair
# in the milliseconds range, so two extra captures are folded in —
# bench_diff aggregates ops and seconds per pair, averaging the runs — and
# the default tolerance here is wider than the tool's 15% default, which
# is meant for dedicated hardware with longer budgets.  Refresh the
# baseline on intentional perf changes or hardware moves with:
#   ./build/bench_diff --merge BENCH_baseline.json \
#     build/bench-smoke/bench_decode*.json build/bench-smoke/als_place*.json \
#     build/bench-smoke/bench_serve.json
# (the glob picks up the bench_decode_scaling captures too, so the
# flat-bstar, slicing and seqpair move-rate rows stay covered;
# bench_serve.json carries the serve identity/quality rows and the
# service-level meta metrics) — then regenerate the README tables:
# ./build/readme_tables
for rep in 2 3; do
  ./build/bench_decode --smoke --json "build/bench-smoke/bench_decode.r$rep.json" \
    > /dev/null
  ./build/als_place --smoke --json "build/bench-smoke/als_place.r$rep.json" \
    > /dev/null
done
./build/bench_diff --tol "${BENCH_DIFF_TOL:-40}" \
  --quality-tol "${BENCH_DIFF_QUALITY_TOL:-5}" BENCH_baseline.json \
  build/bench-smoke/bench_decode.json build/bench-smoke/bench_decode.r2.json \
  build/bench-smoke/bench_decode.r3.json \
  build/bench-smoke/bench_decode_scaling.json \
  build/bench-smoke/bench_decode_scaling.r2.json \
  build/bench-smoke/bench_decode_scaling.r3.json \
  build/bench-smoke/als_place.json build/bench-smoke/als_place.r2.json \
  build/bench-smoke/als_place.r3.json build/bench-smoke/bench_portfolio.json \
  build/bench-smoke/bench_serve.json

echo "=== CI green ==="
