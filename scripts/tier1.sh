#!/usr/bin/env bash
# Tier-1 verification: configure + build (warnings are errors) + full ctest
# suite, then the threading tests again under ThreadSanitizer from a
# separate build tree (KLOTSKI_SANITIZE=thread), so data races in the
# worker pools fail the gate even when the plain run happens to pass.
#
# Usage: scripts/tier1.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

cmake -B build -S . -DKLOTSKI_WERROR=ON
cmake --build build -j"${JOBS}"
(cd build && ctest --output-on-failure -j"${JOBS}")

# Chaos gate: seeded fault-injection sweeps through the replan driver with
# invariant checking and a checkpoint kill/resume self-test on every seed
# (DESIGN.md §8). KLOTSKI_CHAOS_SEEDS scales the sweep (default 25; the
# nightly recipe in EXPERIMENTS.md runs 1000). On failure klotski_chaos
# exits non-zero listing every failing seed; reproduce one with
#   ./build/tools/klotski_chaos --preset=X --seed=N --trajectory
CHAOS_SEEDS="${KLOTSKI_CHAOS_SEEDS:-25}"
# Each sweep runs twice — warm repair on (the default) and forced cold —
# and the pass/fail verdicts must match seed for seed. That verdict parity
# on these four sweeps (Clos presets a and b, flat and reconf preset a) is
# the warm-repair contract this gate enforces. It is weaker than "never a
# behavior change": a kept suffix may cost up to the repair slack more than
# the cold plan, so trajectories can differ, and verdicts do on flat b seed
# 2 and reconf c seed 118 (DESIGN.md §11, ROADMAP item 4). The non-Clos
# families prove the chaos driver, the invariant checkers, and the
# checkpoint kill/resume path hold on irregular graphs too (DESIGN.md §12).
# The warm run also writes its metrics so klotski_metrics_check can
# cross-check the replan.warm_attempts == warm_wins + fallback_full
# identity.
CHAOS_TMP="$(mktemp -d)"
for sweep in clos-a clos-b flat-a reconf-a; do
  family="${sweep%-*}"
  preset="${sweep#*-}"
  ./build/tools/klotski_chaos --family="${family}" --preset="${preset}" \
    --seeds="${CHAOS_SEEDS}" --threads="${JOBS}" \
    --metrics-out="${CHAOS_TMP}/chaos-${sweep}-warm-metrics.json" \
    | tee "${CHAOS_TMP}/chaos-${sweep}-warm.txt"
  ./build/tools/klotski_chaos --family="${family}" --preset="${preset}" \
    --seeds="${CHAOS_SEEDS}" --threads="${JOBS}" --no-warm-repair \
    | tee "${CHAOS_TMP}/chaos-${sweep}-cold.txt"
  for run in warm cold; do
    sed -E -e 's/, warm [0-9]+\/[0-9]+, median replan [0-9.e+-]+ ms//' \
      -e 's/ warm=[0-9]+\/[0-9]+//' \
      "${CHAOS_TMP}/chaos-${sweep}-${run}.txt" \
      > "${CHAOS_TMP}/chaos-${sweep}-${run}-verdicts.txt"
  done
  if ! diff -u "${CHAOS_TMP}/chaos-${sweep}-warm-verdicts.txt" \
      "${CHAOS_TMP}/chaos-${sweep}-cold-verdicts.txt"; then
    echo "tier1: FAIL — warm and cold chaos verdicts differ (${sweep})" >&2
    exit 1
  fi
  ./build/tools/klotski_metrics_check \
    --metrics="${CHAOS_TMP}/chaos-${sweep}-warm-metrics.json"
done
rm -rf "${CHAOS_TMP}"

# Serve smoke gate: daemon up on both transports (unix socket + TCP
# loopback), served-vs-CLI byte identity (cold + cache hit), cross-transport
# content-hash identity, servectl against the TCP endpoint, mixed loadgen
# over each transport, graceful SIGTERM drain with flushed metrics
# (DESIGN.md §9).
scripts/serve_smoke.sh build

# Serve throughput gate: uncapped mixed workload over TCP loopback with many
# connections must sustain >= 2000 qps (the fleet-front-door acceptance
# bar); writes the consolidated per-transport report to a scratch path —
# the checked-in BENCH_serve.json comes from a quiet machine.
SERVE_BENCH_TMP="$(mktemp -d)"
scripts/serve_bench.sh build "${SERVE_BENCH_TMP}/BENCH_serve.json"
rm -rf "${SERVE_BENCH_TMP}"

# What-if robustness gate (DESIGN.md §13): a Monte Carlo sweep over the
# preset-A plan must produce byte-identical klotski.whatif.v1 reports at
# --threads=1 and --threads=N, and the same sweep submitted to a daemon
# must come back byte-identical to the local run — the report is a pure
# function of (inputs, seed, N), never of the execution venue. The sweep
# checks in a search scope, so its metrics must pass the quotient identity
# (quotient.checks + fallback_not_applicable == scoped_checks).
WHATIF_TMP="$(mktemp -d)"
WHATIF_SOCK="/tmp/kwhatif-$$.sock"
./build/tools/klotski_synth --preset=A --scale=reduced \
  --out="${WHATIF_TMP}/a.npd.json"
./build/tools/klotski_plan --npd="${WHATIF_TMP}/a.npd.json" \
  --out="${WHATIF_TMP}/plan.json" > /dev/null
./build/tools/klotski_whatif --npd="${WHATIF_TMP}/a.npd.json" \
  --plan="${WHATIF_TMP}/plan.json" --trajectories=40 --seed=11 \
  --threads=1 --out="${WHATIF_TMP}/report-t1.json" \
  --metrics-out="${WHATIF_TMP}/metrics-t1.json"
./build/tools/klotski_metrics_check --metrics="${WHATIF_TMP}/metrics-t1.json"
./build/tools/klotski_whatif --npd="${WHATIF_TMP}/a.npd.json" \
  --plan="${WHATIF_TMP}/plan.json" --trajectories=40 --seed=11 \
  --threads="${JOBS}" --out="${WHATIF_TMP}/report-tN.json"
cmp "${WHATIF_TMP}/report-t1.json" "${WHATIF_TMP}/report-tN.json" || {
  echo "tier1: FAIL — whatif report differs across thread counts" >&2
  exit 1
}
./build/tools/klotski_served --socket="${WHATIF_SOCK}" --workers=2 \
  2> "${WHATIF_TMP}/served.log" &
WHATIF_SERVED_PID=$!
for _ in $(seq 1 100); do
  [[ -S "${WHATIF_SOCK}" ]] && break
  sleep 0.05
done
[[ -S "${WHATIF_SOCK}" ]] || {
  echo "tier1: FAIL — whatif daemon never bound ${WHATIF_SOCK}" >&2
  cat "${WHATIF_TMP}/served.log" >&2; exit 1; }
# Cold remote run, then an identical one that must be answered from the
# daemon's content-addressed cache — same bytes both times, same bytes as
# the local sweep.
for run in remote cached; do
  ./build/tools/klotski_whatif --npd="${WHATIF_TMP}/a.npd.json" \
    --plan="${WHATIF_TMP}/plan.json" --trajectories=40 --seed=11 \
    --connect="${WHATIF_SOCK}" --out="${WHATIF_TMP}/report-${run}.json"
done
for run in remote cached; do
  cmp "${WHATIF_TMP}/report-t1.json" "${WHATIF_TMP}/report-${run}.json" || {
    echo "tier1: FAIL — ${run} whatif report differs from the local run" >&2
    exit 1
  }
done
kill -TERM "${WHATIF_SERVED_PID}"
wait "${WHATIF_SERVED_PID}" || {
  echo "tier1: FAIL — whatif daemon drain failed" >&2; exit 1; }
rm -rf "${WHATIF_TMP}" "${WHATIF_SOCK}"

cmake -B build-tsan -S . -DKLOTSKI_SANITIZE=thread
cmake --build build-tsan -j"${JOBS}" --target test_obs test_sim test_whatif test_serve
# Run the binaries directly: only these targets are built in the TSan tree,
# and ctest would trip over the undiscovered sibling test targets.
# A satisfiability check runs on one thread; the pools below are the sweep
# and daemon workers, plus the obs registry every thread writes to.
./build-tsan/tests/test_obs
# Chaos sweep worker pool: per-seed isolation means the only shared state
# is the verdict vector and the obs counters — TSan checks that claim.
KLOTSKI_CHAOS_SEEDS=10 ./build-tsan/tests/test_sim \
  --gtest_filter='ChaosInvariants.SweepVerdictsAreIdenticalAcrossThreadCounts'
# What-if sweep worker pool: workers claim trajectory indices from one
# atomic counter and store outcomes by index — TSan checks that the only
# sharing really is that counter plus the indexed slots, and the error
# slot that a throwing worker fills before the pool joins. Each worker
# opens its own search scope, so its checks drive a private quotient
# router; the scope counters are the obs registry's.
./build-tsan/tests/test_whatif \
  --gtest_filter='WhatIf.ReportIsInvariantToThreadCount:WhatIf.DemandsPastTheFixedPointRangeAreRefusedFromAnyWorker'
# Plan service under TSan: sharded single-flight cache, worker pool, drain,
# both transports' connection threads, the periodic reaper, and the
# disconnect-cancel path all exercise cross-thread handoffs.
./build-tsan/tests/test_serve

# AddressSanitizer over the randomized ECMP equivalence suite and the
# capacity-edit tests: the fabric router indexes liveness words and load
# slots through arc records and reads capacities as it propagates, so a
# stale word or slot index after a topology edit reads garbage here
# instead of crashing.
cmake -B build-asan -S . -DKLOTSKI_SANITIZE=address
cmake --build build-asan -j"${JOBS}" --target test_traffic test_sim test_core test_util test_migration test_whatif test_pipeline
./build-asan/tests/test_traffic \
  --gtest_filter='EcmpEquivalence.*:FixedPoint.CapacityEdits*'
# Chaos engine under ASan: fault scripts mutate live capacities, tear
# blocks mid-apply, and resume from checkpoints — prime territory for
# stale-pointer and overrun bugs that a plain run reads right through.
KLOTSKI_CHAOS_SEEDS=10 ./build-asan/tests/test_sim
# Search arena under ASan: the SoA planner hands out raw row pointers into
# chunked pools and compaction slides rows with memcpy + index remaps —
# exactly where an off-by-one reads the neighboring node without crashing.
# The equivalence and budget suites drive every compaction/eviction path.
./build-asan/tests/test_util --gtest_filter='PodPool.*:StridedPool.*'
./build-asan/tests/test_core \
  --gtest_filter='SoAEquivalence.*:MemBudget.*:StateHasher.*:SatCache.*'
# Quotient checks under ASan: the quotient router indexes per-class and
# per-bundle arrays through arc records built from an unverified partition
# until Quotient::build accepts it, and the oracle suite corrupts partitions
# on purpose — an out-of-range class or slot reads garbage in a plain run.
# The suite compares every bundle's fixed-point load with its circuits'
# fabric loads by equality, so a wrong bundle or direction index fails it.
./build-asan/tests/test_core --gtest_filter='QuotientOracle.*'
# What-if engine under ASan: every worker builds a private case, and each
# trajectory step rebinds the quotient router to a fresh demand set while
# the walk moves through cumulative phase states — a stale demand or
# bundle pointer, or an off-by-one phase index, reads garbage here without
# crashing a plain run.
./build-asan/tests/test_whatif \
  --gtest_filter='WhatIf.AggressiveDemandKnobsSurfaceUnsafeFutures:AllFamilies/*'
# The warm-repair gate's class diff under ASan: the randomized mutation
# suite diffs consecutive symmetry partitions over hundreds of topology
# edits — a stale class index would read garbage here long before a plain
# run noticed.
./build-asan/tests/test_migration --gtest_filter='ChangedSwitches.*'
# Checkpoint load and resume under ASan: a checkpoint is untrusted input
# (the daemon's replan method takes it from the socket) and the driver
# indexes per-type arrays with its counters and plan action types, so an
# out-of-range index that a plain run reads straight through fails here.
./build-asan/tests/test_pipeline \
  --gtest_filter='ReplanCheckpoint*:Replan.CheckpointResume*:Replan.ResumeRejects*'

# Observability smoke: plan a small preset with --metrics-out/--trace-out
# with each planner, check both artifacts re-parse with the in-tree JSON
# parser, that sat_cache_hits + sat_cache_misses == evaluations and that
# quotient.checks + quotient.fallback_not_applicable ==
# quotient.scoped_checks (a Clos search answers every scoped check on the
# quotient; no check is routed twice).
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "${OBS_TMP}"' EXIT
./build/tools/klotski_synth --preset=A --scale=reduced \
  --out="${OBS_TMP}/a.npd.json"
for planner in astar dp; do
  ./build/tools/klotski_plan --npd="${OBS_TMP}/a.npd.json" \
    --planner="${planner}" \
    --metrics-out="${OBS_TMP}/metrics-${planner}.json" \
    --trace-out="${OBS_TMP}/trace-${planner}.json" \
    --out="${OBS_TMP}/plan-${planner}.json"
  ./build/tools/klotski_metrics_check \
    --metrics="${OBS_TMP}/metrics-${planner}.json" \
    --trace="${OBS_TMP}/trace-${planner}.json"
done
# A numeric flag with trailing garbage must be a loud usage error (exit 2).
rc=0
./build/tools/klotski_plan --npd="${OBS_TMP}/a.npd.json" --schedule \
  --crews=abc > /dev/null 2>&1 || rc=$?
if [[ "${rc}" -ne 2 ]]; then
  echo "tier1: FAIL — klotski_plan --crews=abc exited ${rc}, want 2" >&2
  exit 1
fi
# So must a value out of its range, checked before planning whether or not
# the flag's feature runs: --crews without --schedule, and a negative
# funneling margin, which would weaken the audit below no margin at all.
for bad in --crews=abc --funneling=-5; do
  rc=0
  ./build/tools/klotski_plan --preset=A "${bad}" > /dev/null 2>&1 || rc=$?
  if [[ "${rc}" -ne 2 ]]; then
    echo "tier1: FAIL — klotski_plan --preset=A ${bad} exited ${rc}, want 2" >&2
    exit 1
  fi
done
# So must a flag the tool does not know, e.g. the retired --router-threads
# and --threads (a check runs on one thread): exit 2, not a silent run on
# defaults.
for retired in --router-threads=2 --threads=2; do
  rc=0
  ./build/tools/klotski_plan --npd="${OBS_TMP}/a.npd.json" "${retired}" \
    > /dev/null 2>&1 || rc=$?
  if [[ "${rc}" -ne 2 ]]; then
    echo "tier1: FAIL — klotski_plan ${retired} exited ${rc}, want 2" >&2
    exit 1
  fi
done
rc=0
# A daemon that accepted the flag would serve forever; timeout turns that
# into exit 124.
timeout 10 ./build/tools/klotski_served \
  --socket="${OBS_TMP}/unknown-flag.sock" --router-threads=2 \
  > /dev/null 2>&1 || rc=$?
if [[ "${rc}" -ne 2 ]]; then
  echo "tier1: FAIL — klotski_served --router-threads exited ${rc}, want 2" >&2
  exit 1
fi
# Every tool checks its flags: a misspelt --no-warm-repair must not quietly
# run warm and turn the warm/cold diff above into warm against warm.
rc=0
./build/tools/klotski_chaos --preset=a --seeds=2 --no-warm-repiar \
  > /dev/null 2>&1 || rc=$?
if [[ "${rc}" -ne 2 ]]; then
  echo "tier1: FAIL — klotski_chaos --no-warm-repiar exited ${rc}, want 2" >&2
  exit 1
fi
# And every knob is range-checked before the first seed runs: theta 0 is
# one usage error, not a failed verdict per seed, and a count a narrowing
# cast would wrap (2^32 + 1 seeds to 1) or a negative one is refused.
for bad in "--seeds=2 --theta=0" --seeds=4294967297 "--seeds=2 --retries=-1"; do
  rc=0
  # ${bad} holds one or two flags, so it is left unquoted.
  ./build/tools/klotski_chaos --preset=a ${bad} > /dev/null 2>&1 || rc=$?
  if [[ "${rc}" -ne 2 ]]; then
    echo "tier1: FAIL — klotski_chaos ${bad} exited ${rc}, want 2" >&2
    exit 1
  fi
done

# bench_scale smoke: the largest preset that fits CI comfortably, core mode
# (planner-dominant, sub-second), with a budget below the sweep's tracked
# peak so the compaction + provenance path runs end to end outside the unit
# tests (open-list eviction needs a frontier wider than the minimum beam —
# tests/core/mem_budget_test.cpp covers that; HGRID frontiers stay narrow).
# The JSON must re-parse and carry a budgeted row that compacted and still
# planned. Numbers from this smoke are NOT recorded — BENCH_core.json comes
# from bench/bench_to_json.sh on a Release build.
./build/bench/bench_scale --mode=core --presets=C --budget-mb=1 \
  --deadline=120 --json="${OBS_TMP}/bench_scale_smoke.json"
python3 - "${OBS_TMP}/bench_scale_smoke.json" <<'EOF'
import json, sys
with open(sys.argv[1], encoding="utf-8") as f:
    doc = json.load(f)
assert doc.get("schema") == "klotski.bench_scale.v1", doc.get("schema")
rows = doc.get("rows", [])
assert any(r.get("found") and not r.get("budget_mb") for r in rows), rows
budgeted = [r for r in rows if r.get("budget_mb")]
assert budgeted and all(r.get("found") for r in budgeted), rows
assert all(r.get("compactions", 0) > 0 for r in budgeted), budgeted
print("bench_scale smoke: %d rows ok" % len(rows))
EOF

# Opt-in perf gate: export KLOTSKI_BENCH_BASELINE=path/to/baseline.json to
# rebuild the Release bench suite (bench/bench_to_json.sh) and fail tier-1
# if any micro_core benchmark's cpu_time regressed by more than 25% against
# the baseline (scripts/bench_compare.py, stdlib-only). Off by default: the
# microbenches take minutes and perf numbers from shared CI boxes are noisy,
# so this is for perf-sensitive branches run on quiet hardware, e.g.
#   KLOTSKI_BENCH_BASELINE=BENCH_core.json scripts/tier1.sh
if [[ -n "${KLOTSKI_BENCH_BASELINE:-}" ]]; then
  bench/bench_to_json.sh build-release "${OBS_TMP}/bench_current.json"
  python3 scripts/bench_compare.py "${KLOTSKI_BENCH_BASELINE}" \
    "${OBS_TMP}/bench_current.json"
fi

echo "tier1: OK"
