#!/usr/bin/env bash
# Serve throughput bench: boots klotski_served on both transports and runs
# an uncapped (qps=0) mixed plan/ping/stats workload over the unix socket
# and over TCP loopback, each with the same 32 connections (so the two rows
# differ only in transport), writing one consolidated report
# ("klotski.serve-bench.v1") with a row per transport — p50/p90/p99 latency
# and achieved QPS per row.
#
# The TCP row is the fleet-front-door acceptance gate: it must sustain at
# least ${KLOTSKI_BENCH_MIN_QPS:-2000} requests/s of mixed cache-hit/miss
# traffic on loopback, or the script fails.
#
# A third row ("serve_replan") measures warm-start replanning through the
# daemon: a remote klotski_chaos sweep submitted over the unix socket, with
# the per-epoch replan latency the daemon reports (DESIGN.md §11). Sweep
# size via KLOTSKI_BENCH_REPLAN_SEEDS (default 25).
#
# A fourth row ("whatif_batch") measures the what-if engine as a batch
# workload (DESIGN.md §13): one cold Monte Carlo robustness sweep submitted
# over the unix socket — trajectories/s of the request's round trip — plus
# the round trip of the identical repeated request, which must be answered
# from the content-addressed cache. Both times are klotski_whatif's own
# "request_s=" reading (submit to response), so neither includes the
# client's process start or NPD load. Sweep size via
# KLOTSKI_BENCH_WHATIF_TRAJ (default 200).
#
# Usage: scripts/serve_bench.sh [build-dir] [out-json]
#   build-dir  tree with the built tools   (default: build)
#   out-json   consolidated report path    (default: BENCH_serve.json)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
OUT="${2:-BENCH_serve.json}"
MIN_QPS="${KLOTSKI_BENCH_MIN_QPS:-2000}"
REQUESTS="${KLOTSKI_BENCH_REQUESTS:-6000}"
REPLAN_SEEDS="${KLOTSKI_BENCH_REPLAN_SEEDS:-25}"
WHATIF_TRAJ="${KLOTSKI_BENCH_WHATIF_TRAJ:-200}"

TMP="$(mktemp -d)"
SOCK="/tmp/kbench-$$.sock"
cleanup() {
  [[ -n "${SERVED_PID:-}" ]] && kill -9 "${SERVED_PID}" 2>/dev/null || true
  rm -rf "${TMP}" "${SOCK}"
}
trap cleanup EXIT

"./${BUILD}/tools/klotski_synth" --preset=A --scale=reduced \
  --out="${TMP}/a.npd.json" > /dev/null

"./${BUILD}/tools/klotski_served" --socket="${SOCK}" \
  --listen=127.0.0.1:0 --endpoint-out="${TMP}/tcp.endpoint" \
  --workers=4 --max-queue=64 --cache-capacity=64 --cache-shards=8 \
  2> "${TMP}/served.log" &
SERVED_PID=$!
for _ in $(seq 1 100); do
  [[ -S "${SOCK}" && -s "${TMP}/tcp.endpoint" ]] && break
  sleep 0.05
done
[[ -S "${SOCK}" && -s "${TMP}/tcp.endpoint" ]] || {
  echo "serve_bench: daemon never came up" >&2
  cat "${TMP}/served.log" >&2; exit 1; }
TCP_EP="$(cat "${TMP}/tcp.endpoint")"

# Warm the plan variants once so both measured runs see the same
# steady-state mix of cache hits and misses.
"./${BUILD}/tools/klotski_loadgen" --connect="${SOCK}" \
  --npd="${TMP}/a.npd.json" --requests=40 --qps=0 --connections=4 \
  --report="${TMP}/warm.json" 2> /dev/null

"./${BUILD}/tools/klotski_loadgen" --connect="${SOCK}" \
  --npd="${TMP}/a.npd.json" --requests="${REQUESTS}" --qps=0 \
  --connections=32 --report="${TMP}/unix.json" \
  2> "${TMP}/loadgen-unix.log"
"./${BUILD}/tools/klotski_loadgen" --connect="${TCP_EP}" \
  --npd="${TMP}/a.npd.json" --requests="${REQUESTS}" --qps=0 \
  --connections=32 --report="${TMP}/tcp.json" \
  2> "${TMP}/loadgen-tcp.log"

# Remote replan bench: one chaos sweep submitted as a daemon job; the
# summary line carries the warm-repair tallies and the median per-epoch
# replan latency measured inside the serve worker.
"./${BUILD}/tools/klotski_chaos" --connect="${SOCK}" --preset=a \
  --seeds="${REPLAN_SEEDS}" | tee "${TMP}/replan.txt"
REPLAN_SUMMARY="$(grep 'median replan' "${TMP}/replan.txt")"
REPLAN_MS="$(sed -n 's/.*median replan \([0-9.eE+-]*\) ms.*/\1/p' \
  <<< "${REPLAN_SUMMARY}")"
WARM_WINS="$(sed -n 's/.*warm \([0-9]*\)\/[0-9]*.*/\1/p' \
  <<< "${REPLAN_SUMMARY}")"
WARM_ATTEMPTS="$(sed -n 's/.*warm [0-9]*\/\([0-9]*\).*/\1/p' \
  <<< "${REPLAN_SUMMARY}")"
[[ -n "${REPLAN_MS}" && -n "${WARM_ATTEMPTS}" ]] || {
  echo "serve_bench: FAIL — could not parse the remote replan summary" >&2
  exit 1
}
printf '{\n  "name": "serve_replan",\n  "transport": "unix",\n' \
  > "${TMP}/replan.json"
printf '  "preset": "a",\n  "seeds": %s,\n' "${REPLAN_SEEDS}" \
  >> "${TMP}/replan.json"
printf '  "warm_wins": %s,\n  "warm_attempts": %s,\n' \
  "${WARM_WINS}" "${WARM_ATTEMPTS}" >> "${TMP}/replan.json"
printf '  "median_replan_ms": %s\n}\n' "${REPLAN_MS}" >> "${TMP}/replan.json"

# What-if batch bench: a cold robustness sweep as one daemon job, then the
# identical request again — the repeat must be a cache hit, so its latency
# is the serve/cache overhead floor for batch results.
"./${BUILD}/tools/klotski_plan" --npd="${TMP}/a.npd.json" \
  --out="${TMP}/a.plan.json" > /dev/null 2> /dev/null
request_s() {  # the request round trip klotski_whatif --connect reports
  local out="$1"; shift
  "./${BUILD}/tools/klotski_whatif" "$@" --out="${out}" 2> "${out}.log"
  sed -n 's/^request_s=\([0-9.eE+-]*\)$/\1/p' "${out}.log"
}
WHATIF_COLD_S="$(request_s "${TMP}/whatif-cold.json" \
  --npd="${TMP}/a.npd.json" --plan="${TMP}/a.plan.json" \
  --trajectories="${WHATIF_TRAJ}" --seed=17 --connect="${SOCK}")"
WHATIF_HIT_S="$(request_s "${TMP}/whatif-hit.json" \
  --npd="${TMP}/a.npd.json" --plan="${TMP}/a.plan.json" \
  --trajectories="${WHATIF_TRAJ}" --seed=17 --connect="${SOCK}")"
[[ -n "${WHATIF_COLD_S}" && -n "${WHATIF_HIT_S}" ]] || {
  echo "serve_bench: FAIL — klotski_whatif printed no request_s" >&2
  exit 1
}
cmp "${TMP}/whatif-cold.json" "${TMP}/whatif-hit.json" || {
  echo "serve_bench: FAIL — repeated whatif request returned different" \
       "bytes" >&2
  exit 1
}
WHATIF_TPS="$(awk -v n="${WHATIF_TRAJ}" -v s="${WHATIF_COLD_S}" \
  'BEGIN { printf "%.1f", n / s }')"
printf '{\n  "name": "whatif_batch",\n  "transport": "unix",\n' \
  > "${TMP}/whatif.json"
printf '  "trajectories": %s,\n  "cold_seconds": %s,\n' \
  "${WHATIF_TRAJ}" "${WHATIF_COLD_S}" >> "${TMP}/whatif.json"
printf '  "trajectories_per_sec": %s,\n' "${WHATIF_TPS}" \
  >> "${TMP}/whatif.json"
printf '  "cache_hit_seconds": %s\n}\n' "${WHATIF_HIT_S}" \
  >> "${TMP}/whatif.json"

kill -TERM "${SERVED_PID}"
wait "${SERVED_PID}" || { echo "serve_bench: drain failed" >&2; exit 1; }
SERVED_PID=""

qps_of() {
  sed -n 's/.*"achieved_qps": \([0-9.eE+-]*\).*/\1/p' "$1" | head -1
}
TCP_QPS="$(qps_of "${TMP}/tcp.json")"
UNIX_QPS="$(qps_of "${TMP}/unix.json")"

{
  printf '{\n  "schema": "klotski.serve-bench.v1",\n'
  printf '  "generated_by": "scripts/serve_bench.sh",\n'
  printf '  "requests_per_row": %s,\n' "${REQUESTS}"
  printf '  "rows": [\n'
  sed 's/^/    /' "${TMP}/unix.json" | sed '$s/$/,/'
  sed 's/^/    /' "${TMP}/tcp.json" | sed '$s/$/,/'
  sed 's/^/    /' "${TMP}/replan.json" | sed '$s/$/,/'
  sed 's/^/    /' "${TMP}/whatif.json"
  printf '  ]\n}\n'
} > "${OUT}"
echo "serve_bench: unix ${UNIX_QPS} qps, tcp ${TCP_QPS} qps," \
     "remote replan ${REPLAN_MS} ms," \
     "whatif ${WHATIF_TPS} traj/s -> ${OUT}"

awk -v got="${TCP_QPS}" -v want="${MIN_QPS}" \
  'BEGIN { exit (got + 0 >= want + 0) ? 0 : 1 }' || {
  echo "serve_bench: FAIL — TCP loopback sustained ${TCP_QPS} qps" \
       "(< ${MIN_QPS})" >&2
  exit 1
}
