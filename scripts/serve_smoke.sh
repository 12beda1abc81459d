#!/usr/bin/env bash
# Serve smoke gate: boots klotski_served on both transports (unix socket +
# TCP loopback), proves the serving path is byte-equivalent to the CLI
# pipeline on each transport and across them (content-hash check), runs a
# mixed loadgen workload over both, drives servectl (ping, stats, metrics)
# against the TCP endpoint, and verifies the graceful SIGTERM drain (exit 0,
# metrics flushed).
#
# Usage: scripts/serve_smoke.sh [build-dir] [report-out]
#   build-dir   tree with the built tools       (default: build)
#   report-out  loadgen JSON report path        (default: none)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
REPORT="${2:-}"

TMP="$(mktemp -d)"
# Unix socket paths must stay short (sun_path ~100 bytes); mktemp -d paths
# can be long, so the socket lives under /tmp directly.
SOCK="/tmp/ksmoke-$$.sock"
cleanup() {
  [[ -n "${SERVED_PID:-}" ]] && kill -9 "${SERVED_PID}" 2>/dev/null || true
  rm -rf "${TMP}" "${SOCK}"
}
trap cleanup EXIT

"./${BUILD}/tools/klotski_synth" --preset=A --scale=reduced \
  --out="${TMP}/a.npd.json"

# Reference plan straight from the CLI pipeline.
"./${BUILD}/tools/klotski_plan" --npd="${TMP}/a.npd.json" \
  --out="${TMP}/cli.plan.json" 2> /dev/null

# Boot the daemon on both transports; TCP binds an ephemeral loopback port
# reported via --endpoint-out, so the script never guesses a free port.
"./${BUILD}/tools/klotski_served" --socket="${SOCK}" \
  --listen=127.0.0.1:0 --endpoint-out="${TMP}/tcp.endpoint" \
  --workers=4 --max-queue=16 --cache-capacity=16 --cache-shards=4 \
  --spill-dir="${TMP}/spill" \
  --metrics-out="${TMP}/served.metrics.json" \
  2> "${TMP}/served.log" &
SERVED_PID=$!
for _ in $(seq 1 100); do
  [[ -S "${SOCK}" && -s "${TMP}/tcp.endpoint" ]] && break
  sleep 0.05
done
[[ -S "${SOCK}" && -s "${TMP}/tcp.endpoint" ]] || {
  echo "serve_smoke: daemon never bound ${SOCK} + TCP" >&2
  cat "${TMP}/served.log" >&2; exit 1; }
TCP_EP="$(cat "${TMP}/tcp.endpoint")"

# 1. Byte-identity: served plan (cold, then cache hit) against the CLI,
#    modulo stats.wall_seconds — the one real-wall-clock field, which
#    differs even between two klotski_plan runs.
normalize() {
  sed 's/"wall_seconds": [0-9.eE+-]*/"wall_seconds": 0/' "$1"
}
"./${BUILD}/tools/klotski_loadgen" --socket="${SOCK}" \
  --npd="${TMP}/a.npd.json" --once --result-out="${TMP}/cold.plan.json" \
  2> "${TMP}/loadgen-cold.log"
"./${BUILD}/tools/klotski_loadgen" --socket="${SOCK}" \
  --npd="${TMP}/a.npd.json" --once --result-out="${TMP}/hit.plan.json" \
  2> "${TMP}/loadgen-hit.log"
grep -q '(cached)' "${TMP}/loadgen-hit.log" || {
  echo "serve_smoke: FAIL — second identical request was not a cache hit" >&2
  exit 1
}
if ! cmp -s <(normalize "${TMP}/cli.plan.json") \
            <(normalize "${TMP}/cold.plan.json"); then
  echo "serve_smoke: FAIL — served cold plan differs from klotski_plan" >&2
  diff <(normalize "${TMP}/cli.plan.json") \
       <(normalize "${TMP}/cold.plan.json") | head >&2
  exit 1
fi
# The cache hit must be byte-identical to the cold response, no exceptions:
# both are the same cached bytes.
cmp "${TMP}/cold.plan.json" "${TMP}/hit.plan.json" || {
  echo "serve_smoke: FAIL — cache hit differs from cold response" >&2
  exit 1
}

# 2. Transport invariance: the same request over TCP loopback returns the
#    cached bytes — identical across transports by content hash and by cmp.
"./${BUILD}/tools/klotski_loadgen" --connect="${TCP_EP}" \
  --npd="${TMP}/a.npd.json" --once --result-out="${TMP}/tcp.plan.json" \
  2> "${TMP}/loadgen-tcp.log"
grep -q '(cached)' "${TMP}/loadgen-tcp.log" || {
  echo "serve_smoke: FAIL — TCP request missed the shared cache" >&2
  exit 1
}
UNIX_HASH="$(sha256sum < "${TMP}/cold.plan.json" | cut -d' ' -f1)"
TCP_HASH="$(sha256sum < "${TMP}/tcp.plan.json" | cut -d' ' -f1)"
if [[ "${UNIX_HASH}" != "${TCP_HASH}" ]]; then
  echo "serve_smoke: FAIL — plan content hash differs across transports" >&2
  echo "  unix ${UNIX_HASH}" >&2
  echo "  tcp  ${TCP_HASH}" >&2
  exit 1
fi

# 3. servectl against the TCP endpoint: ping, stats must report the
#    configured shard count, and metrics must return the live registry.
"./${BUILD}/tools/klotski_servectl" --connect="${TCP_EP}" ping \
  > "${TMP}/ctl-ping.json"
grep -q '"klotski.serve.v1"' "${TMP}/ctl-ping.json" || {
  echo "serve_smoke: FAIL — servectl ping did not answer the schema" >&2
  exit 1
}
"./${BUILD}/tools/klotski_servectl" --connect="${TCP_EP}" stats \
  > "${TMP}/ctl-stats.json"
grep -q '"shards": 4' "${TMP}/ctl-stats.json" || {
  echo "serve_smoke: FAIL — stats does not report 4 cache shards" >&2
  cat "${TMP}/ctl-stats.json" >&2
  exit 1
}
"./${BUILD}/tools/klotski_servectl" --connect="${TCP_EP}" metrics \
  > "${TMP}/ctl-metrics.json"
grep -q '"klotski.metrics.v1"' "${TMP}/ctl-metrics.json" || {
  echo "serve_smoke: FAIL — servectl metrics did not answer the registry" >&2
  cat "${TMP}/ctl-metrics.json" >&2
  exit 1
}

# 4. Mixed workload at a modest rate over each transport.
REPORT_PATH="${REPORT:-${TMP}/loadgen.report.json}"
"./${BUILD}/tools/klotski_loadgen" --connect="${SOCK}" \
  --npd="${TMP}/a.npd.json" --requests=60 --qps=120 --connections=4 \
  --report="${REPORT_PATH}" 2> "${TMP}/loadgen-mix.log"
"./${BUILD}/tools/klotski_loadgen" --connect="${TCP_EP}" \
  --npd="${TMP}/a.npd.json" --requests=60 --qps=120 --connections=8 \
  --report="${TMP}/loadgen-tcp-mix.json" 2> "${TMP}/loadgen-tcp-mix.log"

# 5. Graceful drain: SIGTERM => exit 0 with metrics flushed.
kill -TERM "${SERVED_PID}"
SERVED_RC=0
wait "${SERVED_PID}" || SERVED_RC=$?
SERVED_PID=""
if [[ "${SERVED_RC}" -ne 0 ]]; then
  echo "serve_smoke: FAIL — drain exited ${SERVED_RC}" >&2
  cat "${TMP}/served.log" >&2
  exit 1
fi
[[ -s "${TMP}/served.metrics.json" ]] || {
  echo "serve_smoke: FAIL — no metrics artifact after drain" >&2
  exit 1
}
grep -q 'drained' "${TMP}/served.log" || {
  echo "serve_smoke: FAIL — daemon log carries no drain line" >&2
  exit 1
}

echo "serve_smoke: OK"
