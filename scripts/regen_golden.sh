#!/usr/bin/env bash
# Regenerate the golden-plan regression corpus
# (tests/golden/plan-{a,b,c,flat,reconf,d-full}.json) with the real CLI
# binaries, so the corpus is exactly what
#   klotski_synth --family=F --preset=X --scale=S | klotski_plan
# produces (S is reduced except for plan-d-full.json, the full-scale Clos D
# instance perfbench's plan-cold workload plans). Run after an *intentional*
# planner/checker/preset change, review the diff, and commit the updated
# files.
#
# Usage: scripts/regen_golden.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
SYNTH="${BUILD}/tools/klotski_synth"
PLAN="${BUILD}/tools/klotski_plan"
for bin in "${SYNTH}" "${PLAN}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "regen_golden: ${bin} not built (cmake --build ${BUILD})" >&2
    exit 1
  fi
done

TMP="$(mktemp -d)"
trap 'rm -rf "${TMP}"' EXIT
mkdir -p tests/golden

regen() {
  local family="$1" preset="$2" out="$3" scale="${4:-reduced}"
  "${SYNTH}" --family="${family}" --preset="${preset}" --scale="${scale}" \
    --out="${TMP}/${out}.npd.json"
  "${PLAN}" --npd="${TMP}/${out}.npd.json" --planner=astar \
    --out="${TMP}/${out}.json"
  # wall_seconds is the one nondeterministic field; commit it as 0 so the
  # corpus is stable across regeneration runs (the golden test zeroes it on
  # both sides before comparing).
  sed -E 's/"wall_seconds": [0-9.eE+-]+/"wall_seconds": 0/' \
    "${TMP}/${out}.json" > "tests/golden/${out}.json"
  echo "regenerated tests/golden/${out}.json"
}

for preset in A B C; do
  regen clos "${preset}" "plan-$(echo "${preset}" | tr '[:upper:]' '[:lower:]')"
done
regen flat A plan-flat
regen reconf A plan-reconf
regen clos D plan-d-full full
