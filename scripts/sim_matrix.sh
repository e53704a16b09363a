#!/usr/bin/env bash
# wdmsim -json equivalence matrix (make sim-matrix OUT=<dir>).
#
# Builds wdmsim once from this tree and runs 59 configurations of a
# 8x8 switch, k = 16, circular d = 3, load 0.9, 1500 slots, seed 5: five
# schedulers under every engine and mode (plain, -distributed, -nodes 2,
# faults, QoS classes, disturb with holds, faults with disturb over the
# cluster), then single rows for non-circular First Available, full range,
# the other selectors, hotspot and bursty arrivals under -validate, and
# wide windows (k = 256 with d = 41, k = 130 with d = 25) with holds.
#
# Each configuration writes <outdir>/<name>.json, <name> being its flags
# beyond the common ones. A configuration wdmsim rejects writes
# <name>.rejected instead (exit code and stderr) and is listed in
# <outdir>/rejected.txt. Two trees are equivalent on the matrix when
# `diff -r` of their output directories is empty.
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:?usage: sim_matrix.sh <outdir>}
mkdir -p "$out"
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/wdmsim" ./cmd/wdmsim

common="-n 8 -k 16 -d 3 -load 0.9 -slots 1500 -seed 5 -json"
faults="-convfail 0.05 -darkfail 0.05"
configs=()
for s in exact fast break-first-available shortest-edge hopcroft-karp; do
  sc="-scheduler $s"
  configs+=("$sc" "$sc -distributed" "$sc -nodes 2" "$sc $faults" "$sc -classes 3"
    "$sc -disturb -hold 3" "$sc -disturb -hold 3 -distributed"
    "$sc $faults -hold 3 -disturb -nodes 2")
done
configs+=(
  "-classes 3 -hold 2" "-classes 3 -hold 2 -distributed" "-classes 3 -hold 2 $faults"
  "-kind noncircular -scheduler first-available"
  "-kind noncircular -scheduler first-available $faults"
  "-kind full -disturb -hold 3"
  "-selector random" "-selector fixed-priority"
  "-workload hotspot -validate" "-workload bursty -validate"
)
wide="-k 256 -d 41 -hold 3"
configs+=("$wide" "$wide -distributed" "$wide -nodes 2" "$wide $faults" "$wide -disturb"
  "$wide -classes 3" "$wide -classes 3 -distributed" "$wide -workload hotspot"
  "-k 130 -d 25 -hold 3 -distributed")

: > "$out/rejected.txt"
for c in "${configs[@]}"; do
  name=$(echo "$c" | sed 's/^-//; s/ -/_/g; s/ /=/g')
  # Later flags win, so a row's own -k/-d override the common ones.
  if "$bin/wdmsim" $common $c > "$out/$name.json" 2> "$bin/stderr"; then
    continue
  else
    code=$?
  fi
  rm -f "$out/$name.json"
  { echo "exit $code"; cat "$bin/stderr"; } > "$out/$name.rejected"
  echo "$name" >> "$out/rejected.txt"
done
echo "sim-matrix: ${#configs[@]} configurations, $(wc -l < "$out/rejected.txt") rejected -> $out"
