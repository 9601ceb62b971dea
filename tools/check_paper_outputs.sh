#!/usr/bin/env bash
# Runs every paper-figure bench (fig09-fig16, Tables I-III and the design
# and stash-kind ablations) from two build trees at the same fixed seed and
# diffs their stdout. A refactor that keeps the paper's AccessStats model
# intact reports every bench identical. The only excluded output is the
# p50/p99/p999 bucket values of the sampled wall-clock rows of fig15
# ("measured wall-clock insert latency") and fig16 ("measured wall-clock
# lookup latency"): they differ between any two runs, even of one binary.
# Those rows' scheme names and samples= counts are still compared.
#
# It then runs the eviction-policy ablation, the one bench that drives every
# table under MinCounter, BFS and bubbling as well as the random walk, with
# MCCUCKOO_BENCH_JSON pointing at a per-side temporary file, and diffs the
# `*.kicks_per_insert` and `*.first_failure_load` keys of every scheme x
# policy row (its `*.ops_per_sec` keys and its stdout are wall-clock).
#
# Usage:
#   tools/check_paper_outputs.sh OLD_BUILD NEW_BUILD
#   tools/check_paper_outputs.sh --list   # the bench targets it runs
# where each BUILD is a CMake build directory holding bench/<name> binaries,
# e.g. tools/check_paper_outputs.sh ../parent/build build
#
# Exits 0 when every compared output is identical, 1 otherwise (the diff of
# each differing bench is printed), 2 on bad usage or a missing binary.

set -uo pipefail

args=(--slots=30000 --reps=2 --seed=5)
benches=(fig09_kickouts fig10_insert_access fig11_first_failure
         fig12_lookup_existing fig13_lookup_missing fig14_deletion
         fig15_insert_latency fig16_lookup_latency
         table1_first_collision table2_stash_single table3_stash_blocked
         ablation_design_choices ablation_stash_kind)
policy_bench=ablation_eviction

if [ $# -eq 1 ] && [ "$1" = --list ]; then
  echo "${benches[@]}" "$policy_bench"
  exit 0
fi
if [ $# -ne 2 ]; then
  echo "usage: check_paper_outputs.sh OLD_BUILD NEW_BUILD | --list" >&2
  exit 2
fi
old=$1
new=$2

for b in "${benches[@]}" "$policy_bench"; do
  for dir in "$old" "$new"; do
    if [ ! -x "$dir/bench/$b" ]; then
      echo "missing binary: $dir/bench/$b" >&2
      exit 2
    fi
  done
done

# Blanks the percentile values in the rows of a wall-clock block (the
# indented lines below its header); everything else passes unchanged.
blank_wall_clock() {
  awk '/^measured wall-clock (insert|lookup) latency/ { block = 1; print; next }
       block && /^  / { gsub(/<=[0-9]+/, "<=_"); print; next }
       { block = 0; print }'
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail=0
# Diffs $tmp/old against $tmp/new and reports the result under name $1.
compare() {
  if diff -u "$tmp/old" "$tmp/new" >"$tmp/diff"; then
    echo "identical: $1"
  else
    echo "DIFFERS: $1"
    cat "$tmp/diff"
    fail=1
  fi
}

for b in "${benches[@]}"; do
  for side in old new; do
    dir=$old
    [ "$side" = new ] && dir=$new
    if ! "$dir/bench/$b" "${args[@]}" | blank_wall_clock >"$tmp/$side"; then
      echo "FAIL: $b ($side) exited non-zero"
      fail=1
    fi
  done
  compare "$b"
done

for side in old new; do
  dir=$old
  [ "$side" = new ] && dir=$new
  if ! MCCUCKOO_BENCH_JSON="$tmp/$side.json" "$dir/bench/$policy_bench" \
      "${args[@]}" >/dev/null; then
    echo "FAIL: $policy_bench ($side) exited non-zero"
    fail=1
  fi
  grep -E '\.(kicks_per_insert|first_failure_load)"' "$tmp/$side.json" \
    >"$tmp/$side"
done
compare "$policy_bench (kicks_per_insert, first_failure_load: $(wc -l <"$tmp/new") keys)"
exit $fail
