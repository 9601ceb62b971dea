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
# Usage:
#   tools/check_paper_outputs.sh OLD_BUILD NEW_BUILD
# where each BUILD is a CMake build directory holding bench/<name> binaries,
# e.g. tools/check_paper_outputs.sh ../parent/build build
#
# Exits 0 when every bench's output is identical, 1 otherwise (the diff of
# each differing bench is printed), 2 on bad usage or a missing binary.

set -uo pipefail

if [ $# -ne 2 ]; then
  echo "usage: check_paper_outputs.sh OLD_BUILD NEW_BUILD" >&2
  exit 2
fi
old=$1
new=$2
args=(--slots=30000 --reps=2 --seed=5)
benches=(fig09_kickouts fig10_insert_access fig11_first_failure
         fig12_lookup_existing fig13_lookup_missing fig14_deletion
         fig15_insert_latency fig16_lookup_latency
         table1_first_collision table2_stash_single table3_stash_blocked
         ablation_design_choices ablation_stash_kind)

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
for b in "${benches[@]}"; do
  for side in old new; do
    dir=$old
    [ "$side" = new ] && dir=$new
    if [ ! -x "$dir/bench/$b" ]; then
      echo "missing binary: $dir/bench/$b" >&2
      exit 2
    fi
    if ! "$dir/bench/$b" "${args[@]}" | blank_wall_clock >"$tmp/$side"; then
      echo "FAIL: $b ($side) exited non-zero"
      fail=1
    fi
  done
  if diff -u "$tmp/old" "$tmp/new" >"$tmp/diff"; then
    echo "identical: $b"
  else
    echo "DIFFERS: $b"
    cat "$tmp/diff"
    fail=1
  fi
done
exit $fail
