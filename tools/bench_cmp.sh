#!/usr/bin/env bash
# Runs the deterministic benches from two build trees and requires their
# outputs to be byte-identical: every BENCH_*.json a bench writes and the
# bench's stdout. A change that claims to leave every modeled result alone
# (a refactor, a host-speed optimisation) must pass this against its parent.
#
#   tools/bench_cmp.sh <parent-build> <change-build>
#
# Each argument is a CMake build directory with the bench/ targets built (a
# Release build runs fastest). The benches run at their default sizes, except
# fig3 (FIG3_ROWS=65536) and fig4 (FIG4_SCALE=0.01); each run gets its own
# temporary directory, and the two builds of one bench run side by side.
# Exits 0 when every pair matches, 1 on any difference or failed bench (the
# run directories are then kept for inspection), 2 on bad usage.
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 <parent-build> <change-build>" >&2
  exit 2
fi
parent=$(cd "$1" && pwd) || exit 2
change=$(cd "$2" && pwd) || exit 2

# <bench>|<environment assignments>
runs=(
  "abl_runtime|"
  "abl_join|"
  "abl_serving|"
  "abl_faults|"
  "abl_scaling|"
  "abl_bank_filter|"
  "abl_contention|"
  "abl_rowstore|"
  "abl_compression|"
  "abl_aggregation|"
  "abl_projection|"
  "abl_sort|"
  "abl_groupby|"
  "abl_page_policy|"
  "abl_predication|"
  "abl_indexing|"
  "abl_q1_pipeline|"
  "abl_speed_grades|"
  "abl_energy|"
  "abl_interleaving|"
  "abl_scheduler|"
  "fig3_select_speedup|FIG3_ROWS=65536"
  "fig4_idle_periods|FIG4_SCALE=0.01"
)

for entry in "${runs[@]}"; do
  bench=${entry%%|*}
  for build in "$parent" "$change"; do
    if [ ! -x "$build/bench/$bench" ]; then
      echo "missing $build/bench/$bench" >&2
      exit 2
    fi
  done
done

work=$(mktemp -d "${TMPDIR:-/tmp}/bench_cmp.XXXXXX")
status=0
for entry in "${runs[@]}"; do
  bench=${entry%%|*}
  vars=${entry#*|}
  start=$(date +%s)
  for side in parent change; do
    build=$parent
    [ "$side" = change ] && build=$change
    dir=$work/$bench/$side
    mkdir -p "$dir"
    # shellcheck disable=SC2086  # $vars is a list of assignments
    (cd "$dir" && env $vars "$build/bench/$bench" >stdout.txt 2>stderr.txt
     echo $? >exit_code) &
  done
  wait
  for side in parent change; do
    rc=$(cat "$work/$bench/$side/exit_code")
    if [ "$rc" != 0 ]; then
      echo "FAIL  $bench ($side build) exited $rc; see $work/$bench/$side"
      status=1
    fi
  done
  files=$( (cd "$work/$bench/parent" && ls BENCH_*.json 2>/dev/null
            cd "$work/$bench/change" && ls BENCH_*.json 2>/dev/null) |
          sort -u)
  for f in $files stdout.txt; do
    if cmp -s "$work/$bench/parent/$f" "$work/$bench/change/$f"; then
      echo "same  $bench/$f"
    else
      echo "DIFF  $bench/$f"
      status=1
    fi
  done
  echo "      ($bench: $(($(date +%s) - start)) s)"
done

if [ "$status" = 0 ]; then
  rm -rf "$work"
  echo "bench_cmp: all outputs byte-identical"
else
  echo "bench_cmp: differences found; run directories kept in $work"
fi
exit "$status"
