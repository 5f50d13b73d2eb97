#!/usr/bin/env bash
# Paired comparison of two commits on this benchmark.
#
#   bash benchmark/compare.sh <base-rev> <change-rev> [pairs] [workload...]
#
# Both revisions are checked out into git worktrees under
# .bench_build/compare and given this checkout's benchmark/ and
# BENCHMARK.json, so the two sides differ only in the system under test.
# Each pair runs both sides for run_seconds on one seed (SEED0 + pair),
# alternating which side goes first. The report prints each side's
# median and quartiles per (workload, metric), how many pairs the change
# won, and a label: improved, unchanged, regressed or unresolved (see
# README.md, "Comparing two commits"). pairs defaults to 10, the minimum
# for a claim; workloads default to all four.
set -euo pipefail

usage="usage: compare.sh <base-rev> <change-rev> [pairs] [workload...]"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
base_rev=${1:?$usage}
change_rev=${2:?$usage}
pairs=${3:-10}
shift $(($# < 3 ? $# : 3))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(suite-verified modules-jit serve-hotcold corpus-batch)
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$root/BENCHMARK.json")
seed0=${SEED0:-1000}
out="$root/.bench_build/compare"
unset CARGO_TARGET_DIR # each side builds into its own worktree
results="$out/results"

cleanup() {
	for side in base change; do
		git -C "$root" worktree remove --force "$out/$side" 2>/dev/null || true
	done
}
trap cleanup EXIT
cleanup
rm -rf "$results"
mkdir -p "$results"
for side in base change; do
	rev=$base_rev
	[ "$side" = change ] && rev=$change_rev
	git -C "$root" worktree add --detach "$out/$side" "$rev" >/dev/null
	rm -rf "$out/$side/benchmark"
	cp -R "$root/benchmark" "$out/$side/benchmark"
	cp "$root/BENCHMARK.json" "$out/$side/BENCHMARK.json"
done

# run <side> <workload> <seed> appends the run's result line.
run() {
	local line
	line=$(cd "$out/$1" && bash benchmark/run.sh -workload "$2" -seed "$3" -seconds "$seconds" -trace 0 | tail -n 1) || true
	case $line in
	'{'*) echo "$line" >>"$results/$2.$1.jsonl" ;;
	*)
		echo "compare.sh: $1 ($2, seed $3) printed no result" >&2
		exit 1
		;;
	esac
}

for w in "${workloads[@]}"; do
	for i in $(seq 1 "$pairs"); do
		seed=$((seed0 + i))
		if [ $((i % 2)) -eq 1 ]; then
			run base "$w" "$seed"
			run change "$w" "$seed"
		else
			run change "$w" "$seed"
			run base "$w" "$seed"
		fi
	done
done
"$out/base/.bench_build/lsra-benchmark" -compare "$results" -spec "$root/BENCHMARK.json"
