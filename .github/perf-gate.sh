#!/usr/bin/env bash
# End-to-end regression gate. Runs the benchmark's pushdown workload on a
# base and a head checkout in alternating pairs, and fails when a run
# fails or when head's median query_p50_us is worse than base's by more
# than the bound base's BENCHMARK.json gives that metric.
#
#   bash .github/perf-gate.sh BASE_DIR HEAD_DIR        # 3 pairs, about 3 min
#   bash .github/perf-gate.sh compare BASE.jsonl HEAD.jsonl BOUND
#
# Each run's ledger line, {"record": …, "result": …} from the first and
# last of perfbench's JSON output lines, goes to base.jsonl or head.jsonl
# in $PERF_GATE_OUT (default: a new temporary directory), ready to append
# to BENCH_ledger.jsonl. The compare form applies the same test to such
# files without running anything.
set -euo pipefail

metric=query_p50_us

median() {
	sort -g | awk '{ v[NR] = $1 } END { if (NR == 0) exit 1; print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

compare() { # BASE.jsonl HEAD.jsonl BOUND
	local base head
	base=$(jq -r ".result.metrics.$metric.value" "$1" | median)
	head=$(jq -r ".result.metrics.$metric.value" "$2" | median)
	echo "median $metric: base $base, head $head, bound +$3 of base"
	if awk -v b="$base" -v h="$head" -v x="$3" 'BEGIN { exit !(h > b * (1 + x)) }'; then
		echo "FAIL: head's median $metric is worse than base's by more than the bound"
		return 1
	fi
	echo "ok"
}

if [ "${1:-}" = compare ]; then
	compare "$2" "$3" "$4"
	exit
fi

base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
out=${PERF_GATE_OUT:-$(mktemp -d)}
mkdir -p "$out"
: >"$out/base.jsonl"
: >"$out/head.jsonl"

run() { # SIDE DIR PAIR
	local log="$out/$1-$3.log"
	echo "pair $3: $1 ($2)"
	(cd "$2" && bash perfbench/run.sh --workload pushdown --seed 1 --seconds 10 --trace 0) >"$log" 2>&1 || {
		cat "$log"
		echo "FAIL: the $1 run of pair $3 exited non-zero"
		exit 1
	}
	grep '^{' "$log" | jq -cs '{record: .[0].record, result: .[-1]}' >>"$out/$1.jsonl"
}

for i in 1 2 3; do
	if [ $((i % 2)) = 1 ]; then
		run base "$base" "$i"
		run head "$head" "$i"
	else
		run head "$head" "$i"
		run base "$base" "$i"
	fi
done
echo "ledger lines in $out/base.jsonl and $out/head.jsonl"
compare "$out/base.jsonl" "$out/head.jsonl" \
	"$(jq -r ".end_to_end[] | select(.name == \"$metric\") | .bound" "$base/BENCHMARK.json")"
