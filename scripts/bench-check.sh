#!/bin/sh
# Hold each workload's allocation per op to the tracked snapshot. Unlike
# a rate, alloc_b_op at a fixed seed repeats run to run and machine to
# machine (same Go release, GOMAXPROCS 1 as planpbench sets it), so it
# can be gated: every workload below runs once at seed 1 for three
# seconds, and the script fails if its alloc_b_op leaves the band around
# the value committed in BENCH_e2e.json. docs/PERFORMANCE.md gives the
# ten runs the band is measured from. A change that moves memory on
# purpose refreshes the snapshot (scripts/bench-snapshot.sh) in the same
# commit, so the trajectory in git is the trajectory of the code.
#
# planpbench itself fails a run whose output check fails; for sim_city
# that is the seed-1 report against bench/golden/sim_city.seed1.txt,
# byte for byte.
#
#   scripts/bench-check.sh    # ~1 min
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/planpbench" ./bench/planpbench

# The largest relative distance from the snapshot that passes: about
# eight times the largest one measured (deploy, whose 20 s snapshot and
# 3 s runs differ by 0.013 %). On the three packet workloads it is under
# one byte per op.
band=0.001

# value KEY: the number after "KEY":{"value": on standard input.
value() {
	grep -o "\"$1\":{\"value\":[-+.0-9eE]*" | sed 's/.*://'
}

status=0
for w in sim_gateway rt_gateway compile deploy sim_city; do
	"$tmp/planpbench" -workload "$w" -seed 1 -seconds 3 >"$tmp/log" || {
		cat "$tmp/log"
		exit 1
	}
	got=$(tail -n 1 "$tmp/log" | value alloc_b_op)
	want=$(value "$w/alloc_b_op" <BENCH_e2e.json)
	if awk -v got="$got" -v want="$want" -v b="$band" \
		'BEGIN { d = (got - want) / want; exit !(d <= b && -d <= b) }'; then
		verdict=ok
	else
		verdict=FAIL
		status=1
	fi
	printf 'bench-check: %-11s alloc_b_op %12.4f B, committed %12.4f B: %s\n' \
		"$w" "$got" "$want" "$verdict"
done
if [ "$status" -ne 0 ]; then
	echo "bench-check: alloc_b_op left its band; if the move is meant, refresh BENCH_e2e.json with scripts/bench-snapshot.sh" >&2
fi
exit "$status"
