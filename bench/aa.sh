#!/usr/bin/env bash
# A/A check: do two sets of runs of the SAME code agree within the
# benchmark's own bounds?
#
# Runs the untraced pass of every workload BENCHMARK.json lists 2 x N
# times under the labels A and B, alternating which label goes first
# (A B, B A, A B ...), both at seed i in turn i. Prints each side's
# median and quartiles per workload/metric and fails if any pair of
# medians is further apart than half the metric's bound.
#
#   bench/aa.sh            # N=5 per side, seeds 1..N, about 15 minutes
#   N=10 bench/aa.sh
#   REUSE=1 bench/aa.sh    # print the table again from the last run's logs
#
# Logs and the built binary go to bench/out/ (git-ignored).
set -euo pipefail
cd "$(dirname "$0")/.."

N="${N:-5}"
OUT=bench/out/aa
mkdir -p "$OUT"
[[ -n "${REUSE:-}" ]] || rm -f "$OUT"/[AB].*
go build -o "$OUT/planpbench" ./bench/planpbench

WORKLOADS=$(python3 -c 'import json; print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]])')

run() { # label seed
	for w in $WORKLOADS; do
		"$OUT/planpbench" -workload "$w" -seed "$2" >"$OUT/$1.$2.$w.log" 2>"$OUT/$1.$2.$w.err" ||
			{ echo "pass $1 seed $2 workload $w failed:"; cat "$OUT/$1.$2.$w.err"; exit 1; }
		tail -n 1 "$OUT/$1.$2.$w.log" >"$OUT/$1.$2.$w.json"
	done
}

for i in $([[ -n "${REUSE:-}" ]] || seq 1 "$N"); do
	echo "seed $i of $N" >&2
	if (( i % 2 )); then first=A second=B; else first=B second=A; fi
	run "$first" "$i"
	run "$second" "$i"
done

python3 - "$OUT" "$N" $WORKLOADS <<'PY'
import json, statistics, sys
out, n, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
sides = {}
for label in "AB":
    for i in range(1, n + 1):
        for w in workloads:
            r = json.load(open(f"{out}/{label}.{i}.{w}.json"))
            assert r["correct"] and r["failed"] == 0, (label, i, w)
            for k, v in r["metrics"].items():
                sides.setdefault(f"{w}/{k}", {}).setdefault(label, []).append(v["value"])

def q(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3

bad = []
print("| workload/metric | A median (q1..q3) | B median (q1..q3) | A spread | B spread | medians apart | limit |")
print("|---|---|---|---|---|---|---|")
for k in sorted(sides):
    a1, am, a3 = q(sides[k]["A"])
    b1, bm, b3 = q(sides[k]["B"])
    limit = bounds[k.split("/")[1]] / 2
    apart = abs(am - bm) / min(am, bm)
    if apart > limit:
        bad.append(k)
    print(f"| {k} | {am:.5g} ({a1:.5g}..{a3:.5g}) | {bm:.5g} ({b1:.5g}..{b3:.5g}) | "
          f"{(a3-a1)/am:.3f} | {(b3-b1)/bm:.3f} | {apart:.4f}{' **FAIL**' if apart > limit else ''} | {limit:.3f} |")
if bad:
    print(f"\nA/A FAILED: medians further apart than half the bound on: {', '.join(bad)}")
    sys.exit(1)
print(f"\nA/A passed: every pair of medians within half its bound (N={n} passes per side).")
PY
