#!/bin/sh
# Regenerate the tracked performance snapshots from the gated benchmark
# itself, so the trajectory in the repository and the numbers the
# pipeline holds a change to cannot disagree:
#
#   BENCH_e2e.json     one `planpbench -workload all -trace 0` pass
#                      (ops_s, setup_s, alloc_b_op per workload)
#   BENCH_layers.json  one `planpbench -workload all -trace 1` pass
#                      (every per-layer rung of BENCHMARK.json)
#
# Each file holds the run's host line (Go version, nproc, GOMAXPROCS,
# seed, seconds) and its final JSON line, verbatim. A failed output
# check or op fails the script and leaves the tracked files alone.
#
#   scripts/bench-snapshot.sh          # ~5 min; what `make bench` runs
#   scripts/bench-snapshot.sh -smoke   # seconds; tiny rounds, files go to
#                                      # a temporary directory (CI runs
#                                      # this so the script cannot rot)
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
out=. smoke=
if [ "${1:-}" = "-smoke" ]; then
	out=$tmp smoke=-smoke
fi
go build -o "$tmp/planpbench" ./bench/planpbench

# snapshot TRACE FILE: one pass over every workload. planpbench exits
# non-zero unless correct=true and failed=0.
snapshot() {
	"$tmp/planpbench" -workload all -trace "$1" $smoke >"$tmp/log" || {
		cat "$tmp/log"
		exit 1
	}
	cat "$tmp/log"
	printf '{\n  "generated_by": "scripts/bench-snapshot.sh",\n  "host": "%s",\n  "result": %s\n}\n' \
		"$(head -n 1 "$tmp/log")" "$(tail -n 1 "$tmp/log")" >"$tmp/snap.json"
	mv "$tmp/snap.json" "$out/$2"
	echo "bench-snapshot: wrote $out/$2"
}
snapshot 0 BENCH_e2e.json
snapshot 1 BENCH_layers.json
