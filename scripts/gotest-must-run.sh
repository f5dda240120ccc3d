#!/bin/sh
# go test, but a -run pattern that matches nothing is a failure: plain
# `go test -run PAT ./pkg` exits 0 with "no tests to run", so a test
# that moves packages would silently empty the CI step that names it.
#
# Two checks. Before the run, each top-level '|' alternative of -run
# (cut at its first top-level '/', which names subtests; '^$' exempt)
# must be listed by `go test -list` over the packages, so one dead name
# beside live ones fails too. After the run, every listed package must
# have run at least one test. Packages are given as relative paths
# (`.` or `./pkg/`).
#
#   scripts/gotest-must-run.sh -race -run 'TestFoo|TestBar/sub' ./internal/a/ ./internal/b/
run=
prev=
pkgs=
for arg in "$@"; do
	case $prev in
	-run) run=$arg ;;
	esac
	case $arg in
	-run=*) run=${arg#-run=} ;;
	. | ./*) pkgs="$pkgs $arg" ;;
	esac
	prev=$arg
done

# One alternative a line: split at '|' and cut at '/' outside () and [].
alternatives=$(printf '%s\n' "$run" | awk '{
	depth = 0; alt = ""; cut = 0
	for (i = 1; i <= length($0); i++) {
		c = substr($0, i, 1)
		if (c == "\\" && i < length($0)) {
			if (!cut) alt = alt c substr($0, i + 1, 1)
			i++
			continue
		}
		if (c == "(" || c == "[") depth++
		if (c == ")" || c == "]") depth--
		if (depth == 0 && c == "|") { print alt; alt = ""; cut = 0; continue }
		if (depth == 0 && c == "/") cut = 1
		if (!cut) alt = alt c
	}
	print alt
}')

if [ -n "$run" ]; then
	dead=
	while IFS= read -r alt; do
		[ "$alt" = '^$' ] && continue
		# shellcheck disable=SC2086 # $pkgs is a list of package paths
		listed=$(go test -list "$alt" $pkgs) || {
			printf '%s\n' "$listed"
			exit 1
		}
		if ! printf '%s\n' "$listed" | grep -v -e '^ok ' -e '^?' | grep -q .; then
			dead="$dead $alt"
		fi
	done <<EOF
$alternatives
EOF
	if [ -n "$dead" ]; then
		echo "gotest-must-run: no test in$pkgs matches:$dead (moved or renamed?)" >&2
		exit 1
	fi
fi

log=$(mktemp)
trap 'rm -f "$log"' EXIT
go test "$@" >"$log" 2>&1
status=$?
cat "$log"
if [ "$status" -ne 0 ]; then
	exit "$status"
fi
if grep -q 'no tests to run' "$log"; then
	echo "gotest-must-run: a package matched no tests (moved or renamed?)" >&2
	exit 1
fi
