#!/bin/sh
# go test, but a -run pattern that matches nothing is a failure: plain
# `go test -run PAT ./pkg` exits 0 with "no tests to run", so a test
# that moves packages would silently empty the CI step that names it.
# Every listed package must run at least one test.
#
#   scripts/gotest-must-run.sh -race -run 'TestFoo' ./internal/a/ ./internal/b/
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
