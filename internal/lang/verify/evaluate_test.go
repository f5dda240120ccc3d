package verify_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"planp.dev/planp/internal/lang/langtest"
	"planp.dev/planp/internal/lang/verify"
)

// These tests pin the one abstract evaluator: a fun body is evaluated
// once per distinct abstract argument vector, and a deletion voids a
// tmem guard wherever it happens after the test.

func TestVerifyLinearInFunNesting(t *testing.T) {
	// f_i(h) = f_{i-1}(f_{i-1}(h)): inlining each call would walk f_0's
	// body 2^40 times.
	var src strings.Builder
	src.WriteString("fun f0(h : ip) : ip = ipDestSet(h, ipSrc(h))\n")
	for i := 1; i <= 40; i++ {
		fmt.Fprintf(&src, "fun f%d(h : ip) : ip = f%d(f%d(h))\n", i, i-1, i-1)
	}
	src.WriteString(`
channel network(ps : unit, ss : unit, p : ip*udp*blob) is
  (deliver((f40(#1 p), #2 p, #3 p)); (ps, ss))
`)
	info := langtest.CheckSrc(t, src.String())
	start := time.Now()
	r := verify.Verify(info)
	if took := time.Since(start); took > time.Second {
		t.Errorf("verifying 40 nested funs took %v, want under 1s", took)
	}
	if !r.AllOK() {
		t.Errorf("nested funs that deliver should verify:\n%s", r)
	}
}

func TestVerifyBoundedArgumentVectors(t *testing.T) {
	// Each f_i calls f_{i-1} at a rotation and at a swap of its ten host
	// arguments, which generate every permutation of the channel's ten
	// literals: 10! distinct argument vectors, were there no bound on
	// the summaries of one fun.
	params, rot, swap := "a0 : host", "a1", "a1, a0"
	for i := 1; i < 10; i++ {
		params += fmt.Sprintf(", a%d : host", i)
		rot += fmt.Sprintf(", a%d", (i+1)%10)
		if i > 1 {
			swap += fmt.Sprintf(", a%d", i)
		}
	}
	var src strings.Builder
	fmt.Fprintf(&src, "fun f0(%s) : host = a0\n", params)
	for i := 1; i <= 40; i++ {
		fmt.Fprintf(&src, "fun f%d(%s) : host = if f%d(%s) = f%d(%s) then a0 else a1\n", i, params, i-1, rot, i-1, swap)
	}
	src.WriteString(`
channel network(ps : unit, ss : unit, p : ip*udp*blob) is
  (deliver((ipDestSet(#1 p, f40(10.0.0.1, 10.0.0.2, 10.0.0.3, 10.0.0.4, 10.0.0.5,
      10.0.0.6, 10.0.0.7, 10.0.0.8, 10.0.0.9, 10.0.0.10)), #2 p, #3 p)); (ps, ss))
`)
	info := langtest.CheckSrc(t, src.String())
	start := time.Now()
	r := verify.Verify(info)
	if took := time.Since(start); took > time.Second {
		t.Errorf("verifying 40 permuting funs took %v, want under 1s", took)
	}
	if !r.AllOK() {
		t.Errorf("permuting funs that deliver should verify:\n%s", r)
	}
}

func TestGuardInvalidatedThroughFun(t *testing.T) {
	const prog = `
fun forget(t : (int) hash_table, k : int) : unit = tdel(t, k)
fun remember(t : (int) hash_table, k : int) : unit = tput(t, k, 0)
channel network(ps : unit, ss : (int) hash_table, p : ip*udp*blob)
initstate mkTable(4) is
  if tmem(ss, 1) then
    (%s(ss, 1); println(tget(ss, 1)); deliver(p); (ps, ss))
  else
    (deliver(p); (ps, ss))
`
	if deliveryOK(t, fmt.Sprintf(prog, "forget")) {
		t.Error("a tdel reached through a fun in the guarded branch must invalidate the guard")
	}
	if !deliveryOK(t, fmt.Sprintf(prog, "remember")) {
		t.Error("a fun that only adds entries leaves the guard standing")
	}
}

func TestGuardInvalidatedLaterInCondition(t *testing.T) {
	if deliveryOK(t, `
channel network(ps : unit, ss : (int) hash_table, p : ip*udp*blob)
initstate mkTable(4) is
  if tmem(ss, 1) andalso (tdel(ss, 1); true) then
    (println(tget(ss, 1)); deliver(p); (ps, ss))
  else
    (deliver(p); (ps, ss))
`) {
		t.Error("a tdel later in the condition must invalidate the guard")
	}
}
