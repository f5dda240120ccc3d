package verify_test

import (
	"testing"

	"planp.dev/planp/internal/lang/langtest"
	"planp.dev/planp/internal/lang/verify"
)

// These tests pin the flow-sensitive refinements of the
// guaranteed-delivery analysis: tmem guards, guard invalidation, and the
// literal/port range analysis.

func deliveryOK(t *testing.T, src string) bool {
	t.Helper()
	return verify.Verify(langtest.CheckSrc(t, src)).Delivery.OK
}

func TestGuardThroughAndalsoChain(t *testing.T) {
	if !deliveryOK(t, `
channel network(ps : unit, ss : (host) hash_table, p : ip*udp*blob)
initstate mkTable(4) is
  if udpDst(#2 p) = 9 andalso tmem(ss, ipSrc(#1 p)) andalso true then
    (deliver((#1 p, #2 p, blobFromString(hostToString(tget(ss, ipSrc(#1 p)))))); (ps, ss))
  else
    (deliver(p); (ps, ss))
`) {
		t.Error("tmem inside an andalso chain should guard tget")
	}
}

func TestGuardInvalidatedByTdel(t *testing.T) {
	if deliveryOK(t, `
channel network(ps : unit, ss : (host) hash_table, p : ip*udp*blob)
initstate mkTable(4) is
  if tmem(ss, ipSrc(#1 p)) then
    (tdel(ss, ipSrc(#1 p));
     deliver((#1 p, #2 p, blobFromString(hostToString(tget(ss, ipSrc(#1 p))))));
     (ps, ss))
  else
    (deliver(p); (ps, ss))
`) {
		t.Error("tdel inside the guarded branch must invalidate the guard")
	}
}

func TestGuardInvalidatedByShadowing(t *testing.T) {
	if deliveryOK(t, `
channel network(ps : unit, ss : (int) hash_table, p : ip*udp*blob)
initstate mkTable(4) is
  let val k : int = udpDst(#2 p)
  in
    if tmem(ss, k) then
      let val k : int = udpSrc(#2 p)
      in (deliver(p); (println(tget(ss, k)); (ps, ss))) end
    else
      (deliver(p); (ps, ss))
  end
`) {
		t.Error("a shadowing let must invalidate the guard (different k)")
	}
}

func TestGuardDoesNotCoverDifferentKey(t *testing.T) {
	if deliveryOK(t, `
channel network(ps : unit, ss : (int) hash_table, p : ip*udp*blob)
initstate mkTable(4) is
  if tmem(ss, udpDst(#2 p)) then
    (println(tget(ss, udpSrc(#2 p))); deliver(p); (ps, ss))
  else
    (deliver(p); (ps, ss))
`) {
		t.Error("a guard on one key must not cover a tget on another")
	}
}

func TestGuardNotInElseBranch(t *testing.T) {
	if deliveryOK(t, `
channel network(ps : unit, ss : (int) hash_table, p : ip*udp*blob)
initstate mkTable(4) is
  if tmem(ss, 1) then
    (deliver(p); (ps, ss))
  else
    (println(tget(ss, 1)); deliver(p); (ps, ss))
`) {
		t.Error("the else branch has no membership fact")
	}
}

func TestRangeAnalysisOnGlobals(t *testing.T) {
	// Global literal port: mkUDP cannot raise.
	if !deliveryOK(t, `
val myPort : int = 7002
channel network(ps : unit, ss : unit, p : ip*udp*blob) is
  let val h : udp = mkUDP(myPort, udpSrc(#2 p))
  in (deliver((#1 p, h, #3 p)); (ps, ss)) end
`) {
		t.Error("literal-global port + port accessor should prove mkUDP safe")
	}
	// A computed port is not provably in range.
	if deliveryOK(t, `
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  let val h : udp = mkUDP(ps, udpSrc(#2 p))
  in (deliver((#1 p, h, #3 p)); (ps, ss)) end
`) {
		t.Error("arbitrary int port must fail the range analysis")
	}
}

func TestRangeAnalysisOnAccessors(t *testing.T) {
	// itoc of a blobByte result (0-255) is safe; of an arbitrary sum it
	// is not.
	if !deliveryOK(t, `
channel network(ps : unit, ss : unit, p : ip*udp*blob) is
  (println(itoc(ipTTL(#1 p))); deliver(p); (ps, ss))
`) {
		t.Error("itoc(ipTTL(...)) is provably in byte range")
	}
	if deliveryOK(t, `
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (println(itoc(ps)); deliver(p); (ps, ss))
`) {
		t.Error("itoc of arbitrary int must fail")
	}
}

func TestDivisionByLiteralSafe(t *testing.T) {
	if !deliveryOK(t, `
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (deliver(p); (ps / 2 + ps mod 3, ss))
`) {
		t.Error("division by a non-zero literal cannot raise")
	}
	if deliveryOK(t, `
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (deliver(p); (ps / blobLen(#3 p), ss))
`) {
		t.Error("division by a computed value may raise")
	}
}

func TestFunBodiesAnalyzedInterprocedurally(t *testing.T) {
	// A fun whose body may raise taints its callers...
	if deliveryOK(t, `
fun risky(t : (int) hash_table) : int = tget(t, 1)
channel network(ps : unit, ss : (int) hash_table, p : ip*udp*blob)
initstate mkTable(4) is
  (println(risky(ss)); deliver(p); (ps, ss))
`) {
		t.Error("raising fun must taint the channel")
	}
	// ...unless the call is wrapped in try.
	if !deliveryOK(t, `
fun risky(t : (int) hash_table) : int = tget(t, 1)
channel network(ps : unit, ss : (int) hash_table, p : ip*udp*blob)
initstate mkTable(4) is
  (println(try risky(ss) handle 0 end); deliver(p); (ps, ss))
`) {
		t.Error("try should absorb the fun's exception")
	}
}

// TestGuardNeedsPureKey: a tmem guard covers a tget only when its key
// expression denotes the same value each time it is evaluated. A rand
// key draws again, and a tsize key, read directly or through a fun,
// moves when the guarded branch tputs, so each tget can raise NotFound.
func TestGuardNeedsPureKey(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"rand", `
channel network(ps : unit, ss : (int) hash_table, p : ip*udp*blob)
initstate mkTable(4) is
  if tmem(ss, rand(2)) then
    (println(tget(ss, rand(2))); deliver(p); (ps, ss))
  else
    (deliver(p); (ps, ss))
`},
		{"tsize", `
channel network(ps : unit, ss : (int) hash_table, p : ip*udp*blob)
initstate mkTable(4) is
  if tmem(ss, tsize(ss)) then
    (tput(ss, udpDst(#2 p), 0); println(tget(ss, tsize(ss))); deliver(p); (ps, ss))
  else
    (deliver(p); (ps, ss))
`},
		{"fun", `
fun size(t : (int) hash_table) : int = tsize(t)
channel network(ps : unit, ss : (int) hash_table, p : ip*udp*blob)
initstate mkTable(4) is
  if tmem(ss, size(ss)) then
    (tput(ss, udpDst(#2 p), 0); println(tget(ss, size(ss))); deliver(p); (ps, ss))
  else
    (deliver(p); (ps, ss))
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if deliveryOK(t, tc.src) {
				t.Errorf("a guard on a %s key must not cover a tget on the same expression", tc.name)
			}
		})
	}
}
