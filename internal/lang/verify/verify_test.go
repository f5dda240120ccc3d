package verify_test

import (
	"strings"
	"testing"

	"planp.dev/planp/internal/lang/langtest"
	"planp.dev/planp/internal/lang/verify"
)

func run(t *testing.T, src string) *verify.Result {
	t.Helper()
	return verify.Verify(langtest.CheckSrc(t, src))
}

// plainForward is the simplest well-behaved protocol: forward everything
// unchanged.
const plainForward = `
channel network(ps : unit, ss : unit, p : ip*udp*blob)
is (OnRemote(network, p); (ps, ss))
`

func TestPlainForwardPassesAll(t *testing.T) {
	r := run(t, plainForward)
	if !r.AllOK() {
		t.Fatalf("plain forwarding should verify:\n%s", r)
	}
}

func TestDeliverOnlyPasses(t *testing.T) {
	r := run(t, `
channel network(ps : unit, ss : unit, p : ip*udp*blob)
is (deliver(p); (ps, ss))
`)
	if !r.AllOK() {
		t.Fatalf("deliver-only protocol should verify:\n%s", r)
	}
}

func TestPingPongRejected(t *testing.T) {
	// Reflect every packet back to its sender: a classic network cycle.
	r := run(t, `
channel network(ps : unit, ss : unit, p : ip*udp*blob)
is
  let val iph : ip = #1 p
  in
    (OnRemote(network, (ipDestSet(ipSrcSet(iph, ipDst(iph)), ipSrc(iph)), #2 p, #3 p));
     (ps, ss))
  end
`)
	if r.GlobalTermination.OK {
		t.Errorf("ping-pong must fail global termination:\n%s", r)
	}
	if r.Delivery.OK {
		t.Errorf("ping-pong must fail delivery (it cycles):\n%s", r)
	}
}

func TestRewriteToUnknownLoopRejected(t *testing.T) {
	// Each hop rewrites the destination from a table: no progress
	// argument possible, and the channel can re-receive its own sends.
	r := run(t, `
channel network(ps : unit, ss : (host) hash_table, p : ip*udp*blob)
initstate mkTable(8) is
  if tmem(ss, ipDst(#1 p)) then
    (OnRemote(network, (ipDestSet(#1 p, tget(ss, ipDst(#1 p))), #2 p, #3 p)); (ps, ss))
  else
    (OnRemote(network, p); (ps, ss))
`)
	if r.GlobalTermination.OK {
		t.Errorf("unknown-destination rewriting loop must fail global termination:\n%s", r)
	}
}

func TestMonitorHandoffPasses(t *testing.T) {
	// §3.3 shape: a monitor rewrites the destination once (to a value
	// from its table) and hands off to a channel that only delivers.
	r := run(t, `
channel capture(ps : unit, ss : unit, p : ip*udp*blob)
is (deliver(p); (ps, ss))

channel network(ps : unit, ss : (host) hash_table, p : ip*udp*blob)
initstate mkTable(8) is
  if udpDst(#2 p) = 9000 andalso tmem(ss, ipSrc(#1 p)) then
    (OnRemote(capture, (ipDestSet(#1 p, tget(ss, ipSrc(#1 p))), #2 p, #3 p)); (ps, ss))
  else
    (OnRemote(network, p); (ps, ss))
`)
	if !r.GlobalTermination.OK {
		t.Errorf("single rewrite + deliver handoff should pass global termination:\n%s", r)
	}
	// tget/tmem can raise only on... tmem cannot; tget is guarded but the
	// analysis is conservative, so delivery legitimately fails here.
	if r.Duplication.OK == false {
		t.Errorf("handoff duplicates nothing:\n%s", r)
	}
}

func TestGatewayRejectedNetworkWideButSingleNodeOK(t *testing.T) {
	// The §3.2 load balancer rewrites destinations to alternating
	// literals. Installed on every hop it can ping-pong between the two
	// servers, so the network-wide analysis must reject it; the paper
	// deploys it on one gateway node, where it is safe.
	src := `
channel network(ps : int, ss : unit, p : ip*tcp*blob)
is
  if tcpDst(#2 p) = 80 then
    if ps mod 2 = 0 then
      (OnRemote(network, (ipDestSet(#1 p, 10.0.0.2), #2 p, #3 p)); (ps+1, ss))
    else
      (OnRemote(network, (ipDestSet(#1 p, 10.0.0.3), #2 p, #3 p)); (ps+1, ss))
  else
    (OnRemote(network, p); (ps, ss))
`
	info := langtest.CheckSrc(t, src)
	if r := verify.Verify(info); r.GlobalTermination.OK {
		t.Errorf("alternating rewrite must fail network-wide termination:\n%s", r)
	}
	r := verify.VerifyWith(info, verify.Options{SingleNode: true})
	if !r.AllOK() {
		t.Errorf("gateway should verify for single-node deployment:\n%s", r)
	}
}

func TestUnhandledExceptionFailsDelivery(t *testing.T) {
	r := run(t, `
channel network(ps : unit, ss : (host) hash_table, p : ip*udp*blob)
initstate mkTable(8) is
  (OnRemote(network, (ipDestSet(#1 p, tget(ss, ipSrc(#1 p))), #2 p, #3 p)); (ps, ss))
`)
	if r.Delivery.OK {
		t.Errorf("unguarded tget must fail delivery:\n%s", r)
	}
}

func TestTryRestoresDelivery(t *testing.T) {
	r := run(t, `
channel network(ps : unit, ss : (host) hash_table, p : ip*udp*blob)
initstate mkTable(8) is
  let val dst : host = try tget(ss, ipSrc(#1 p)) handle ipDst(#1 p) end
  in (OnRemote(network, (ipDestSet(#1 p, dst), #2 p, #3 p)); (ps, ss)) end
`)
	// Note: the rewrite target is unknown (table), and the fallback is a
	// pure forward; the join makes the destination unknown, but there is
	// no cycle back into this channel... there is: network -> network.
	// The handler path forwards unchanged (progress) but the table path
	// rewrites to unknown, so termination conservatively fails — which
	// is exactly the paper's "legitimate protocols may be rejected".
	if r.Delivery.OK && !r.GlobalTermination.OK {
		t.Errorf("delivery cannot pass when termination failed:\n%s", r)
	}
	if mayRaiseFailed := strings.Contains(r.Delivery.Detail, "exception"); mayRaiseFailed {
		t.Errorf("try/handle should cover the tget exception:\n%s", r)
	}
}

func TestDropFailsDelivery(t *testing.T) {
	r := run(t, `
channel network(ps : int, ss : unit, p : ip*udp*blob)
is
  if udpDst(#2 p) = 7 then (ps, ss)
  else (OnRemote(network, p); (ps, ss))
`)
	if r.Delivery.OK {
		t.Errorf("intentional drop must fail delivery:\n%s", r)
	}
	if !strings.Contains(r.Delivery.Detail, "drops") {
		t.Errorf("detail should mention the drop, got %q", r.Delivery.Detail)
	}
}

func TestMulticastDuplicationRejected(t *testing.T) {
	// Two sends on one path, and the target channel loops back: the
	// paper's canonical exponential-duplication example.
	r := run(t, `
channel network(ps : unit, ss : unit, p : ip*udp*blob)
is
  (OnRemote(network, (ipDestSet(#1 p, 10.0.0.2), #2 p, #3 p));
   OnRemote(network, (ipDestSet(#1 p, 10.0.0.3), #2 p, #3 p));
   (ps, ss))
`)
	if r.Duplication.OK {
		t.Errorf("2-way copy into own channel must fail duplication:\n%s", r)
	}
}

// TestSendsInRaiseMessageCount: a raise's message is evaluated before
// the raise, so its sends happen, and then the handler sends again. This
// program forwards three copies of every packet back into its own
// channel; the duplication analysis must count all three.
func TestSendsInRaiseMessageCount(t *testing.T) {
	r := run(t, `
channel network(ps : unit, ss : unit, p : ip*udp*blob)
is
  try raise (OnRemote(network, p); OnRemote(network, p); "boom")
  handle (OnRemote(network, p); (ps, ss))
  end
`)
	if r.Duplication.OK {
		t.Errorf("three sends on one path into its own channel must fail duplication:\n%s", r)
	}
	if !r.Delivery.OK {
		t.Errorf("the handler forwards, so delivery holds:\n%s", r)
	}
	if r.Err() == nil {
		t.Error("Err on a program that fails duplication = nil")
	}
}

func TestFanOutWithoutCycleAccepted(t *testing.T) {
	// Copying into a channel that only delivers is linear duplication.
	r := run(t, `
channel sink(ps : unit, ss : unit, p : ip*udp*blob)
is (deliver(p); (ps, ss))

channel network(ps : unit, ss : unit, p : ip*udp*blob)
is
  (OnRemote(sink, (ipDestSet(#1 p, 10.0.0.2), #2 p, #3 p));
   OnRemote(sink, (ipDestSet(#1 p, 10.0.0.3), #2 p, #3 p));
   (ps, ss))
`)
	if !r.Duplication.OK {
		t.Errorf("bounded fan-out into a sink is linear:\n%s", r)
	}
}

func TestOnNeighborFloodRejected(t *testing.T) {
	r := run(t, `
channel network(ps : unit, ss : unit, p : ip*udp*blob)
is (OnNeighbor(network, p); (ps, ss))
`)
	if r.Duplication.OK {
		t.Errorf("self-flooding must fail duplication:\n%s", r)
	}
	if r.GlobalTermination.OK {
		t.Errorf("self-flooding must fail termination:\n%s", r)
	}
}

func TestAudioShapedProtocolPasses(t *testing.T) {
	// §3.1 shape: degrade payload based on link load, forward unchanged
	// destination; client restores and delivers. Must pass everything.
	r := run(t, `
channel audiocast(ps : int, ss : int, p : ip*udp*blob)
is
  let
    val iph : ip = #1 p
    val load : int = linkLoadTo(ipDst(iph))
    val body : blob = try
        (if load > 80 then audioToMono8(#3 p)
         else if load > 50 then audioToMono16(#3 p)
         else #3 p)
      handle #3 p end
  in
    (OnRemote(audiocast, (iph, #2 p, body)); (ps, load))
  end
`)
	if !r.AllOK() {
		t.Fatalf("audio adaptation protocol should verify:\n%s", r)
	}
}

func TestResultErr(t *testing.T) {
	good := run(t, plainForward)
	if err := good.Err(); err != nil {
		t.Errorf("Err on passing result = %v, want nil", err)
	}
	bad := run(t, `
channel network(ps : unit, ss : unit, p : ip*udp*blob)
is (ps, ss)
`)
	err := bad.Err()
	if err == nil {
		t.Fatal("Err on failing result = nil")
	}
	if !strings.Contains(err.Error(), "delivery") {
		t.Errorf("error should name the failing analysis, got %v", err)
	}
}
