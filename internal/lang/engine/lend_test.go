package engine_test

import (
	"testing"

	"planp.dev/planp/internal/lang/engine"
	"planp.dev/planp/internal/lang/langtest"
	"planp.dev/planp/internal/lang/value"
	"planp.dev/planp/internal/substrate"
)

// The JIT builds a header a primitive returns straight into a tuple that
// is only borrowed — a send's packet, a table key — in memory the
// instance owns, and rewrites it the next time that site runs. These
// tests pin where that is sound, on every engine: each engine must give
// the answer interp does with a fresh header everywhere.

// run downloads src on every engine and invokes channel 0 on each packet
// in turn, failing on any error; check sees each engine's context and
// instance afterwards.
func run(t *testing.T, src string, pkts []value.Value, check func(engine string, ctx *langtest.Ctx, inst *engine.Instance)) {
	t.Helper()
	for name, c := range langtest.CompileAll(t, src) {
		ctx := langtest.NewCtx()
		inst, err := c.NewInstance(ctx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, pkt := range pkts {
			if err := inst.Invoke(0, ctx, pkt); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		check(name, ctx, inst)
	}
}

// TestLentHeaderSiteCalledTwice: one setter site in a fun, run twice in
// one invocation, hands out two packets, each with its own destination.
func TestLentHeaderSiteCalledTwice(t *testing.T) {
	const src = `
fun hand(p : ip*tcp*blob, to : host) : unit = deliver((ipDestSet(#1 p, to), #2 p, #3 p))

channel network(ps : int, ss : int, p : ip*tcp*blob) is
  (hand(p, 10.0.0.7); hand(p, 10.0.0.8); (ps + 1, ss))
`
	pkt := langtest.TCPPacket("10.0.1.1", "10.0.0.100", 4001, 80, []byte("GET /"))
	run(t, src, []value.Value{pkt}, func(name string, ctx *langtest.Ctx, _ *engine.Instance) {
		if len(ctx.Delivered) != 2 {
			t.Fatalf("%s: %d packets delivered, want 2", name, len(ctx.Delivered))
		}
		for i, want := range []string{"10.0.0.7", "10.0.0.8"} {
			if h := ctx.Delivered[i].Vs[0].AsIP(); h.Dst != substrate.MustAddr(want) || h.Src != substrate.MustAddr("10.0.1.1") {
				t.Errorf("%s: packet %d goes %s -> %s, want 10.0.1.1 -> %s", name, i, h.Src, h.Dst, want)
			}
		}
	})
}

// TestKeptHeaderIsNotLent: a setter in the channel body's result pair is
// not lent — the state keeps it — so the header the first packet left in
// the state survives the same site running on later packets.
func TestKeptHeaderIsNotLent(t *testing.T) {
	const src = `
channel network(ps : ip, ss : ip, p : ip*udp*blob) is
  (ipDestSet(#1 p, 10.0.0.9), if ipSrc(ss) = 0.0.0.0 then ps else ss)
`
	var pkts []value.Value
	for _, from := range []string{"10.0.1.1", "10.0.1.2", "10.0.1.3"} {
		pkts = append(pkts, langtest.UDPPacket(from, "10.0.0.2", 7, 9, []byte("x")))
	}
	run(t, src, pkts, func(name string, _ *langtest.Ctx, inst *engine.Instance) {
		first, last := inst.Chans[0].AsIP(), inst.Proto.AsIP()
		if first.Src != substrate.MustAddr("10.0.1.1") || first.Dst != substrate.MustAddr("10.0.0.9") {
			t.Errorf("%s: channel state %s, want the first packet's header rewritten to 10.0.0.9", name, inst.Chans[0])
		}
		if last.Src != substrate.MustAddr("10.0.1.3") || last == first {
			t.Errorf("%s: protocol state %s, want the last packet's header, a header of its own", name, inst.Proto)
		}
	})
}

// TestRaisingSetterLeavesNextSendCorrect: a setter that raises out of
// range halfway through building its header into a send's tuple, inside
// a try, leaves that site and the next send correct.
func TestRaisingSetterLeavesNextSendCorrect(t *testing.T) {
	const src = `
channel network(ps : int, ss : int, p : ip*tcp*blob) is
  (try OnRemote(network, (#1 p, tcpDstSet(#2 p, blobLen(#3 p) * 10000), #3 p)) handle () end;
   OnRemote(network, (#1 p, tcpDstSet(#2 p, 8080), #3 p));
   (ps + 1, ss))
`
	pkts := []value.Value{
		langtest.TCPPacket("10.0.1.1", "10.0.0.2", 4001, 80, []byte("abcdefg")), // 70000: raises
		langtest.TCPPacket("10.0.1.1", "10.0.0.2", 4002, 80, []byte("abc")),
		langtest.TCPPacket("10.0.1.1", "10.0.0.2", 4003, 80, []byte("abcdefgh")), // raises
	}
	want := [][2]uint16{{4001, 8080}, {4002, 30000}, {4002, 8080}, {4003, 8080}}
	run(t, src, pkts, func(name string, ctx *langtest.Ctx, inst *engine.Instance) {
		if len(ctx.Sent) != len(want) || inst.Proto.AsInt() != 3 {
			t.Fatalf("%s: %d sends, ps=%s; want %d sends, ps=3", name, len(ctx.Sent), inst.Proto, len(want))
		}
		for i, w := range want {
			if h := ctx.Sent[i].Pkt.Vs[1].AsTCP(); h.SrcPort != w[0] || h.DstPort != w[1] {
				t.Errorf("%s: send %d is port %d -> %d, want %d -> %d", name, i, h.SrcPort, h.DstPort, w[0], w[1])
			}
		}
	})
}
