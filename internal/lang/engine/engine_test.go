package engine_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/engine"
	"planp.dev/planp/internal/lang/langtest"
	"planp.dev/planp/internal/lang/value"
	"planp.dev/planp/internal/substrate"
)

// gateway is a condensed version of the paper's figure-2 load-balancing
// fragment: HTTP requests are redirected to one of two physical servers,
// all other traffic is passed through.
const gateway = `
val serverA : host = 10.0.0.2
val serverB : host = 10.0.0.3

fun pick(n : int) : host =
  if n mod 2 = 0 then serverA else serverB

channel network(ps : int, ss : (host) hash_table, p : ip*tcp*blob)
initstate mkTable(256) is
  let
    val iph : ip = #1 p
    val tcph : tcp = #2 p
  in
    if tcpDst(tcph) = 80 then
      let
        val key : host*int = (ipSrc(iph), tcpSrc(tcph))
        val srv : host =
          if tmem(ss, key) then tget(ss, key)
          else pick(ps)
      in
        (tput(ss, key, srv);
         OnRemote(network, (ipDestSet(iph, srv), tcph, #3 p));
         (ps+1, ss))
      end
    else
      (OnRemote(network, p); (ps, ss))
  end
`

func TestGatewayAcrossEngines(t *testing.T) {
	compiled := langtest.CompileAll(t, gateway)
	for name, c := range compiled {
		t.Run(name, func(t *testing.T) {
			ctx := langtest.NewCtx()
			inst, err := c.NewInstance(ctx)
			if err != nil {
				t.Fatalf("NewInstance: %v", err)
			}
			ci := langtest.FindChannel(t, c.Info(), "network")

			// First HTTP request from client 1: even counter -> serverA.
			pkt := langtest.TCPPacket("10.0.1.1", "10.0.0.100", 4001, 80, []byte("GET /"))
			if err := inst.Invoke(ci, ctx, pkt); err != nil {
				t.Fatalf("invoke: %v", err)
			}
			if got := inst.Proto.AsInt(); got != 1 {
				t.Errorf("protocol state after 1 request = %d, want 1", got)
			}
			if len(ctx.Sent) != 1 {
				t.Fatalf("sent %d packets, want 1", len(ctx.Sent))
			}
			dst := ctx.Sent[0].Pkt.Vs[0].AsIP().Dst
			if want := substrate.MustAddr("10.0.0.2"); dst != want {
				t.Errorf("first request routed to %s, want %s", dst, want)
			}

			// Second request from a different client: odd counter -> serverB.
			pkt2 := langtest.TCPPacket("10.0.1.2", "10.0.0.100", 4002, 80, []byte("GET /"))
			if err := inst.Invoke(ci, ctx, pkt2); err != nil {
				t.Fatalf("invoke: %v", err)
			}
			dst2 := ctx.Sent[1].Pkt.Vs[0].AsIP().Dst
			if want := substrate.MustAddr("10.0.0.3"); dst2 != want {
				t.Errorf("second request routed to %s, want %s", dst2, want)
			}

			// Follow-up packet on connection 1 sticks to serverA via the table.
			pkt3 := langtest.TCPPacket("10.0.1.1", "10.0.0.100", 4001, 80, []byte("more"))
			if err := inst.Invoke(ci, ctx, pkt3); err != nil {
				t.Fatalf("invoke: %v", err)
			}
			dst3 := ctx.Sent[2].Pkt.Vs[0].AsIP().Dst
			if want := substrate.MustAddr("10.0.0.2"); dst3 != want {
				t.Errorf("follow-up packet routed to %s, want %s (sticky connection)", dst3, want)
			}

			// Non-HTTP traffic passes through unmodified.
			pkt4 := langtest.TCPPacket("10.0.1.1", "10.0.0.100", 4001, 22, []byte("ssh"))
			if err := inst.Invoke(ci, ctx, pkt4); err != nil {
				t.Fatalf("invoke: %v", err)
			}
			dst4 := ctx.Sent[3].Pkt.Vs[0].AsIP().Dst
			if want := substrate.MustAddr("10.0.0.100"); dst4 != want {
				t.Errorf("ssh packet routed to %s, want %s (pass-through)", dst4, want)
			}
			if got := inst.Proto.AsInt(); got != 3 {
				t.Errorf("protocol state counts HTTP requests: got %d, want 3", got)
			}
		})
	}
}

// TestEnginesAgree replays a packet sequence through every engine and
// requires identical protocol state, sends, and output.
func TestEnginesAgree(t *testing.T) {
	const src = `
val greeting : string = "hi " ^ "there"

channel network(ps : string, ss : int, p : ip*udp*blob)
is
  let
    val n : int = blobLen(#3 p)
    val tag : string = if n > 4 then "big" else "small"
  in
    (println(greeting ^ ":" ^ tag ^ ":" ^ itos(n + ss));
     OnRemote(network, p);
     (tag, ss + n))
  end
`
	type result struct {
		proto string
		out   string
		sent  int
	}
	results := map[string]result{}
	for name, c := range langtest.CompileAll(t, src) {
		ctx := langtest.NewCtx()
		inst, err := c.NewInstance(ctx)
		if err != nil {
			t.Fatalf("%s: NewInstance: %v", name, err)
		}
		ci := langtest.FindChannel(t, c.Info(), "network")
		for _, payload := range []string{"abc", "abcdefgh", "x"} {
			pkt := langtest.UDPPacket("10.0.1.1", "10.0.1.2", 100, 200, []byte(payload))
			if err := inst.Invoke(ci, ctx, pkt); err != nil {
				t.Fatalf("%s: invoke: %v", name, err)
			}
		}
		results[name] = result{proto: inst.Proto.AsStr(), out: ctx.Out.String(), sent: len(ctx.Sent)}
	}
	ref := results["interp"]
	for name, r := range results {
		if r != ref {
			t.Errorf("%s diverges from interp:\n  %+v\nvs\n  %+v", name, r, ref)
		}
	}
	if ref.proto != "small" || ref.sent != 3 {
		t.Errorf("unexpected reference result: %+v", ref)
	}
}

// TestExceptionSemantics checks try/handle, raise, and the invoke
// boundary across engines.
func TestExceptionSemantics(t *testing.T) {
	const src = `
channel network(ps : int, ss : int, p : ip*udp*blob)
is
  let
    val safe : int = try blobByte(#3 p, 100) handle 0 - 1 end
  in
    if safe = 0 - 1 then
      (ps + 1, ss)
    else
      raise "unexpected in-range byte"
  end
`
	for name, c := range langtest.CompileAll(t, src) {
		t.Run(name, func(t *testing.T) {
			ctx := langtest.NewCtx()
			inst, err := c.NewInstance(ctx)
			if err != nil {
				t.Fatalf("NewInstance: %v", err)
			}
			ci := langtest.FindChannel(t, c.Info(), "network")

			// Short payload: blobByte raises, handler yields -1.
			pkt := langtest.UDPPacket("10.0.1.1", "10.0.1.2", 1, 2, []byte("ab"))
			if err := inst.Invoke(ci, ctx, pkt); err != nil {
				t.Fatalf("invoke: %v", err)
			}
			if got := inst.Proto.AsInt(); got != 1 {
				t.Errorf("proto state = %d, want 1", got)
			}

			// Long payload: byte 100 exists, the raise escapes and the
			// state must not change.
			big := make([]byte, 200)
			pkt2 := langtest.UDPPacket("10.0.1.1", "10.0.1.2", 1, 2, big)
			err = inst.Invoke(ci, ctx, pkt2)
			if err == nil {
				t.Fatal("expected unhandled exception error")
			}
			if _, ok := err.(value.Exception); !ok {
				t.Errorf("error type %T, want value.Exception", err)
			}
			if got := inst.Proto.AsInt(); got != 1 {
				t.Errorf("proto state after failed invoke = %d, want unchanged 1", got)
			}
		})
	}
}

// TestOneArtifactManyGoroutines pins the Compiled contract: one artifact,
// one instance per goroutine, nothing shared that any of them writes. The
// gateway exercises every per-call-site scratch shape — a fun call and
// 1-, 2- and 3-argument primitives. Each worker drives its own packet
// stream and must end exactly where a sequential run of that stream
// ends; under -race a write outside the instance fails the test by
// itself.
func TestOneArtifactManyGoroutines(t *testing.T) {
	const workers, packets = 8, 300
	info := langtest.CheckSrc(t, gateway)
	ci := langtest.FindChannel(t, info, "network")
	drive := func(c engine.Compiled, w int) (string, error) {
		ctx := langtest.NewCtx()
		inst, err := c.NewInstance(ctx)
		if err != nil {
			return "", err
		}
		for i := 0; i < packets; i++ {
			port := uint16(80)
			if i%5 == 4 {
				port = 22
			}
			pkt := langtest.TCPPacket(fmt.Sprintf("10.%d.1.%d", w, i%7), "10.0.0.100", uint16(4000+i%11), port, nil)
			if err := inst.Invoke(ci, ctx, pkt); err != nil {
				return "", err
			}
		}
		var end strings.Builder
		fmt.Fprintf(&end, "ps=%s conns=%d sent:", inst.Proto, inst.Chans[ci].AsTable().Len())
		for _, s := range ctx.Sent {
			fmt.Fprintf(&end, " %s", s.Pkt.Vs[0].AsIP().Dst)
		}
		return end.String(), nil
	}
	for name, compile := range langtest.Engines() {
		t.Run(name, func(t *testing.T) {
			c, err := compile(info)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]string, workers)
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[w], errs[w] = drive(c, w)
				}()
			}
			wg.Wait()
			for w := 0; w < workers; w++ {
				want, err := drive(c, w)
				if err != nil || errs[w] != nil {
					t.Fatalf("worker %d: concurrent err %v, sequential err %v", w, errs[w], err)
				}
				if got[w] != want {
					t.Errorf("worker %d ended in a different state than its sequential run:\n got %.120s\nwant %.120s", w, got[w], want)
				}
			}
		})
	}
}

// TestNewInstanceErrorsAgree pins the diagnostic every engine gives for a
// top-level declaration that raises: the same text, naming the
// declaration.
func TestNewInstanceErrorsAgree(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"val", `
val k : int = 1 / 0
channel network(ps : int, ss : int, p : ip*udp*blob) is (deliver(p); (k, ss))
`, "val k: planp exception: division by zero"},
		{"initstate", `
channel network(ps : int, ss : (int) hash_table, p : ip*udp*blob)
initstate (println(1 mod 0); mkTable(4)) is
  (deliver(p); (ps, ss))
`, "channel network initstate: planp exception: mod by zero"},
	}
	for _, tc := range cases {
		for name, c := range langtest.CompileAll(t, tc.src) {
			_, err := c.NewInstance(langtest.NewCtx())
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s, failing %s: NewInstance error = %v, want %q", name, tc.name, err, tc.want)
			}
		}
	}
}

func TestZeroValue(t *testing.T) {
	cases := []struct {
		typ  ast.Type
		want string
	}{
		{ast.IntT, "0"},
		{ast.BoolT, "false"},
		{ast.StringT, ""},
		{ast.UnitT, "()"},
		{ast.HostT, "0.0.0.0"},
		{ast.Tuple{Elems: []ast.Type{ast.IntT, ast.BoolT}}, "(0,false)"},
		{ast.List{Elem: ast.IntT}, "[]"},
	}
	for _, tc := range cases {
		v, err := engine.ZeroValue(tc.typ)
		if err != nil {
			t.Errorf("ZeroValue(%s): %v", tc.typ, err)
			continue
		}
		if v.String() != tc.want {
			t.Errorf("ZeroValue(%s) = %s, want %s", tc.typ, v, tc.want)
		}
	}
	if _, err := engine.ZeroValue(ast.Table{Elem: ast.IntT}); err == nil {
		t.Error("ZeroValue(hash_table) should fail")
	}
}

// TestOverloadedChannels exercises the figure-4 style dispatch: two
// network channels with different payload signatures.
func TestOverloadedChannels(t *testing.T) {
	const src = `
val CmdA : int = 65

channel network(ps : unit, ss : unit, p : ip*tcp*char*int)
is
  if charPos(#3 p) = CmdA then
    (print("CmdA: "); println(#4 p); (ps, ss))
  else
    (ps, ss)

channel network(ps : unit, ss : unit, p : ip*tcp*char*bool)
is
  (print("CmdB: "); println(#4 p); (ps, ss))
`
	for name, c := range langtest.CompileAll(t, src) {
		t.Run(name, func(t *testing.T) {
			ctx := langtest.NewCtx()
			inst, err := c.NewInstance(ctx)
			if err != nil {
				t.Fatalf("NewInstance: %v", err)
			}
			chans := c.Info().ChannelsByName("network")
			if len(chans) != 2 {
				t.Fatalf("expected 2 overloaded channels, got %d", len(chans))
			}
			ip := &value.IPHeader{IPHeader: substrate.IPHeader{Src: substrate.MustAddr("10.0.0.1"), Dst: substrate.MustAddr("10.0.0.2"), Proto: 6, TTL: 64}}
			tcp := &value.TCPHeader{SrcPort: 1, DstPort: 2}
			pktInt := value.TupleV(value.IP(ip), value.TCP(tcp), value.Char('A'), value.Int(42))
			if err := inst.Invoke(chans[0].Index, ctx, pktInt); err != nil {
				t.Fatalf("invoke int variant: %v", err)
			}
			pktBool := value.TupleV(value.IP(ip), value.TCP(tcp), value.Char('B'), value.Bool(true))
			if err := inst.Invoke(chans[1].Index, ctx, pktBool); err != nil {
				t.Fatalf("invoke bool variant: %v", err)
			}
			want := "CmdA: 42\nCmdB: true\n"
			if got := ctx.Out.String(); got != want {
				t.Errorf("output %q, want %q", got, want)
			}
		})
	}
}

// TestSentPacketsAreOnlyLent pins the prims.Context contract from the
// recording side: a packet handed to OnRemote/OnNeighbor/deliver is
// borrowed for the call, headers included (the JIT builds a send's tuple
// literal in per-instance scratch, and a header a primitive returns
// into it in per-instance scratch too, and overwrites both the next
// time that send runs), so what langtest.Ctx recorded for the first
// invocation must still read the same after a second one — on every
// engine, and identically.
func TestSentPacketsAreOnlyLent(t *testing.T) {
	const src = `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (OnRemote(network, (ipDestSet(#1 p, ipSrc(#1 p)), udpDstSet(#2 p, udpSrc(#2 p)), #3 p));
   OnNeighbor(network, (ipTTLSet(#1 p, blobLen(#3 p)), #2 p, blobCat(#3 p, #3 p)));
   deliver((mkIP(ipDst(#1 p), ipSrc(#1 p), 17), mkUDP(udpDst(#2 p), udpSrc(#2 p)), #3 p));
   (ps + 1, ss))
`
	first := langtest.UDPPacket("10.0.0.1", "10.0.0.2", 7, 9, []byte("one"))
	second := langtest.UDPPacket("10.0.0.3", "10.0.0.4", 8, 9, []byte("other"))
	var ref []string
	for name, c := range langtest.CompileAll(t, src) {
		ctx := langtest.NewCtx()
		inst, err := c.NewInstance(ctx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		render := func() []string {
			out := []string{value.EncodeKey(ctx.Delivered[0])}
			for _, s := range ctx.Sent[:2] {
				out = append(out, fmt.Sprint(s.Chan, s.Neighbor, value.EncodeKey(s.Pkt)))
			}
			return out
		}
		if err := inst.Invoke(0, ctx, first); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		before := render()
		if err := inst.Invoke(0, ctx, second); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if after := render(); fmt.Sprint(after) != fmt.Sprint(before) {
			t.Errorf("%s: the second invocation rewrote the first one's recorded packets:\n before %q\n after  %q", name, before, after)
		}
		if len(ctx.Sent) != 4 || len(ctx.Delivered) != 2 || inst.Proto.AsInt() != 2 {
			t.Errorf("%s: %d sent, %d delivered, ps=%s", name, len(ctx.Sent), len(ctx.Delivered), inst.Proto)
		}
		if ref == nil {
			ref = before
		} else if fmt.Sprint(before) != fmt.Sprint(ref) {
			t.Errorf("%s disagrees with another engine:\n %q\n %q", name, before, ref)
		}
	}
}
