package planprt

import (
	"fmt"
	"strings"
	"testing"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/lang/value"
	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/substrate"
)

// The two lending rules of a packet's trip (DESIGN.md "One packet's
// trip"), through Download on a netsim node under every engine: the
// decoded packet value is the runtime's and lent to one invocation; an
// owned inbound packet becomes the invocation's first send.

var engines = []EngineKind{EngineInterp, EngineBytecode, EngineJIT}

// wire is everything a packet carries, by value.
type wire struct {
	ip      substrate.IPHeader
	tcp     substrate.TCPHeader
	udp     substrate.UDPHeader
	payload string
	tag     string
}

func snapshot(p *substrate.Packet) wire {
	w := wire{ip: p.IP, payload: string(p.Payload), tag: p.ChanTag}
	if p.TCP != nil {
		w.tcp = *p.TCP
	}
	if p.UDP != nil {
		w.udp = *p.UDP
	}
	return w
}

// cloneFirst stands where bench/'s capture shim and a netsim tap stand:
// before the runtime sees a packet it keeps the pointer, a Clone (which
// shares the transport header and the payload bytes with it) and what
// the packet read at that moment.
type cloneFirst struct {
	inner  substrate.Processor
	in     []*substrate.Packet
	clones []*substrate.Packet
	was    []wire
}

func (c *cloneFirst) Process(pkt *substrate.Packet, in substrate.Iface) bool {
	c.in = append(c.in, pkt)
	c.clones = append(c.clones, pkt.Clone())
	c.was = append(c.was, snapshot(pkt))
	return c.inner.Process(pkt, in)
}

// TestHeaderKeepingProgramDecodesFresh: a program with a state that can
// hold a header takes the allocating decode, so the header of the FIRST
// packet it kept still reads that packet's fields after later ones; the
// in-tree ASPs keep none and decode into the runtime's plans.
func TestHeaderKeepingProgramDecodesFresh(t *testing.T) {
	const keepsIP = `
channel network(ps : int, ss : ip, p : ip*udp*blob) is
  (deliver(p); (ps + 1, if ps = 0 then #1 p else ss))
`
	const keepsTable = `
channel network(ps : int, ss : (ip) hash_table, p : ip*udp*blob)
initstate mkTable(8) is
  (tput(ss, ps, #1 p); deliver(p); (ps + 1, ss))
`
	first := func(rt *Runtime) value.Value { return rt.Instance().Chans[0] }
	firstInTable := func(rt *Runtime) value.Value {
		v, _ := rt.Instance().Chans[0].AsTable().Get(value.Int(0))
		return v
	}
	for _, eng := range engines {
		for name, tc := range map[string]struct {
			src  string
			kept func(*Runtime) value.Value
		}{"ip": {keepsIP, first}, "ip-table": {keepsTable, firstInTable}} {
			t.Run(string(eng)+"/"+name, func(t *testing.T) {
				sim, client, gw, _, _ := topo(t)
				rt, err := Download(gw, tc.src, Config{Engine: eng, Verify: VerifyPrivileged})
				if err != nil {
					t.Fatal(err)
				}
				if !rt.keepsHeaders {
					t.Fatal("a program that can keep a header decodes into the runtime")
				}
				for i := 0; i < 3; i++ {
					client.Send(netsim.NewUDP(client.Addr+netsim.Addr(i), gw.Addr, uint16(7+i), 9, []byte{byte(i)}).Own())
					sim.Run()
				}
				if got := rt.Instance().Proto.AsInt(); got != 3 {
					t.Fatalf("processed %d of 3", got)
				}
				if h := tc.kept(rt).AsIP(); h.Src != value.Host(client.Addr) || h.Len != substrate.IPHeaderLen+substrate.UDPHeaderLen+1 {
					t.Errorf("the header kept from the first packet now reads %+v", *h)
				}
			})
		}
	}
	for _, p := range asp.All() {
		prog, err := Load(p.Source, Config{Verify: VerifyPrivileged})
		if err != nil {
			t.Fatal(err)
		}
		sim := netsim.New()
		rt, err := Install(netsim.NewNode(sim, "n", 1), prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rt.keepsHeaders {
			t.Errorf("%s: a state can hold a header, so every decode allocates", p.Name)
		}
	}
}

// TestReentrantProcessLeavesOuterPacketAlone: deliver hands the packet
// to a local app, and an app may feed the node another packet before it
// returns. The inner packet, here for another channel, waits until the
// outer invocation returns, so it cannot decode over the outer one's p.
// (TestSameChannelReentryWaitsItsTurn feeds the running channel.)
func TestReentrantProcessLeavesOuterPacketAlone(t *testing.T) {
	const src = `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (deliver(p); OnRemote(network, p); (ps + 1, ss))

channel side(ps : int, ss : int, p : ip*udp*blob) is
  (OnRemote(network, p); (ps + 1, ss))
`
	for _, eng := range engines {
		t.Run(string(eng), func(t *testing.T) {
			sim, client, gw, srvA, srvB := topo(t)
			rt, err := Download(gw, src, Config{Engine: eng, Verify: VerifyPrivileged})
			if err != nil {
				t.Fatal(err)
			}
			inner := netsim.NewUDP(netsim.MustAddr("10.9.9.9"), srvB.Addr, 77, 10, []byte("inner")).Own()
			inner.ChanTag = "side"
			gw.BindUDP(9, func(*netsim.Packet) { gw.Receive(inner, nil) })
			var atA, atB []wire
			srvA.BindUDP(9, func(p *netsim.Packet) { atA = append(atA, snapshot(p)) })
			srvB.BindUDP(10, func(p *netsim.Packet) { atB = append(atB, snapshot(p)) })

			client.Send(netsim.NewUDP(client.Addr, srvA.Addr, 5, 9, []byte("outer")).Own())
			sim.Run()

			if st := rt.Stats(); st.Processed != 2 || st.Errors != 0 || rt.busy {
				t.Fatalf("processed %d, errors %d, still busy %v", st.Processed, st.Errors, rt.busy)
			}
			if len(atA) != 1 || atA[0].ip.Src != client.Addr || atA[0].udp.SrcPort != 5 || atA[0].payload != "outer" {
				t.Errorf("the outer packet's send after the re-entry arrived as %+v", atA)
			}
			if len(atB) != 1 || atB[0].ip.Src != netsim.MustAddr("10.9.9.9") || atB[0].payload != "inner" {
				t.Errorf("the inner packet arrived as %+v", atB)
			}
		})
	}
}

// TestSameChannelReentryWaitsItsTurn: a packet fed to the node from a
// deliver, for the channel that is running, is held until that
// invocation returns, so the outer packet's send after deliver is its
// own packet, and the inner packet is processed once, after it. (Were it
// run nested, the compiled engines' one frame per channel would give the
// outer invocation the inner packet's p.)
func TestSameChannelReentryWaitsItsTurn(t *testing.T) {
	const src = `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (if ps = 0 then deliver(p) else (); OnRemote(network, p); (ps + 1, ss))
`
	for _, eng := range engines {
		t.Run(string(eng), func(t *testing.T) {
			sim, client, gw, srvA, srvB := topo(t)
			rt, err := Download(gw, src, Config{Engine: eng, Verify: VerifyPrivileged})
			if err != nil {
				t.Fatal(err)
			}
			inner := netsim.NewUDP(netsim.MustAddr("10.9.9.9"), srvB.Addr, 77, 10, []byte("inner")).Own()
			gw.BindUDP(9, func(*netsim.Packet) { gw.Receive(inner, nil) })
			var atA, atB []wire
			srvA.BindUDP(9, func(p *netsim.Packet) { atA = append(atA, snapshot(p)) })
			srvB.BindUDP(10, func(p *netsim.Packet) { atB = append(atB, snapshot(p)) })

			client.Send(netsim.NewUDP(client.Addr, srvA.Addr, 5, 9, []byte("outer")).Own())
			sim.Run()

			if st := rt.Stats(); st.Processed != 2 || st.Errors != 0 || rt.busy || len(rt.held) != 0 {
				t.Fatalf("processed %d, errors %d, still busy %v, %d held", st.Processed, st.Errors, rt.busy, len(rt.held))
			}
			if len(atA) != 1 || atA[0].ip.Src != client.Addr || atA[0].payload != "outer" {
				t.Errorf("srvA got %+v, want the outer packet once", atA)
			}
			if len(atB) != 1 || atB[0].ip.Src != netsim.MustAddr("10.9.9.9") || atB[0].payload != "inner" {
				t.Errorf("srvB got %+v, want the inner packet once", atB)
			}
		})
	}
}

// TestSplitHorizonSurvivesReentry: a pass-through packet that arrived on
// the client interface, and whose route leads back out of it, is a
// no-route drop, whether or not its deliver fed the node a packet first:
// the outer invocation keeps its split horizon.
func TestSplitHorizonSurvivesReentry(t *testing.T) {
	const src = `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (deliver(p); OnRemote(network, p); (ps + 1, ss))

channel side(ps : int, ss : int, p : ip*udp*blob) is
  (OnRemote(network, p); (ps + 1, ss))
`
	for _, eng := range engines {
		t.Run(string(eng), func(t *testing.T) {
			sim, client, gw, _, srvB := topo(t)
			behind := netsim.MustAddr("10.0.1.2") // a host on the client's side
			gw.AddRoute(behind, gw.Route(client.Addr))
			rt, err := Download(gw, src, Config{Engine: eng, Verify: VerifyPrivileged})
			if err != nil {
				t.Fatal(err)
			}
			inner := netsim.NewUDP(netsim.MustAddr("10.9.9.9"), srvB.Addr, 77, 10, []byte("inner")).Own()
			inner.ChanTag = "side"
			gw.BindUDP(9, func(*netsim.Packet) { gw.Receive(inner, nil) })
			echoes, atB, noRoute := 0, 0, 0
			client.Tap(func(*netsim.Packet) { echoes++ })
			srvB.BindUDP(10, func(*netsim.Packet) { atB++ })
			sim.Events().Subscribe(obs.Func(func(ev obs.Event) {
				if ev.Kind == obs.KindDrop && ev.Node == "gw" && ev.Detail == "no-route" {
					noRoute++
				}
			}))

			client.Send(netsim.NewUDP(client.Addr, behind, 5, 9, []byte("outer")).Own())
			sim.Run()

			if st := rt.Stats(); st.Processed != 2 || st.Errors != 0 {
				t.Fatalf("processed %d, errors %d", st.Processed, st.Errors)
			}
			if echoes != 0 || noRoute != 1 {
				t.Errorf("%d packet(s) sent back to the client, %d no-route drop(s); want 0 and 1", echoes, noRoute)
			}
			if atB != 1 {
				t.Errorf("srvB got %d inner packets, want 1", atB)
			}
		})
	}
}

// TestHeldUnmatchedPacketGetsStandardProcessing: a packet held during an
// invocation that matches no channel is forwarded by the node's standard
// processing once the invocation returns, and counted unmatched.
func TestHeldUnmatchedPacketGetsStandardProcessing(t *testing.T) {
	const src = `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (deliver(p); OnRemote(network, p); (ps + 1, ss))
`
	for _, eng := range engines {
		t.Run(string(eng), func(t *testing.T) {
			sim, client, gw, srvA, srvB := topo(t)
			rt, err := Download(gw, src, Config{Engine: eng, Verify: VerifyPrivileged})
			if err != nil {
				t.Fatal(err)
			}
			inner := substrate.NewTCP(netsim.MustAddr("10.9.9.9"), srvB.Addr, 77, 80, 0, substrate.FlagSyn, []byte("inner")).Own()
			ttl := inner.IP.TTL
			gw.BindUDP(9, func(*netsim.Packet) { gw.Receive(inner, nil) })
			var atA, atB []wire
			srvA.BindUDP(9, func(p *netsim.Packet) { atA = append(atA, snapshot(p)) })
			srvB.BindTCP(80, func(p *netsim.Packet) { atB = append(atB, snapshot(p)) })

			client.Send(netsim.NewUDP(client.Addr, srvA.Addr, 5, 9, []byte("outer")).Own())
			sim.Run()

			if st := rt.Stats(); st.Processed != 1 || st.Unmatched != 1 || st.Errors != 0 {
				t.Fatalf("processed %d, unmatched %d, errors %d; want 1, 1, 0", st.Processed, st.Unmatched, st.Errors)
			}
			if len(atA) != 1 || atA[0].payload != "outer" {
				t.Errorf("srvA got %+v, want the outer packet once", atA)
			}
			if len(atB) != 1 || atB[0].payload != "inner" || atB[0].ip.TTL != ttl-1 {
				t.Errorf("srvB got %+v, want the inner packet forwarded once", atB)
			}
		})
	}
}

// TestHeldPacketsDrainOnce: a held packet for the node itself that no
// channel takes is delivered by standard processing, and the app it wakes
// feeds the node another packet. That packet waits behind the drain, so
// the drain runs once: the app runs once, and srvB gets the fed packet
// once.
func TestHeldPacketsDrainOnce(t *testing.T) {
	const src = `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (deliver(p); OnRemote(network, p); (ps + 1, ss))
`
	for _, eng := range engines {
		t.Run(string(eng), func(t *testing.T) {
			sim, client, gw, srvA, srvB := topo(t)
			rt, err := Download(gw, src, Config{Engine: eng, Verify: VerifyPrivileged})
			if err != nil {
				t.Fatal(err)
			}
			toGw := substrate.NewTCP(netsim.MustAddr("10.9.9.9"), gw.Addr, 77, 80, 0, substrate.FlagSyn, []byte("to-gw")).Own()
			toB := substrate.NewTCP(netsim.MustAddr("10.9.9.9"), srvB.Addr, 78, 80, 0, substrate.FlagSyn, []byte("to-b")).Own()
			gw.BindUDP(9, func(*netsim.Packet) { gw.Receive(toGw, nil) })
			runs := 0
			gw.BindTCP(80, func(*netsim.Packet) {
				if runs++; runs == 1 { // a second run would show a second drain
					gw.Receive(toB, nil)
				}
			})
			atA, atB := 0, 0
			srvA.BindUDP(9, func(*netsim.Packet) { atA++ })
			srvB.BindTCP(80, func(*netsim.Packet) { atB++ })

			client.Send(netsim.NewUDP(client.Addr, srvA.Addr, 5, 9, []byte("outer")).Own())
			sim.Run()

			if st := rt.Stats(); st.Processed != 1 || st.Unmatched != 2 || st.Errors != 0 || len(rt.held) != 0 {
				t.Fatalf("processed %d, unmatched %d, errors %d, %d held; want 1, 2, 0, 0",
					st.Processed, st.Unmatched, st.Errors, len(rt.held))
			}
			if runs != 1 || atA != 1 || atB != 1 {
				t.Errorf("gw's TCP app ran %d time(s), srvA got %d, srvB got %d; want 1 each", runs, atA, atB)
			}
		})
	}
}

// rewriter sends port-80 traffic on with a new destination (the TCP
// header and payload are the packet's own) and everything else with a
// new destination, a new TCP header and a new payload.
const rewriter = `
channel network(ps : int, ss : int, p : ip*tcp*blob) is
  if tcpDst(#2 p) = 80 then
    (OnRemote(network, (ipDestSet(#1 p, 10.0.0.2), #2 p, #3 p)); (ps + 1, ss))
  else
    (OnRemote(network, (ipDestSet(#1 p, 10.0.0.3), tcpDstSet(#2 p, 80), blobCat(#3 p, #3 p)));
     (ps + 1, ss))
`

// TestCloneBeforeProcessSurvivesRewrite: the gateway sends in the owned
// packet it received, and a Clone taken before Process — which shares
// that packet's TCP header and payload — reads the same afterwards,
// field for field.
func TestCloneBeforeProcessSurvivesRewrite(t *testing.T) {
	for _, eng := range engines {
		t.Run(string(eng), func(t *testing.T) {
			sim, client, gw, srvA, srvB := topo(t)
			rt, err := Download(gw, rewriter, Config{Engine: eng, Verify: VerifyPrivileged})
			if err != nil {
				t.Fatal(err)
			}
			shim := &cloneFirst{inner: rt}
			gw.SetProcessor(shim)
			var delivered []*netsim.Packet
			keep := func(p *netsim.Packet) { delivered = append(delivered, p) }
			srvA.BindTCP(80, keep)
			srvB.BindTCP(80, keep)

			virtual := netsim.MustAddr("10.0.0.99")
			for i := 0; i < 6; i++ {
				port := uint16(80 + i%2)
				client.Send(substrate.NewTCP(client.Addr, virtual, uint16(5000+i), port, uint32(i), substrate.FlagSyn, []byte("GET /")).Own())
				sim.Run()
			}
			if len(delivered) != 6 || len(shim.in) != 6 {
				t.Fatalf("delivered %d, processed %d of 6", len(delivered), len(shim.in))
			}
			for i, out := range delivered {
				if out != shim.in[i] {
					t.Errorf("packet %d: an owned inbound packet was not the one sent", i)
				}
				if got := snapshot(shim.clones[i]); got != shim.was[i] {
					t.Errorf("packet %d: the clone changed under the rewrite:\n was %+v\n now %+v", i, shim.was[i], got)
				}
				want := shim.was[i]
				want.ip.TTL--
				if i%2 == 0 {
					want.ip.Dst = srvA.Addr
					if out.TCP != shim.clones[i].TCP {
						t.Errorf("packet %d: an unchanged TCP header was replaced", i)
					}
				} else {
					want.ip.Dst, want.tcp.DstPort, want.payload = srvB.Addr, 80, "GET /GET /"
				}
				if got := snapshot(out); got != want {
					t.Errorf("packet %d arrived as %+v, want %+v", i, got, want)
				}
			}
		})
	}
}

// TestTwoSendsAreTwoPackets: only the first send of an invocation is the
// inbound packet.
func TestTwoSendsAreTwoPackets(t *testing.T) {
	const src = `
channel network(ps : int, ss : int, p : ip*tcp*blob) is
  (OnRemote(network, (ipDestSet(#1 p, 10.0.0.2), #2 p, #3 p));
   OnRemote(network, (ipDestSet(#1 p, 10.0.0.3), #2 p, #3 p));
   (ps + 1, ss))
`
	for _, eng := range engines {
		t.Run(string(eng), func(t *testing.T) {
			sim, client, gw, srvA, srvB := topo(t)
			rt, err := Download(gw, src, Config{Engine: eng, Verify: VerifyPrivileged})
			if err != nil {
				t.Fatal(err)
			}
			shim := &cloneFirst{inner: rt}
			gw.SetProcessor(shim)
			var atA, atB *netsim.Packet
			srvA.BindTCP(80, func(p *netsim.Packet) { atA = p })
			srvB.BindTCP(80, func(p *netsim.Packet) { atB = p })
			client.Send(substrate.NewTCP(client.Addr, netsim.MustAddr("10.0.0.99"), 5000, 80, 0, substrate.FlagSyn, []byte("GET /")).Own())
			sim.Run()
			if atA == nil || atB == nil {
				t.Fatalf("delivered A=%v B=%v", atA != nil, atB != nil)
			}
			if atA != shim.in[0] || atB == atA {
				t.Errorf("first send is the inbound packet: %v; second is another: %v", atA == shim.in[0], atB != atA)
			}
			if atA.IP.Dst != srvA.Addr || atB.IP.Dst != srvB.Addr || string(atA.Payload) != "GET /" || string(atB.Payload) != "GET /" {
				t.Errorf("arrived as %v and %v", atA, atB)
			}
		})
	}
}

// TestDisownedInboundIsNeverWritten: a tap keeps the pointer, so the
// packet is no longer the runtime's to send in.
func TestDisownedInboundIsNeverWritten(t *testing.T) {
	for _, eng := range engines {
		t.Run(string(eng), func(t *testing.T) {
			sim, client, gw, srvA, srvB := topo(t)
			if _, err := Download(gw, rewriter, Config{Engine: eng, Verify: VerifyPrivileged}); err != nil {
				t.Fatal(err)
			}
			var tapped, delivered []*netsim.Packet
			var was []wire
			gw.Tap(func(p *netsim.Packet) { tapped, was = append(tapped, p), append(was, snapshot(p)) })
			keep := func(p *netsim.Packet) { delivered = append(delivered, p) }
			srvA.BindTCP(80, keep)
			srvB.BindTCP(80, keep)
			for i := 0; i < 4; i++ {
				client.Send(substrate.NewTCP(client.Addr, netsim.MustAddr("10.0.0.99"), uint16(5000+i), uint16(80+i%2), 0, substrate.FlagSyn, []byte("GET /")).Own())
				sim.Run()
			}
			if len(delivered) != 4 || len(tapped) != 4 {
				t.Fatalf("delivered %d, tapped %d of 4", len(delivered), len(tapped))
			}
			for i, p := range tapped {
				if got := snapshot(p); got != was[i] || p.Owned() {
					t.Errorf("packet %d: a tapped packet was written: %+v, was %+v (owned %v)", i, got, was[i], p.Owned())
				}
				if delivered[i] == p {
					t.Errorf("packet %d: a disowned packet was sent on", i)
				}
			}
		})
	}
}

// TestEncodeErrorAfterReuse: a send whose value does not encode has
// already written into the inbound packet when it fails. That is one
// counted exception and a dropped packet, as before, and the next packet
// finds the runtime as a clean one would.
func TestEncodeErrorAfterReuse(t *testing.T) {
	var vals strings.Builder // s0 is 64 bytes; s10 = 64 KiB, one more than a string component may be
	fmt.Fprintf(&vals, "val s0 : string = %q\n", strings.Repeat("x", 64))
	for i := 1; i <= 10; i++ {
		fmt.Fprintf(&vals, "val s%d : string = s%d ^ s%d\n", i, i-1, i-1)
	}
	src := vals.String() + `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  if blobLen(#3 p) = 0 then
    (OnRemote(network, (#1 p, #2 p, s10)); (ps + 1, ss))
  else
    (OnRemote(network, p); (ps + 1, ss))

channel network(ps : int, ss : int, p : ip*udp*string) is
  (deliver(p); (ps, ss))
`
	for _, eng := range engines {
		t.Run(string(eng), func(t *testing.T) {
			sim, client, gw, srvA, _ := topo(t)
			rt, err := Download(gw, src, Config{Engine: eng, Verify: VerifyPrivileged})
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			srvA.BindUDP(9, func(p *netsim.Packet) { got = append(got, string(p.Payload)) })

			client.Send(netsim.NewUDP(client.Addr, srvA.Addr, 5, 9, nil).Own())
			sim.Run()
			if st := rt.Stats(); st.Errors != 1 || st.Processed != 0 || st.SentRemote != 0 || len(got) != 0 {
				t.Fatalf("after the failed send: %+v, delivered %q", st, got)
			}
			if rt.reuse != nil || rt.busy {
				t.Fatalf("the failed invocation left reuse=%v busy=%v", rt.reuse, rt.busy)
			}
			client.Send(netsim.NewUDP(client.Addr, srvA.Addr, 5, 9, []byte("ok")).Own())
			sim.Run()
			if st := rt.Stats(); st.Errors != 1 || st.Processed != 1 || len(got) != 1 || got[0] != "ok" {
				t.Fatalf("after the next packet: %+v, delivered %q", st, got)
			}
			if rt.Instance().Proto.AsInt() != 1 {
				t.Errorf("protocol state %s: the failed invocation's state was kept", rt.Instance().Proto)
			}
		})
	}
}
