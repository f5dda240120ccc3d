package planprt

import (
	"math/rand"
	"testing"

	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/value"
	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/substrate"
)

// Decode plans (codec.go): a channel's packets decode over its kept plan,
// which no invocation and no later packet can tell from fresh memory.

// install downloads src onto a lone netsim node for Process to be called
// on directly.
func install(t *testing.T, src string, eng EngineKind) *Runtime {
	t.Helper()
	node := &sink{Node: netsim.NewNode(netsim.New(), "gw", substrate.MustAddr("10.0.0.1"))}
	prog, err := Load(src, Config{Engine: eng, Verify: VerifyPrivileged})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Install(node, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// udpPacket encodes an ip*udp*payload... tuple from src into an owned
// packet.
func udpPacket(t *testing.T, src substrate.Addr, payload ...value.Value) *substrate.Packet {
	t.Helper()
	ip := &value.IPHeader{IPHeader: substrate.IPHeader{Src: src, Dst: substrate.MustAddr("10.0.0.2"), TTL: 64}}
	udp := &value.UDPHeader{UDPHeader: substrate.UDPHeader{SrcPort: 5, DstPort: 9}}
	pkt, err := Encode(value.TupleV(append([]value.Value{value.IP(ip), value.UDP(udp)}, payload...)...))
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// TestPlanReuseIsNotObservable: a state that keeps packet k's int,
// string and blob still reads them after packet k+1 has been decoded
// into the same memory.
func TestPlanReuseIsNotObservable(t *testing.T) {
	const src = `
channel network(ps : int, ss : int*string*blob, p : ip*udp*int*string*blob) is
  (ps + 1, if ps = 0 then (#3 p, #4 p, #5 p) else ss)
`
	for _, eng := range engines {
		t.Run(string(eng), func(t *testing.T) {
			rt := install(t, src, eng)
			if rt.keepsHeaders {
				t.Fatal("a program that keeps no header decodes fresh")
			}
			for k := 0; k < 3; k++ {
				pkt := udpPacket(t, 1, value.Int(int64(100+k)), value.Str(string(rune('a'+k))+"-str"), value.Blob([]byte{byte(k), 7}))
				if !rt.Process(pkt, nil) {
					t.Fatalf("packet %d matched no channel", k)
				}
			}
			if kept := rt.plans[0].tuple.Vs; kept[2].I != 102 || kept[3].S != "c-str" {
				t.Fatalf("the plan was not decoded over: it reads %s", rt.plans[0].tuple)
			}
			want := value.TupleV(value.Int(100), value.Str("a-str"), value.Blob([]byte{0, 7}))
			if got := rt.Instance().Chans[0]; !value.Equal(got, want) {
				t.Errorf("the state kept from packet 0 reads %s, want %s", got, want)
			}
		})
	}
}

// TestOverloadFailsLateThenMatches: a packet whose transport header fits
// an overload and whose payload is short for it, or longer than it, has
// written into that overload's plan before it fails; the next overload
// takes it, and the first still decodes its own packets right after.
// Each overload keeps the packet's source, read through the ip element
// of its own plan.
func TestOverloadFailsLateThenMatches(t *testing.T) {
	const src = `
channel network(ps : int, ss : host*int*char, p : ip*udp*int*char) is
  (ps + 1, (ipSrc(#1 p), #3 p, #4 p))

channel network(ps : int, ss : host*int, p : ip*udp*int) is
  (ps + 1, (ipSrc(#1 p), #3 p))

channel network(ps : int, ss : host*int*char*char, p : ip*udp*int*char*char) is
  (ps + 1, (ipSrc(#1 p), #3 p, #4 p, #5 p))
`
	for _, eng := range engines {
		t.Run(string(eng), func(t *testing.T) {
			rt := install(t, src, eng)
			chans := rt.Instance().Chans
			// Short for the first overload: it reads the int, then finds
			// no char.
			if !rt.Process(udpPacket(t, 1, value.Int(7)), nil) {
				t.Fatal("the int packet matched no channel")
			}
			if want := value.TupleV(value.HostV(1), value.Int(7)); !value.Equal(chans[1], want) {
				t.Errorf("the second overload holds %s after the int packet, want %s", chans[1], want)
			}
			// Longer than the first overload: it reads the int and a char,
			// and a byte is left; the second fails the same way.
			if !rt.Process(udpPacket(t, 2, value.Int(8), value.Char('x'), value.Char('y')), nil) {
				t.Fatal("the int*char*char packet matched no channel")
			}
			if want := value.TupleV(value.HostV(2), value.Int(8), value.Char('x'), value.Char('y')); !value.Equal(chans[2], want) {
				t.Errorf("the third overload holds %s, want %s", chans[2], want)
			}
			if !rt.Process(udpPacket(t, 3, value.Int(9), value.Char('z')), nil) {
				t.Fatal("the int*char packet matched no channel")
			}
			if want := value.TupleV(value.HostV(3), value.Int(9), value.Char('z')); !value.Equal(chans[0], want) {
				t.Errorf("the first overload holds %s, want %s", chans[0], want)
			}
			if st := rt.Stats(); st.Processed != 3 || st.Unmatched != 0 || st.Errors != 0 || rt.Instance().Proto.AsInt() != 3 {
				t.Errorf("stats %+v, protocol state %s", st, rt.Instance().Proto)
			}
		})
	}
}

// TestReentrantFailedDecodeLeavesOuterPacketAlone: a packet fed to the
// node while an invocation runs may fail late at the running channel
// before another overload takes it. It is held until that invocation
// returns, so the running invocation's p still reads its own packet.
func TestReentrantFailedDecodeLeavesOuterPacketAlone(t *testing.T) {
	const src = `
channel network(ps : int, ss : int, p : ip*udp*int*char) is
  (deliver(p); OnRemote(network, p); (ps + 1, ss))

channel network(ps : int, ss : int, p : ip*udp*int) is
  (OnRemote(network, p); (ps + 1, ss))
`
	for _, eng := range engines {
		t.Run(string(eng), func(t *testing.T) {
			sim, client, gw, srvA, srvB := topo(t)
			rt, err := Download(gw, src, Config{Engine: eng, Verify: VerifyPrivileged})
			if err != nil {
				t.Fatal(err)
			}
			inner := netsim.NewUDP(netsim.MustAddr("10.9.9.9"), srvB.Addr, 77, 10, []byte{0, 0, 0, 8}).Own()
			gw.BindUDP(9, func(*netsim.Packet) { gw.Receive(inner, nil) })
			var atA, atB []wire
			srvA.BindUDP(9, func(p *netsim.Packet) { atA = append(atA, snapshot(p)) })
			srvB.BindUDP(10, func(p *netsim.Packet) { atB = append(atB, snapshot(p)) })

			client.Send(netsim.NewUDP(client.Addr, srvA.Addr, 5, 9, []byte{0, 0, 0, 7, 'o'}).Own())
			sim.Run()

			if st := rt.Stats(); st.Processed != 2 || st.Errors != 0 {
				t.Fatalf("processed %d, errors %d", st.Processed, st.Errors)
			}
			if len(atA) != 1 || atA[0].ip.Src != client.Addr || atA[0].payload != "\x00\x00\x00\x07o" {
				t.Errorf("the outer packet's send after the re-entry arrived as %+v", atA)
			}
			if len(atB) != 1 || atB[0].payload != "\x00\x00\x00\x08" {
				t.Errorf("the inner packet arrived as %+v", atB)
			}
		})
	}
}

// TestPlanDecodesAsFreshProperty: random packet types, and random
// packets (values of the type, of other types, cut short or extended)
// decoded one after another over one kept plan, agree with a fresh
// Decode of each on the match and on the value.
func TestPlanDecodesAsFreshProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	for trial := 0; trial < 300; trial++ {
		typ := randTupleType(rng)
		kept, elems := newPlan(len(typ.Elems))
		if !kept.layout(typ, elems) {
			t.Fatalf("%v does not lay out", typ)
		}
		matched := 0
		for i := 0; i < 40; i++ {
			pkt := randPacket(t, rng, typ)
			v, ok := Decode(pkt, typ)
			if kok := kept.decode(pkt); kok != ok || ok && !value.Equal(kept.tuple, v) {
				t.Fatalf("trial %d (%v), packet %d %v: fresh (%s, %v), kept plan (%s, %v)",
					trial, typ, i, pkt, v, ok, kept.tuple, kok)
			}
			if ok {
				matched++
			}
		}
		if matched == 0 {
			t.Fatalf("trial %d (%v): no packet matched; the property checked only refusals", trial, typ)
		}
	}
}

// randPacket draws a packet for a plan of type typ: half encode a value
// of typ, the rest a value of another random type, and a quarter of all
// lose or gain a payload byte.
func randPacket(t *testing.T, rng *rand.Rand, typ ast.Tuple) *substrate.Packet {
	t.Helper()
	of := typ
	if rng.Intn(2) == 0 {
		of = randTupleType(rng)
	}
	pkt, err := Encode(randValue(rng, of))
	if err != nil {
		t.Fatal(err)
	}
	switch rng.Intn(8) {
	case 0:
		if len(pkt.Payload) > 0 {
			pkt.Payload = pkt.Payload[:len(pkt.Payload)-1]
		}
	case 1:
		pkt.Payload = append(pkt.Payload[:len(pkt.Payload):len(pkt.Payload)], byte(rng.Intn(256)))
	}
	return pkt
}
