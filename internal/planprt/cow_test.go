package planprt

import (
	"bytes"
	"testing"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/value"
	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/substrate"
)

// TestGatewayRewriteDoesNotMutateSharedPayload pins the copy-on-write
// packet contract end to end: Clone shares payload bytes, so a
// rewriting ASP (the balancer rewrites the destination address on every
// request) must never be observable through the original packet. All
// requests here deliberately share ONE payload slice — any in-place
// write on any hop would corrupt every other packet in flight.
func TestGatewayRewriteDoesNotMutateSharedPayload(t *testing.T) {
	sim, client, gw, srvA, srvB := topo(t)
	if _, err := Download(gw, balancer, Config{Verify: VerifySingleNode}); err != nil {
		t.Fatal(err)
	}
	shared := []byte("GET /index.html HTTP/1.0")
	want := append([]byte(nil), shared...)

	var delivered []*netsim.Packet
	keep := func(p *netsim.Packet) { delivered = append(delivered, p) }
	srvA.BindTCP(80, keep)
	srvB.BindTCP(80, keep)

	var sent []*netsim.Packet
	for i := 0; i < 8; i++ {
		pkt := substrate.NewTCP(client.Addr, netsim.MustAddr("10.0.0.99"), uint16(5000+i), 80, 0, substrate.FlagSyn, shared)
		sent = append(sent, pkt)
		client.Send(pkt)
	}
	sim.Run()

	if len(delivered) != 8 {
		t.Fatalf("delivered %d of 8", len(delivered))
	}
	if !bytes.Equal(shared, want) {
		t.Fatalf("shared payload mutated in place: %q", shared)
	}
	for i, p := range sent {
		if p.IP.Dst != netsim.MustAddr("10.0.0.99") {
			t.Errorf("sent[%d] destination rewritten in place: %s", i, p.IP.Dst)
		}
		if !bytes.Equal(p.Payload, want) {
			t.Errorf("sent[%d] payload mutated: %q", i, p.Payload)
		}
	}
	for i, p := range delivered {
		if !bytes.Equal(p.Payload, want) {
			t.Errorf("delivered[%d] payload wrong: %q", i, p.Payload)
		}
		if p.IP.Dst != srvA.Addr && p.IP.Dst != srvB.Addr {
			t.Errorf("delivered[%d] not rewritten: %s", i, p.IP.Dst)
		}
		// The gateway's Encode lends the request's bytes onward instead
		// of copying them, with nothing to append into.
		if &p.Payload[0] != &shared[0] || cap(p.Payload) != len(p.Payload) {
			t.Errorf("delivered[%d] payload: copied=%v, spare capacity %d", i, &p.Payload[0] != &shared[0], cap(p.Payload)-len(p.Payload))
		}
	}
}

var tcpBlob = ast.Tuple{Elems: []ast.Type{ast.IPT, ast.TCPT, ast.BlobT}}

// TestEncodeAliasesOneBlobSafely pins what Encode's zero-copy path may
// and may not share. A payload that is one blob IS the inbound payload's
// bytes, but with the capacity clipped, so an append on the outbound
// packet reallocates instead of writing into the inbound packet's spare
// capacity; CloneMut of the outbound packet is still a private copy; and
// a payload of several components is a fresh buffer as before.
func TestEncodeAliasesOneBlobSafely(t *testing.T) {
	backing := []byte("GET /index.html HTTP/1.0????")
	in := substrate.NewTCP(1, 2, 3, 80, 0, substrate.FlagSyn, backing[:24]) // 4 bytes of spare capacity
	v, ok := Decode(in, tcpBlob)
	if !ok {
		t.Fatal("decode")
	}
	out, err := Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	if &out.Payload[0] != &in.Payload[0] {
		t.Error("a pass-through blob payload was copied")
	}
	if cap(out.Payload) != len(out.Payload) {
		t.Fatalf("outbound payload keeps %d bytes of the inbound packet's spare capacity", cap(out.Payload)-len(out.Payload))
	}
	_ = append(out.Payload, "BOOM"...)
	if string(backing[24:]) != "????" {
		t.Fatalf("append on the outbound payload wrote into the inbound buffer: %q", backing)
	}

	mut := out.CloneMut()
	mut.Payload[0] = 'P'
	mut.TCP.DstPort = 8080
	if in.Payload[0] != 'G' || out.Payload[0] != 'G' || out.TCP.DstPort != 80 {
		t.Fatal("CloneMut of an aliasing packet is not a deep copy")
	}

	mixed, err := Encode(value.TupleV(v.Vs[0], v.Vs[1], value.Int(7), v.Vs[2]))
	if err != nil {
		t.Fatal(err)
	}
	if want := append([]byte{0, 0, 0, 7}, backing[:24]...); !bytes.Equal(mixed.Payload, want) {
		t.Fatalf("int*blob payload = %q", mixed.Payload)
	}
	mixed.Payload[4] = 'P'
	if in.Payload[0] != 'G' {
		t.Fatal("int*blob payload shares the blob's bytes")
	}
}

// sink is a node whose sends go nowhere, so that what Runtime.Process
// allocates is the runtime's own.
type sink struct {
	*netsim.Node
	last *substrate.Packet
}

func (s *sink) Relay(pkt *substrate.Packet, _ substrate.Iface) bool {
	s.last = pkt
	return true
}
func (s *sink) DeliverLocal(pkt *substrate.Packet) { s.last = pkt }

// TestPacketPathAllocs (one per package on the packet path; CI runs them
// by name). The exported codec: decoding a packet is one allocation
// (elements and both headers together), and so is encoding a
// pass-through TCP packet (packet and transport header together, payload
// aliased). Runtime.Process pays neither on an owned packet: it decodes
// into the channel's kept plan and sends in the packet it was given,
// and the JIT builds the header ipDestSet / ipSrcSet returns into the
// send in the instance, so a gateway request or response, a
// pass-through send and a five-element decode allocate nothing.
func TestPacketPathAllocs(t *testing.T) {
	in := substrate.NewTCP(1, 2, 3, 80, 0, substrate.FlagSyn, make([]byte, 512))
	var v value.Value
	if n := testing.AllocsPerRun(200, func() { v, _ = Decode(in, tcpBlob) }); n != 1 {
		t.Errorf("Decode allocates %.1f/op, want 1", n)
	}
	var out *substrate.Packet
	if n := testing.AllocsPerRun(200, func() { out, _ = Encode(v) }); n != 1 {
		t.Errorf("Encode of a pass-through TCP packet allocates %.1f/op, want 1", n)
	}
	if out == nil || len(out.Payload) != 512 {
		t.Fatal("encode")
	}

	process := func(src string, proto substrate.Packet, wantDst string) float64 {
		t.Helper()
		node := &sink{Node: netsim.NewNode(netsim.New(), "gw", substrate.MustAddr("10.0.0.1"))}
		prog, err := Load(src, Config{Verify: VerifyPrivileged})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := Install(node, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		pkt := new(substrate.Packet)
		n := testing.AllocsPerRun(200, func() {
			*pkt = proto
			if !rt.Process(pkt.Own(), nil) {
				t.Fatal("no channel took the packet")
			}
		})
		if st := rt.Stats(); st.Errors != 0 || st.Processed == 0 {
			t.Fatalf("%d processed, %d exceptions", st.Processed, st.Errors)
		}
		if wantDst != "" && (node.last != pkt || pkt.IP.Dst != substrate.MustAddr(wantDst)) {
			t.Fatalf("sent in the inbound packet: %v; to %s, want %s", node.last == pkt, pkt.IP.Dst, wantDst)
		}
		return n
	}
	client, virtual, server0 := substrate.MustAddr("10.0.1.1"), substrate.MustAddr("10.0.0.100"), substrate.MustAddr("10.0.0.81")
	request := *substrate.NewTCP(client, virtual, 5000, 80, 0, substrate.FlagSyn, make([]byte, 512))
	if n := process(asp.HTTPGateway, request, "10.0.0.81"); n != 0 {
		t.Errorf("Process of a gateway request allocates %.1f/op, want 0", n)
	}
	response := *substrate.NewTCP(server0, client, 80, 5000, 0, substrate.FlagAck, make([]byte, 1400))
	if n := process(asp.HTTPGateway, response, "10.0.1.1"); n != 0 {
		t.Errorf("Process of a gateway response allocates %.1f/op, want 0", n)
	}
	other := *substrate.NewTCP(client, server0, 5000, 22, 0, substrate.FlagAck, make([]byte, 64))
	if n := process(asp.HTTPGateway, other, "10.0.0.81"); n != 0 {
		t.Errorf("Process of a pass-through OnRemote(network, p) allocates %.1f/op, want 0", n)
	}
	// Wider than the codec's small plan (the MPEG reply's shape): the
	// runtime lays out each channel's plan at its width. No send, because
	// encoding a payload of several components builds a buffer.
	const wide = `
channel network(ps : int, ss : int, p : ip*udp*host*int*blob) is
  (ps + #4 p + blobLen(#5 p), ss)
`
	mreply := *substrate.NewUDP(server0, client, 7000, 7000, make([]byte, 8+64))
	if n := process(wide, mreply, ""); n != 0 {
		t.Errorf("Process of a five-element decode allocates %.1f/op, want 0", n)
	}
}
