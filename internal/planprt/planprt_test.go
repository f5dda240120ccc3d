package planprt

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/value"
	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/substrate"
)

// ---------------------------------------------------------------------------
// Codec

func TestCodecRoundTripTCPBlob(t *testing.T) {
	pkt := substrate.NewTCP(netsim.MustAddr("10.0.0.1"), netsim.MustAddr("10.0.0.2"), 4000, 80, 7, substrate.FlagSyn|substrate.FlagPsh, []byte("GET / HTTP/1.0"))
	typ := ast.Tuple{Elems: []ast.Type{ast.IPT, ast.TCPT, ast.BlobT}}
	v, ok := Decode(pkt, typ)
	if !ok {
		t.Fatal("decode failed")
	}
	back, err := Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	if back.IP != pkt.IP || *back.TCP != *pkt.TCP || string(back.Payload) != string(pkt.Payload) {
		t.Errorf("round trip mismatch:\n%v\nvs\n%v", pkt, back)
	}
}

func TestCodecScalarPayload(t *testing.T) {
	// char + int + bool + host + string, strictly consumed.
	payload := []byte{'A'}
	payload = append(payload, 0x00, 0x00, 0x01, 0x2C) // int 300
	payload = append(payload, 1)                      // bool true
	payload = append(payload, 10, 0, 0, 9)            // host 10.0.0.9
	payload = append(payload, 0, 2, 'h', 'i')         // string "hi"
	pkt := netsim.NewUDP(netsim.MustAddr("10.0.0.1"), netsim.MustAddr("10.0.0.2"), 1, 2, payload)
	typ := ast.Tuple{Elems: []ast.Type{ast.IPT, ast.UDPT, ast.CharT, ast.IntT, ast.BoolT, ast.HostT, ast.StringT}}
	v, ok := Decode(pkt, typ)
	if !ok {
		t.Fatal("decode failed")
	}
	if v.Vs[2].AsChar() != 'A' || v.Vs[3].AsInt() != 300 || !v.Vs[4].AsBool() {
		t.Errorf("scalar decode wrong: %s", v)
	}
	if v.Vs[5].AsHost().String() != "10.0.0.9" || v.Vs[6].AsStr() != "hi" {
		t.Errorf("host/string decode wrong: %s", v)
	}
	back, err := Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Payload, payload) {
		t.Errorf("re-encoded payload %x, want %x", back.Payload, payload)
	}
}

func TestCodecStrictness(t *testing.T) {
	pkt := netsim.NewUDP(netsim.MustAddr("10.0.0.1"), netsim.MustAddr("10.0.0.2"), 1, 2, []byte{1, 2, 3})
	cases := []ast.Type{
		ast.Tuple{Elems: []ast.Type{ast.IPT, ast.TCPT, ast.BlobT}},           // wrong transport
		ast.Tuple{Elems: []ast.Type{ast.IPT, ast.UDPT, ast.IntT}},            // needs 4 bytes
		ast.Tuple{Elems: []ast.Type{ast.IPT, ast.UDPT, ast.CharT}},           // leftover bytes
		ast.Tuple{Elems: []ast.Type{ast.IPT, ast.UDPT, ast.CharT, ast.IntT}}, // short int
		ast.Tuple{Elems: []ast.Type{ast.IPT, ast.UDPT, ast.StringT}},         // length prefix 0x0102 > len
		ast.IntT, // not a tuple
	}
	for _, typ := range cases {
		if _, ok := Decode(pkt, typ); ok {
			t.Errorf("Decode(%s) matched a 3-byte UDP payload", typ)
		}
	}
	// bool must be 0 or 1.
	pkt2 := netsim.NewUDP(netsim.MustAddr("10.0.0.1"), netsim.MustAddr("10.0.0.2"), 1, 2, []byte{7})
	if _, ok := Decode(pkt2, ast.Tuple{Elems: []ast.Type{ast.IPT, ast.UDPT, ast.BoolT}}); ok {
		t.Error("byte 7 decoded as bool")
	}
}

// TestCodecQuickRoundTrip property-tests Decode∘Encode = id over random
// scalar payloads.
func TestCodecQuickRoundTrip(t *testing.T) {
	typ := ast.Tuple{Elems: []ast.Type{ast.IPT, ast.UDPT, ast.CharT, ast.IntT, ast.BlobT}}
	f := func(c byte, n int32, blob []byte) bool {
		v := value.TupleV(
			value.IP(&value.IPHeader{IPHeader: substrate.IPHeader{Src: 0x0A000001, Dst: 0x0A000002, Proto: 17, TTL: 64, ID: 9}}),
			value.UDP(&value.UDPHeader{UDPHeader: substrate.UDPHeader{SrcPort: 5, DstPort: 6}}),
			value.Char(c), value.Int(int64(n)), value.Blob(blob),
		)
		pkt, err := Encode(v)
		if err != nil {
			return false
		}
		v2, ok := Decode(pkt, typ)
		if !ok {
			return false
		}
		return v2.Vs[2].AsChar() == c && v2.Vs[3].AsInt() == int64(n) &&
			bytes.Equal(v2.Vs[4].AsBlob(), blob)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEncodeRejectsMalformed(t *testing.T) {
	if _, err := Encode(value.Int(3)); err == nil {
		t.Error("Encode(int) should fail")
	}
	if _, err := Encode(value.TupleV(value.Int(3))); err == nil {
		t.Error("Encode(tuple without ip) should fail")
	}
}

// ---------------------------------------------------------------------------
// Runtime integration

// topo builds client -- gateway(router) -- {srvA, srvB, virtual} with
// host routes, mirroring §3.2's cluster front end.
func topo(t *testing.T) (sim *netsim.Simulator, client, gw, srvA, srvB *netsim.Node) {
	t.Helper()
	sim = netsim.New(netsim.WithSeed(42))
	client = netsim.NewNode(sim, "client", netsim.MustAddr("10.0.1.1"))
	gw = netsim.NewNode(sim, "gw", netsim.MustAddr("10.0.0.1"))
	srvA = netsim.NewNode(sim, "srvA", netsim.MustAddr("10.0.0.2"))
	srvB = netsim.NewNode(sim, "srvB", netsim.MustAddr("10.0.0.3"))
	gw.Forwarding = true
	lc := netsim.Connect(sim, client, gw, netsim.LinkConfig{Bandwidth: 10_000_000})
	la := netsim.Connect(sim, gw, srvA, netsim.LinkConfig{Bandwidth: 100_000_000})
	lb := netsim.Connect(sim, gw, srvB, netsim.LinkConfig{Bandwidth: 100_000_000})
	client.SetDefaultRoute(lc.Ifaces()[0])
	gw.AddRoute(client.Addr, lc.Ifaces()[1])
	gw.AddRoute(srvA.Addr, la.Ifaces()[0])
	gw.AddRoute(srvB.Addr, lb.Ifaces()[0])
	srvA.SetDefaultRoute(la.Ifaces()[1])
	srvB.SetDefaultRoute(lb.Ifaces()[1])
	return sim, client, gw, srvA, srvB
}

const balancer = `
channel network(ps : int, ss : (host) hash_table, p : ip*tcp*blob)
initstate mkTable(64) is
  if tcpDst(#2 p) = 80 then
    let
      val key : host*int = (ipSrc(#1 p), tcpSrc(#2 p))
      val srv : host =
        if tmem(ss, key) then tget(ss, key)
        else if ps mod 2 = 0 then 10.0.0.2 else 10.0.0.3
    in
      (tput(ss, key, srv);
       OnRemote(network, (ipDestSet(#1 p, srv), #2 p, #3 p));
       (ps + 1, ss))
    end
  else
    (OnRemote(network, p); (ps, ss))
`

func TestGatewayEndToEnd(t *testing.T) {
	for _, eng := range []EngineKind{EngineInterp, EngineBytecode, EngineJIT} {
		t.Run(string(eng), func(t *testing.T) {
			sim, client, gw, srvA, srvB := topo(t)
			rt, err := Download(gw, balancer, Config{Engine: eng, Verify: VerifySingleNode})
			if err != nil {
				t.Fatalf("download: %v", err)
			}
			var gotA, gotB int
			srvA.BindTCP(80, func(*netsim.Packet) { gotA++ })
			srvB.BindTCP(80, func(*netsim.Packet) { gotB++ })

			for i := 0; i < 10; i++ {
				pkt := substrate.NewTCP(client.Addr, netsim.MustAddr("10.0.0.99"), uint16(5000+i), 80, 0, substrate.FlagSyn, []byte("GET /index.html"))
				client.Send(pkt)
			}
			sim.Run()
			if gotA != 5 || gotB != 5 {
				t.Errorf("distribution A=%d B=%d, want 5/5", gotA, gotB)
			}
			if rt.Stats().Processed != 10 {
				t.Errorf("runtime processed %d, want 10", rt.Stats().Processed)
			}
			if got := rt.Instance().Proto.AsInt(); got != 10 {
				t.Errorf("protocol state = %d, want 10", got)
			}
		})
	}
}

// TestInvokeTimeIsSampled pins the contract of Stats.InvokeTime: every
// invocation is counted, one in invokeSample is timed and weighted.
func TestInvokeTimeIsSampled(t *testing.T) {
	sim, client, gw, _, _ := topo(t)
	rt, err := Download(gw, balancer, Config{Verify: VerifySingleNode})
	if err != nil {
		t.Fatal(err)
	}
	send := func(from, to int) Stats {
		for i := from; i < to; i++ {
			client.Send(substrate.NewTCP(client.Addr, netsim.MustAddr("10.0.0.99"), 5000, 80, uint32(i), substrate.FlagAck, nil))
			sim.Run()
		}
		return rt.Stats()
	}
	if st := send(0, invokeSample-1); st.InvokeTime != 0 || st.Processed != invokeSample-1 {
		t.Errorf("before the first sample: InvokeTime %v (want 0), Processed %d (want %d)", st.InvokeTime, st.Processed, invokeSample-1)
	}
	const total = 6400
	if st := send(invokeSample-1, total); st.InvokeTime <= 0 || st.Processed != total {
		t.Errorf("after %d invokes: InvokeTime %v (want > 0), Processed %d", total, st.InvokeTime, st.Processed)
	}
}

func TestStickyConnections(t *testing.T) {
	sim, client, gw, srvA, srvB := topo(t)
	if _, err := Download(gw, balancer, Config{Verify: VerifySingleNode}); err != nil {
		t.Fatal(err)
	}
	var gotA, gotB int
	srvA.BindTCP(80, func(*netsim.Packet) { gotA++ })
	srvB.BindTCP(80, func(*netsim.Packet) { gotB++ })
	// Five packets on ONE connection (same src port) must hit one server.
	for i := 0; i < 5; i++ {
		client.Send(substrate.NewTCP(client.Addr, netsim.MustAddr("10.0.0.99"), 5000, 80, uint32(i), substrate.FlagAck, []byte("segment")))
	}
	sim.Run()
	if gotA != 5 || gotB != 0 {
		t.Errorf("sticky routing broken: A=%d B=%d, want 5/0", gotA, gotB)
	}
}

func TestSingleNodeInstallLimit(t *testing.T) {
	_, _, gw, srvA, _ := topo(t)
	p, err := Load(balancer, Config{Verify: VerifySingleNode})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Install(gw, p, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Install(srvA, p, nil); err == nil {
		t.Error("second install of single-node program must fail")
	}
}

func TestNetworkVerifyRejectsGateway(t *testing.T) {
	_, err := Load(balancer, Config{Verify: VerifyNetwork})
	if err == nil {
		t.Fatal("network-wide verification must reject the rewriting gateway")
	}
	if !strings.Contains(err.Error(), "rejected by late checking") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestPrivilegedDownloadBypassesRejection(t *testing.T) {
	_, _, gw, _, _ := topo(t)
	rt, err := Download(gw, balancer, Config{Verify: VerifyPrivileged})
	if err != nil {
		t.Fatalf("privileged download failed: %v", err)
	}
	if rt.Program().Verify.AllOK() {
		t.Error("verification results should still record the failure")
	}
}

func TestDeliverAndPrintln(t *testing.T) {
	sim := netsim.New(netsim.WithSeed(1))
	a := netsim.NewNode(sim, "a", netsim.MustAddr("10.0.0.1"))
	b := netsim.NewNode(sim, "b", netsim.MustAddr("10.0.0.2"))
	l := netsim.Connect(sim, a, b, netsim.LinkConfig{Bandwidth: 10_000_000})
	a.SetDefaultRoute(l.Ifaces()[0])
	b.SetDefaultRoute(l.Ifaces()[1])

	var out bytes.Buffer
	src := `
channel network(ps : int, ss : unit, p : ip*udp*blob)
is
  (println("seen " ^ itos(blobLen(#3 p)) ^ "B from " ^ hostToString(ipSrc(#1 p)));
   deliver(p);
   (ps + 1, ss))
`
	if _, err := Download(b, src, Config{Output: &out, Verify: VerifyNetwork}); err != nil {
		t.Fatal(err)
	}
	got := 0
	b.BindUDP(9, func(*netsim.Packet) { got++ })
	a.Send(netsim.NewUDP(a.Addr, b.Addr, 1, 9, []byte("hello")))
	sim.Run()
	if got != 1 {
		t.Fatalf("app deliveries = %d, want 1", got)
	}
	if want := "seen 5B from 10.0.0.1\n"; out.String() != want {
		t.Errorf("output %q, want %q", out.String(), want)
	}
}

// TestLoadRefusesNonPacketDeliver: deliver takes a packet type, so a
// program that delivers anything else is refused at load, even under
// the privileged policy, and does not pass every analysis only to raise
// in encode on every packet.
func TestLoadRefusesNonPacketDeliver(t *testing.T) {
	for _, arg := range []string{"5", "#3 p", "(#2 p, #3 p)"} {
		src := `channel network(ps : int, ss : unit, p : ip*udp*blob) is (deliver(` + arg + `); (ps, ss))`
		for _, engine := range []EngineKind{EngineInterp, EngineBytecode, EngineJIT} {
			_, err := Load(src, Config{Engine: engine, Verify: VerifyPrivileged, NoCache: true})
			if err == nil || !strings.Contains(err.Error(), "deliver argument 1") {
				t.Errorf("%s: deliver(%s) loads: %v", engine, arg, err)
			}
		}
	}
}

func TestOnRemoteToSelfDeliversLocally(t *testing.T) {
	sim := netsim.New(netsim.WithSeed(1))
	a := netsim.NewNode(sim, "a", netsim.MustAddr("10.0.0.1"))
	b := netsim.NewNode(sim, "b", netsim.MustAddr("10.0.0.2"))
	l := netsim.Connect(sim, a, b, netsim.LinkConfig{Bandwidth: 10_000_000})
	a.SetDefaultRoute(l.Ifaces()[0])
	b.SetDefaultRoute(l.Ifaces()[1])
	// b redirects everything to itself: must deliver, not loop.
	src := `
channel network(ps : unit, ss : unit, p : ip*udp*blob)
is
  (OnRemote(network, (ipDestSet(#1 p, thisHost()), #2 p, #3 p)); (ps, ss))
`
	rt, err := Download(b, src, Config{Verify: VerifyNetwork})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	b.BindUDP(9, func(*netsim.Packet) { got++ })
	a.Send(netsim.NewUDP(a.Addr, b.Addr, 1, 9, []byte("x")))
	sim.Run()
	if got != 1 {
		t.Errorf("deliveries = %d, want 1", got)
	}
	if rt.Stats().SentLocal != 1 || rt.Stats().SentRemote != 0 {
		t.Errorf("stats local=%d remote=%d, want 1/0", rt.Stats().SentLocal, rt.Stats().SentRemote)
	}
}

// TestOnRemoteThatCannotLeaveIsANodeDrop: an ASP router on one segment
// passes a packet on unchanged, so split horizon leaves it no way out;
// the send is a counted node drop, not a silent loss.
func TestOnRemoteThatCannotLeaveIsANodeDrop(t *testing.T) {
	sim := netsim.New(netsim.WithSeed(1))
	seg := netsim.NewSegment(sim, "lan", netsim.LinkConfig{Bandwidth: 10_000_000})
	host := netsim.NewNode(sim, "host", netsim.MustAddr("10.0.0.1"))
	router := netsim.NewNode(sim, "router", netsim.MustAddr("10.0.0.254"))
	router.Forwarding = true
	host.SetDefaultRoute(seg.Attach(host))
	router.SetDefaultRoute(seg.Attach(router))
	src := `
channel network(ps : unit, ss : unit, p : ip*udp*blob)
is
  (OnRemote(network, p); (ps, ss))
`
	rt, err := Download(router, src, Config{Verify: VerifyPrivileged})
	if err != nil {
		t.Fatal(err)
	}
	host.Send(netsim.NewUDP(host.Addr, netsim.MustAddr("10.9.9.9"), 1, 9, []byte("x")))
	sim.Run()
	if st := rt.Stats(); st.Processed != 1 || st.SentRemote != 1 {
		t.Fatalf("processed %d, sent_remote %d; want 1 and 1", st.Processed, st.SentRemote)
	}
	if got := sim.Metrics().Snapshot()["node.router.dropped_pkts"]; got != 1 {
		t.Errorf("node.router.dropped_pkts = %d, want 1 (the send that could not leave)", got)
	}
}

func TestChannelTagDispatch(t *testing.T) {
	// A tagged send is processed by the named channel at the next hop.
	sim := netsim.New(netsim.WithSeed(1))
	a := netsim.NewNode(sim, "a", netsim.MustAddr("10.0.0.1"))
	b := netsim.NewNode(sim, "b", netsim.MustAddr("10.0.0.2"))
	l := netsim.Connect(sim, a, b, netsim.LinkConfig{Bandwidth: 10_000_000})
	a.SetDefaultRoute(l.Ifaces()[0])
	b.SetDefaultRoute(l.Ifaces()[1])

	srcA := `
channel special(ps : unit, ss : unit, p : ip*udp*blob)
is (deliver(p); (ps, ss))

channel network(ps : unit, ss : unit, p : ip*udp*blob)
is (OnRemote(special, p); (ps, ss))
`
	// a tags packets for channel "special"; b runs the same protocol, so
	// its special channel (which delivers) handles them.
	if _, err := Download(a, srcA, Config{Verify: VerifyNetwork}); err != nil {
		t.Fatal(err)
	}
	rtB, err := Download(b, srcA, Config{Verify: VerifyNetwork})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	b.BindUDP(9, func(*netsim.Packet) { got++ })

	// Feed a packet THROUGH a's PLAN-P layer by arriving from b.
	bToA := netsim.NewUDP(b.Addr, a.Addr, 1, 9, []byte("z"))
	_ = bToA
	// Simpler: send from a node c... instead directly invoke a's
	// processor via a received packet from the link: use b sending to a
	// won't help (we want a->b tagged). Use a raw packet handed to a's
	// Receive path.
	pkt := netsim.NewUDP(a.Addr, b.Addr, 1, 9, []byte("z"))
	a.Receive(pkt, nil)
	sim.Run()
	if got != 1 {
		t.Fatalf("tagged delivery = %d, want 1", got)
	}
	if rtB.Stats().Processed != 1 {
		t.Errorf("b processed %d, want 1 (tag dispatch)", rtB.Stats().Processed)
	}
}

func TestUnmatchedFallsThrough(t *testing.T) {
	sim, client, gw, srvA, _ := topo(t)
	// Gateway only treats TCP; UDP passes through standard forwarding.
	if _, err := Download(gw, balancer, Config{Verify: VerifySingleNode}); err != nil {
		t.Fatal(err)
	}
	got := 0
	srvA.BindUDP(53, func(*netsim.Packet) { got++ })
	client.Send(netsim.NewUDP(client.Addr, srvA.Addr, 1, 53, []byte("q")))
	sim.Run()
	if got != 1 {
		t.Errorf("UDP fall-through deliveries = %d, want 1", got)
	}
}

// TestParseConfig pins the one engine/verify vocabulary the planpd
// request parser, the fleet Spec precheck and the CLIs' -engine flags
// all read. It names the paper's two engines; the register VM is not
// in it.
func TestParseConfig(t *testing.T) {
	cases := []struct {
		engine, verify string
		want           Config
		errNames       string // non-empty: must fail, naming this value
	}{
		{"", "", Config{Engine: EngineJIT, Verify: VerifyNetwork}, ""},
		{"jit", "network", Config{Engine: EngineJIT, Verify: VerifyNetwork}, ""},
		{"interp", "single", Config{Engine: EngineInterp, Verify: VerifySingleNode}, ""},
		{"interp", "privileged", Config{Engine: EngineInterp, Verify: VerifyPrivileged}, ""},
		{"llvm", "", Config{}, `engine "llvm"`},
		{"bytecode", "single", Config{}, `engine "bytecode"`},
		{"JIT", "", Config{}, `engine "JIT"`},
		{"", "trusted", Config{}, `verify policy "trusted"`},
		{"quantum", "trusted", Config{}, `engine "quantum"`},
	}
	for _, tc := range cases {
		got, err := ParseConfig(tc.engine, tc.verify)
		switch {
		case tc.errNames != "":
			if err == nil || !strings.Contains(err.Error(), "unknown "+tc.errNames) {
				t.Errorf("ParseConfig(%q, %q): err %v, want one naming unknown %s", tc.engine, tc.verify, err, tc.errNames)
			}
		case err != nil || got != tc.want:
			t.Errorf("ParseConfig(%q, %q) = %+v, %v; want %+v", tc.engine, tc.verify, got, err, tc.want)
		}
	}
}

func TestLoadUnknownEngine(t *testing.T) {
	if _, err := Load(balancer, Config{Engine: "llvm", Verify: VerifySingleNode}); err == nil {
		t.Error("unknown engine must fail")
	}
}
