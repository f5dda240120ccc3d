package planprt

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/value"
	"planp.dev/planp/internal/substrate"
)

// randTupleType draws a random packet type: ip header, optional
// transport header, scalar components, optional trailing blob.
func randTupleType(rng *rand.Rand) ast.Tuple {
	elems := []ast.Type{ast.IPT}
	switch rng.Intn(3) {
	case 0:
		elems = append(elems, ast.TCPT)
	case 1:
		elems = append(elems, ast.UDPT)
	}
	scalars := []ast.Type{ast.IntT, ast.BoolT, ast.CharT, ast.HostT, ast.StringT}
	for n := rng.Intn(5); n > 0; n-- {
		elems = append(elems, scalars[rng.Intn(len(scalars))])
	}
	if rng.Intn(2) == 0 {
		elems = append(elems, ast.BlobT)
	}
	return ast.Tuple{Elems: elems}
}

// randValue draws a random value of type t (t must come from
// randTupleType).
func randValue(rng *rand.Rand, t ast.Tuple) value.Value {
	vs := []value.Value{value.IP(&value.IPHeader{IPHeader: substrate.IPHeader{
		Src:   substrate.Addr(rng.Uint32()),
		Dst:   substrate.Addr(rng.Uint32()),
		Proto: uint8(rng.Intn(256)),
		TTL:   uint8(1 + rng.Intn(255)),
		ID:    rng.Uint32(),
	}})}
	for _, et := range t.Elems[1:] {
		base := et.(ast.Base)
		switch base.Kind {
		case ast.TTCP:
			vs = append(vs, value.TCP(&value.TCPHeader{
				SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()),
				Seq: rng.Uint32(), Ack: rng.Uint32(),
				Flags: uint8(rng.Intn(256)), Window: uint16(rng.Uint32()),
			}))
		case ast.TUDP:
			vs = append(vs, value.UDP(&value.UDPHeader{UDPHeader: substrate.UDPHeader{
				SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()),
			}}))
		case ast.TInt:
			vs = append(vs, value.Int(int64(int32(rng.Uint32()))))
		case ast.TBool:
			vs = append(vs, value.Bool(rng.Intn(2) == 1))
		case ast.TChar:
			vs = append(vs, value.Char(byte(rng.Intn(256))))
		case ast.THost:
			vs = append(vs, value.HostV(substrate.Addr(rng.Uint32())))
		case ast.TString:
			b := make([]byte, rng.Intn(40))
			rng.Read(b)
			vs = append(vs, value.Str(string(b)))
		case ast.TBlob:
			b := make([]byte, rng.Intn(200))
			rng.Read(b)
			vs = append(vs, value.Blob(b))
		}
	}
	return value.TupleV(vs...)
}

// TestCodecRoundTripProperty: for random packet types and random values
// of those types, Encode then Decode under the same type must match,
// and re-encoding the decoded value must reproduce the packet exactly
// (headers and payload). Decode must also be strict: perturbing the
// payload length of a blob-less packet makes the match fail.
func TestCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		typ := randTupleType(rng)
		v := randValue(rng, typ)
		pkt, err := Encode(v)
		if err != nil {
			t.Fatalf("trial %d (%v): encode: %v", trial, typ, err)
		}
		dec, ok := Decode(pkt, typ)
		if !ok {
			t.Fatalf("trial %d (%v): decode rejected its own encoding", trial, typ)
		}
		pkt2, err := Encode(dec)
		if err != nil {
			t.Fatalf("trial %d (%v): re-encode: %v", trial, typ, err)
		}
		if !reflect.DeepEqual(pkt.IP, pkt2.IP) ||
			!reflect.DeepEqual(pkt.TCP, pkt2.TCP) ||
			!reflect.DeepEqual(pkt.UDP, pkt2.UDP) ||
			!bytes.Equal(pkt.Payload, pkt2.Payload) {
			t.Fatalf("trial %d (%v): round trip changed the packet:\n  %v\n  %v",
				trial, typ, pkt, pkt2)
		}

		hasBlob := ast.Equal(typ.Elems[len(typ.Elems)-1], ast.BlobT)
		if !hasBlob {
			longer := pkt.Clone()
			longer.Payload = append(append([]byte(nil), pkt.Payload...), 0)
			if _, ok := Decode(longer, typ); ok {
				t.Fatalf("trial %d (%v): decode accepted unconsumed payload", trial, typ)
			}
			if len(pkt.Payload) > 0 {
				shorter := pkt.Clone()
				shorter.Payload = shorter.Payload[:len(shorter.Payload)-1]
				if _, ok := Decode(shorter, typ); ok {
					t.Fatalf("trial %d (%v): decode accepted truncated payload", trial, typ)
				}
			}
		}
	}
}

// fuzzTypes is the fixed palette of packet types FuzzDecode probes —
// raw-IP, TCP, and UDP shapes with every payload component kind.
var fuzzTypes = []ast.Tuple{
	{Elems: []ast.Type{ast.IPT, ast.BlobT}},
	{Elems: []ast.Type{ast.IPT, ast.IntT, ast.BoolT, ast.CharT, ast.HostT, ast.StringT}},
	{Elems: []ast.Type{ast.IPT, ast.TCPT, ast.BlobT}},
	{Elems: []ast.Type{ast.IPT, ast.TCPT, ast.IntT, ast.StringT}},
	{Elems: []ast.Type{ast.IPT, ast.UDPT, ast.StringT, ast.BlobT}},
	{Elems: []ast.Type{ast.IPT, ast.UDPT, ast.HostT, ast.IntT}},
}

// notPacketTypes are type arguments Decode must refuse rather than trust:
// the empty tuple used to panic (it indexed Elems[1:]), and a tuple that
// does not start with ip was decoded as if it did.
var notPacketTypes = []ast.Type{
	ast.Tuple{},
	ast.Tuple{Elems: []ast.Type{ast.BlobT}},
	ast.Tuple{Elems: []ast.Type{ast.TCPT, ast.BlobT}},
	ast.Tuple{Elems: []ast.Type{ast.IntT, ast.IPT, ast.BlobT}},
	ast.BlobT,
	nil,
}

func refusesNonPacketTypes(t *testing.T, pkt *substrate.Packet) {
	t.Helper()
	for _, typ := range notPacketTypes {
		if v, ok := Decode(pkt, typ); ok || v.Kind != value.KindUnit {
			t.Fatalf("Decode under %v = (%s, %v), want ((), false)", typ, v, ok)
		}
	}
}

func TestDecodeRefusesNonPacketTypes(t *testing.T) {
	refusesNonPacketTypes(t, substrate.NewTCP(1, 2, 3, 4, 0, 0, []byte("abcd")))
	refusesNonPacketTypes(t, substrate.NewUDP(1, 2, 3, 4, nil))
	refusesNonPacketTypes(t, &substrate.Packet{})
}

// FuzzDecode throws arbitrary packets at Decode under every fuzz type:
// it must never panic, a plan that every input decodes over (a
// Runtime's kept memory) must decide and decode each one as Decode does
// on fresh memory, and anything it accepts must survive an
// Encode/Decode round trip with headers and payload intact.
func FuzzDecode(f *testing.F) {
	kept := make([]*plan, len(fuzzTypes))
	for i, typ := range fuzzTypes {
		p, elems := newPlan(len(typ.Elems))
		if !p.layout(typ, elems) {
			f.Fatalf("%v does not lay out", typ)
		}
		kept[i] = p
	}
	f.Add(uint8(0), uint16(80), uint16(1234), []byte{})
	f.Add(uint8(1), uint16(80), uint16(1234), []byte{0, 0, 0, 42, 1, 'x', 10, 0, 0, 1, 0, 1, 'y'})
	f.Add(uint8(2), uint16(53), uint16(9), []byte{0, 3, 'a', 'b', 'c'})
	f.Add(uint8(3), uint16(0), uint16(0), []byte{255, 255})
	f.Fuzz(func(t *testing.T, shape uint8, sport, dport uint16, payload []byte) {
		pkt := &substrate.Packet{IP: substrate.IPHeader{
			Src: substrate.MustAddr("10.0.0.1"), Dst: substrate.MustAddr("10.0.0.2"),
			TTL: 64, ID: 1,
		}}
		switch shape % 3 {
		case 0: // raw IP
		case 1:
			pkt.IP.Proto = substrate.ProtoTCP
			pkt.TCP = &substrate.TCPHeader{SrcPort: sport, DstPort: dport, Flags: substrate.FlagSyn}
		case 2:
			pkt.IP.Proto = substrate.ProtoUDP
			pkt.UDP = &substrate.UDPHeader{SrcPort: sport, DstPort: dport}
		}
		pkt.Payload = payload

		refusesNonPacketTypes(t, pkt)
		for i, typ := range fuzzTypes {
			v, ok := Decode(pkt, typ)
			// Decoding over the last input is the same function of the
			// packet as decoding into fresh memory.
			if kok := kept[i].decode(pkt); kok != ok || ok && !value.Equal(kept[i].tuple, v) {
				t.Fatalf("%v: fresh decode (%s, %v), kept plan (%s, %v)", typ, v, ok, kept[i].tuple, kok)
			}
			if !ok {
				continue
			}
			enc, err := Encode(v)
			if err != nil {
				t.Fatalf("%v: decoded value does not re-encode: %v", typ, err)
			}
			if !bytes.Equal(enc.Payload, pkt.Payload) {
				t.Fatalf("%v: payload changed: %x -> %x", typ, pkt.Payload, enc.Payload)
			}
			// A type that declares a transport header must carry it
			// through; a type that omits it views the packet at the IP
			// layer and legitimately drops it (§2.3 dispatch).
			declared := false
			for _, et := range typ.Elems[1:] {
				if ast.Equal(et, ast.TCPT) || ast.Equal(et, ast.UDPT) {
					declared = true
				}
			}
			if declared && (!reflect.DeepEqual(enc.TCP, pkt.TCP) || !reflect.DeepEqual(enc.UDP, pkt.UDP)) {
				t.Fatalf("%v: transport header changed", typ)
			}
			if enc.IP.Src != pkt.IP.Src || enc.IP.Dst != pkt.IP.Dst ||
				enc.IP.TTL != pkt.IP.TTL || enc.IP.ID != pkt.IP.ID {
				t.Fatalf("%v: ip header changed: %+v -> %+v", typ, pkt.IP, enc.IP)
			}
			if _, ok := Decode(enc, typ); !ok {
				t.Fatalf("%v: re-encoded packet no longer decodes", typ)
			}
		}
	})
}
