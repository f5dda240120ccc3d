// Packet codec: conversion between simulator packets and the typed
// packet tuples channel functions receive. Decoding implements the
// dispatch rule of §2/§2.3 — a packet matches a channel iff its headers
// and payload decode under the channel's declared packet type — which is
// what makes overloaded channels work on untagged traffic.
//
// Payload component encodings:
//
//	char   1 byte
//	bool   1 byte (0 or 1; anything else fails to decode)
//	int    4 bytes big-endian two's complement
//	host   4 bytes big-endian
//	string 2-byte big-endian length prefix + bytes
//	blob   all remaining bytes (only legal in final position)
//
// A packet matches only if the payload is consumed exactly (strict
// decoding), so overloads with different scalar shapes are disjoint.
//
// A channel's packet type is fixed when the program is downloaded, so
// it is compiled once into a decode plan, as a message parser is
// generated once from its declared format: the plan is the tuple laid
// out for that type, its header elements pointing at the plan's own
// header structs and each payload element's Kind set. Decoding a packet
// then writes only the header structs and each payload element's word
// (I, S or B). A Runtime keeps one plan per channel and decodes each
// packet over the last one (runtime.go); Decode is a plan on fresh
// memory.
package planprt

import (
	"fmt"

	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/typecheck"
	"planp.dev/planp/internal/lang/value"
	"planp.dev/planp/internal/substrate"
)

// plan is a packet type laid out for decoding, and the memory a packet
// decodes into. tuple is the decoded value; its Vs are nil when the
// type is not a packet type (not a tuple starting with ip, or a blob
// that is not last), and then the plan matches nothing.
type plan struct {
	ip        value.IPHeader
	tcp       value.TCPHeader
	udp       value.UDPHeader
	transport value.Kind // KindTCP or KindUDP when the type declares one, else 0
	tuple     value.Value
}

// smallPlan is the one allocation behind a fresh plan of up to three
// components, the usual packet types (ip*tcp*blob, ip*udp*blob).
type smallPlan struct {
	plan
	elems [3]value.Value
}

// newPlan returns a plan's memory with n elements, all of kind zero.
func newPlan(n int) (*plan, []value.Value) {
	if n <= len(smallPlan{}.elems) {
		s := new(smallPlan)
		return &s.plan, s.elems[:n:n]
	}
	return new(plan), make([]value.Value, n)
}

// layout lays packet type t out in p on elems (len: t's components),
// and reports whether t is a packet type.
func (p *plan) layout(t ast.Type, elems []value.Value) bool {
	tup, _ := t.(ast.Tuple)
	if len(tup.Elems) == 0 || !ast.Equal(tup.Elems[0], ast.IPT) {
		return false
	}
	rest := tup.Elems[1:]
	if len(rest) > 0 && ast.Equal(rest[0], ast.TCPT) {
		p.transport, rest = value.KindTCP, rest[1:]
	} else if len(rest) > 0 && ast.Equal(rest[0], ast.UDPT) {
		p.transport, rest = value.KindUDP, rest[1:]
	}
	pay := elems[len(elems)-len(rest):]
	for i, et := range rest {
		k := payloadKind(et)
		if k == 0 || k == value.KindBlob && i != len(rest)-1 {
			return false
		}
		pay[i].Kind = k
	}
	p.bind(elems)
	return true
}

// payloadKind returns the kind of a payload component of type t, or 0
// if no payload component has that type.
func payloadKind(t ast.Type) value.Kind {
	base, _ := t.(ast.Base)
	switch base.Kind {
	case ast.TChar:
		return value.KindChar
	case ast.TBool:
		return value.KindBool
	case ast.TInt:
		return value.KindInt
	case ast.THost:
		return value.KindHost
	case ast.TString:
		return value.KindString
	case ast.TBlob:
		return value.KindBlob
	}
	return 0
}

// freshPlan lays packet type t out on fresh memory. If t is not a
// packet type, the plan matches nothing.
func freshPlan(t ast.Type) *plan {
	p, elems := newPlan(components(t))
	p.layout(t, elems)
	return p
}

// layoutPlans lays out one plan per channel, indexed like chans, on one
// element array.
func layoutPlans(chans []typecheck.Channel) []plan {
	n := 0
	for i := range chans {
		n += components(chans[i].Decl.PacketType())
	}
	plans, elems := make([]plan, len(chans)), make([]value.Value, n)
	for i := range chans {
		t := chans[i].Decl.PacketType()
		w := components(t)
		plans[i].layout(t, elems[:w:w])
		elems = elems[w:]
	}
	return plans
}

// components is the number of components of packet type t.
func components(t ast.Type) int {
	tup, _ := t.(ast.Tuple)
	return len(tup.Elems)
}

// bind points the header elements at p's header structs and makes
// elems p's tuple.
func (p *plan) bind(elems []value.Value) {
	elems[0] = value.IP(&p.ip)
	switch p.transport {
	case value.KindTCP:
		elems[1] = value.TCP(&p.tcp)
	case value.KindUDP:
		elems[1] = value.UDP(&p.udp)
	}
	p.tuple = value.TupleV(elems...)
}

// Decode attempts to decode pkt as a value of packet type t. The boolean
// reports whether the packet matches; errors are impossible (mismatch is
// the only failure mode, and a t that is not a packet type — not a tuple
// starting with ip — matches nothing). A trailing blob aliases
// pkt.Payload: transmitted payloads are immutable.
func Decode(pkt *substrate.Packet, t ast.Type) (value.Value, bool) {
	p := freshPlan(t)
	if !p.decode(pkt) {
		return value.Unit, false
	}
	return p.tuple, true
}

// decode decodes pkt into p and reports whether it matches. p.tuple is
// the packet until p decodes again; after a mismatch it is garbage.
func (p *plan) decode(pkt *substrate.Packet) bool {
	elems := p.tuple.Vs
	if elems == nil {
		return false
	}
	ipLen := substrate.IPHeaderLen + len(pkt.Payload)
	switch {
	case pkt.TCP != nil:
		ipLen += substrate.TCPHeaderLen
	case pkt.UDP != nil:
		ipLen += substrate.UDPHeaderLen
	}
	p.ip = value.IPHeader{IPHeader: pkt.IP, Len: ipLen}
	pay := elems[1:]
	switch p.transport {
	case value.KindTCP:
		if pkt.TCP == nil {
			return false
		}
		p.tcp, pay = *pkt.TCP, pay[1:]
	case value.KindUDP:
		if pkt.UDP == nil {
			return false
		}
		p.udp = value.UDPHeader{UDPHeader: *pkt.UDP, Len: substrate.UDPHeaderLen + len(pkt.Payload)}
		pay = pay[1:]
	}

	buf := pkt.Payload
	for i := range pay {
		e := &pay[i]
		switch e.Kind {
		case value.KindBlob: // last, by the plan
			e.B, buf = buf, nil
		case value.KindChar:
			if len(buf) < 1 {
				return false
			}
			e.I, buf = int64(buf[0]), buf[1:]
		case value.KindBool:
			if len(buf) < 1 || buf[0] > 1 {
				return false
			}
			e.I, buf = int64(buf[0]), buf[1:]
		case value.KindInt:
			if len(buf) < 4 {
				return false
			}
			e.I, buf = int64(int32(be32(buf))), buf[4:]
		case value.KindHost:
			if len(buf) < 4 {
				return false
			}
			e.I, buf = int64(be32(buf)), buf[4:]
		case value.KindString:
			if len(buf) < 2 {
				return false
			}
			n := int(buf[0])<<8 | int(buf[1])
			if len(buf) < 2+n {
				return false
			}
			e.S, buf = string(buf[2:2+n]), buf[2+n:]
		}
	}
	return len(buf) == 0 // strict: payload must be consumed
}

// be32 reads a big-endian 32-bit word.
func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// encoded is the one allocation behind an encoded packet: the packet and
// whichever transport header it points to.
type encoded struct {
	pkt substrate.Packet
	tcp substrate.TCPHeader
	udp substrate.UDPHeader
}

// Encode converts a packet tuple value back to a simulator packet. The
// value must have been produced by Decode or constructed under a packet
// type the checker validated; malformed shapes return an error (engine
// bug or adversarial program, never silent corruption).
//
// A payload that is one blob is not copied: the packet's Payload is the
// blob's bytes with the capacity clipped, so an append on either side
// cannot reach the other. Both sides are immutable — a blob because
// every blob primitive returns a fresh one, a transmitted payload by the
// copy-on-write rule — so the sharing is never observable.
func Encode(v value.Value) (*substrate.Packet, error) { return encode(v, nil) }

// header returns the transport header of an encoded packet: was, the
// one the packet came in with, if it already reads w, else w in spare or
// in a fresh header. A Clone shares *was, so it is never written.
func header[H comparable](was, spare *H, w H) *H {
	if was != nil && *was == w {
		return was
	}
	if spare == nil {
		spare = new(H)
	}
	*spare = w
	return spare
}

// encode is Encode into pkt, an owned packet the caller gives up (nil: a
// fresh one). Every field of pkt is overwritten. After an error pkt is
// half-written and good for nothing.
func encode(v value.Value, pkt *substrate.Packet) (*substrate.Packet, error) {
	if v.Kind != value.KindTuple || len(v.Vs) == 0 {
		return nil, fmt.Errorf("planprt: packet value must be a tuple, got %s", v.Kind)
	}
	if v.Vs[0].Kind != value.KindIP {
		return nil, fmt.Errorf("planprt: packet tuple must start with an ip header, got %s", v.Vs[0].Kind)
	}
	var tcp *substrate.TCPHeader // spare headers: part of a fresh packet's allocation
	var udp *substrate.UDPHeader
	if pkt == nil {
		e := new(encoded)
		pkt, tcp, udp = &e.pkt, &e.tcp, &e.udp
	}
	wasTCP, wasUDP := pkt.TCP, pkt.UDP
	*pkt = substrate.Packet{IP: v.Vs[0].AsIP().IPHeader}
	// The packet is referenced only by the caller (freshly built, or
	// owned when it came in), so downstream routers may forward it in
	// place.
	pkt.Own()

	rest := v.Vs[1:]
	if len(rest) > 0 && rest[0].Kind == value.KindTCP {
		pkt.TCP = header(wasTCP, tcp, *rest[0].AsTCP())
		pkt.IP.Proto = substrate.ProtoTCP
		rest = rest[1:]
	} else if len(rest) > 0 && rest[0].Kind == value.KindUDP {
		pkt.UDP = header(wasUDP, udp, rest[0].AsUDP().UDPHeader)
		pkt.IP.Proto = substrate.ProtoUDP
		rest = rest[1:]
	}

	if len(rest) == 1 && rest[0].Kind == value.KindBlob {
		b := rest[0].B
		pkt.Payload = b[:len(b):len(b)]
		return pkt, nil
	}
	var buf []byte
	for _, ev := range rest {
		switch ev.Kind {
		case value.KindBlob:
			buf = append(buf, ev.AsBlob()...)
		case value.KindChar:
			buf = append(buf, ev.AsChar())
		case value.KindBool:
			b := byte(0)
			if ev.AsBool() {
				b = 1
			}
			buf = append(buf, b)
		case value.KindInt:
			u := uint32(int32(ev.AsInt()))
			buf = append(buf, byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
		case value.KindHost:
			u := uint32(ev.AsHost())
			buf = append(buf, byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
		case value.KindString:
			s := ev.AsStr()
			if len(s) > 0xFFFF {
				return nil, fmt.Errorf("planprt: string payload component exceeds 64KiB")
			}
			buf = append(buf, byte(len(s)>>8), byte(len(s)))
			buf = append(buf, s...)
		default:
			return nil, fmt.Errorf("planprt: %s is not encodable as a payload component", ev.Kind)
		}
	}
	pkt.Payload = buf
	return pkt, nil
}
