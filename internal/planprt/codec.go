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
package planprt

import (
	"fmt"

	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/value"
	"planp.dev/planp/internal/substrate"
)

// headers backs the header values of one decoded packet; small is the
// single allocation behind the usual packet types of up to three
// components (ip*tcp*blob, ip*udp*blob): headers and tuple elements.
type headers struct {
	ip  value.IPHeader
	tcp value.TCPHeader
	udp value.UDPHeader
}

const smallElems = 3

type small struct {
	headers
	elems [smallElems]value.Value
}

// Decode attempts to decode pkt as a value of packet type t. The boolean
// reports whether the packet matches; errors are impossible (mismatch is
// the only failure mode, and a t that is not a packet type — not a tuple
// starting with ip — matches nothing). A trailing blob aliases
// pkt.Payload: transmitted payloads are immutable.
func Decode(pkt *substrate.Packet, t ast.Type) (value.Value, bool) {
	return decode(pkt, t, nil)
}

// scratch is caller-owned memory behind a decoded value: the headers,
// and elems (empty, capacity at least the type's width) for the tuple.
type scratch struct {
	headers
	elems []value.Value
}

// decode is Decode into mem, so the value is good until the caller
// decodes into mem again. A nil mem is a fresh allocation.
func decode(pkt *substrate.Packet, t ast.Type, mem *scratch) (value.Value, bool) {
	tup, ok := t.(ast.Tuple)
	if !ok || len(tup.Elems) == 0 || !ast.Equal(tup.Elems[0], ast.IPT) {
		return value.Unit, false
	}
	var d *headers
	var elems []value.Value
	if mem != nil {
		d, elems = &mem.headers, mem.elems
	} else if n := len(tup.Elems); n <= smallElems {
		s := new(small)
		d, elems = &s.headers, s.elems[:0]
	} else {
		d, elems = new(headers), make([]value.Value, 0, n)
	}

	ipLen := substrate.IPHeaderLen + len(pkt.Payload)
	switch {
	case pkt.TCP != nil:
		ipLen += substrate.TCPHeaderLen
	case pkt.UDP != nil:
		ipLen += substrate.UDPHeaderLen
	}
	d.ip = value.IPHeader{IPHeader: pkt.IP, Len: ipLen}
	elems = append(elems, value.IP(&d.ip))

	rest := tup.Elems[1:]
	if len(rest) > 0 && ast.Equal(rest[0], ast.TCPT) {
		if pkt.TCP == nil {
			return value.Unit, false
		}
		d.tcp = *pkt.TCP
		elems = append(elems, value.TCP(&d.tcp))
		rest = rest[1:]
	} else if len(rest) > 0 && ast.Equal(rest[0], ast.UDPT) {
		if pkt.UDP == nil {
			return value.Unit, false
		}
		d.udp = value.UDPHeader{UDPHeader: *pkt.UDP, Len: substrate.UDPHeaderLen + len(pkt.Payload)}
		elems = append(elems, value.UDP(&d.udp))
		rest = rest[1:]
	}

	buf := pkt.Payload
	for i, et := range rest {
		base, ok := et.(ast.Base)
		if !ok {
			return value.Unit, false
		}
		switch base.Kind {
		case ast.TBlob:
			if i != len(rest)-1 {
				return value.Unit, false
			}
			elems = append(elems, value.Blob(buf))
			buf = nil
		case ast.TChar:
			if len(buf) < 1 {
				return value.Unit, false
			}
			elems = append(elems, value.Char(buf[0]))
			buf = buf[1:]
		case ast.TBool:
			if len(buf) < 1 || buf[0] > 1 {
				return value.Unit, false
			}
			elems = append(elems, value.Bool(buf[0] == 1))
			buf = buf[1:]
		case ast.TInt:
			if len(buf) < 4 {
				return value.Unit, false
			}
			v := int32(uint32(buf[0])<<24 | uint32(buf[1])<<16 | uint32(buf[2])<<8 | uint32(buf[3]))
			elems = append(elems, value.Int(int64(v)))
			buf = buf[4:]
		case ast.THost:
			if len(buf) < 4 {
				return value.Unit, false
			}
			h := value.Host(uint32(buf[0])<<24 | uint32(buf[1])<<16 | uint32(buf[2])<<8 | uint32(buf[3]))
			elems = append(elems, value.HostV(h))
			buf = buf[4:]
		case ast.TString:
			if len(buf) < 2 {
				return value.Unit, false
			}
			n := int(buf[0])<<8 | int(buf[1])
			if len(buf) < 2+n {
				return value.Unit, false
			}
			elems = append(elems, value.Str(string(buf[2:2+n])))
			buf = buf[2+n:]
		default:
			return value.Unit, false
		}
	}
	if len(buf) != 0 {
		return value.Unit, false // strict: payload must be consumed
	}
	return value.TupleV(elems...), true
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
