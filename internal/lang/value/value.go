// Package value defines the run-time representation of PLAN-P values
// shared by the interpreter, the bytecode VM, and the JIT-specialized
// engine.
//
// Values use a compact tagged struct rather than a Go interface so that
// integers, booleans, characters, and hosts never allocate. To a program a
// header is a value: ipDestSet and the other setters return a rewritten
// copy. A header a state keeps is never written again; one lent with a
// send's tuple is rewritten by the next run of its site (see Clone).
package value

import (
	"fmt"
	"strconv"
	"strings"

	"planp.dev/planp/internal/substrate"
)

// Kind tags the dynamic type of a Value.
type Kind uint8

// Value kinds.
const (
	KindUnit Kind = iota + 1
	KindInt
	KindBool
	KindString
	KindChar
	KindHost
	KindBlob
	KindTuple
	KindList
	KindTable
	KindIP
	KindTCP
	KindUDP
)

var kindNames = map[Kind]string{
	KindUnit: "unit", KindInt: "int", KindBool: "bool", KindString: "string",
	KindChar: "char", KindHost: "host", KindBlob: "blob", KindTuple: "tuple",
	KindList: "list", KindTable: "hash_table", KindIP: "ip", KindTCP: "tcp",
	KindUDP: "udp",
}

// String returns the kind's type name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// A program reads the packets the substrate carries (§2: existing packet
// formats, unchanged), so its hosts and headers are the substrate's own
// types. The language adds one word to two headers: the lengths ipLen and
// udpLen read, which the substrate works out from the payload and the
// runtime fills in when it decodes a packet.

// Host is the substrate's packed big-endian IPv4 address.
type Host = substrate.Addr

// IPHeader is the substrate's IP header plus its total length.
type IPHeader struct {
	substrate.IPHeader
	Len int // total length including payload, bytes
}

// TCPHeader is the substrate's TCP header; its flag bits are
// substrate.FlagSyn and the rest.
type TCPHeader = substrate.TCPHeader

// TCPSyn is substrate.FlagSyn under the name bench/planpbench's
// hand-written gateway reads it by.
const TCPSyn = substrate.FlagSyn

// UDPHeader is the substrate's UDP header plus its length.
type UDPHeader struct {
	substrate.UDPHeader
	Len int // header and payload, bytes
}

// Table is a mutable PLAN-P hash table over any equality value. Tables
// are reference values: copying a Value that holds a Table aliases the
// same table (matching the paper's use of tables as per-channel mutable
// state). A table keeps what it stores but never a key Value: callers
// may pass a key built in memory they are about to reuse.
//
// The checker gives a table's elements one type, so the first Put picks
// the store: a word (int, bool, char, host) goes in w as its 8-byte I,
// the Kind kept once, where a whole Value is 96 bytes; anything else in
// m. If Go code later stores another kind, the words move into m.
//
// Tables are not safe for concurrent use; the runtime serializes all
// channel executions on a node.
type Table struct {
	m    map[tableKey]Value
	w    map[tableKey]int64
	cap  int32
	kind Kind // the kind of w's elements
}

// tableKey is a key's identity in the map. A scalar (int, bool, char,
// host) or a pair of scalars — the (host*int) connection key — is its
// kinds in shape plus its words in a and b, so a lookup builds no
// string; every other key has shape 0 and is its EncodeKey rendering,
// which stays the reference the fixed-width form is tested against.
type tableKey struct {
	shape uint16 // scalar: its Kind; pair: first Kind<<8 | second Kind
	a, b  int64
	s     string
}

func isWord(k Kind) bool {
	return k == KindInt || k == KindBool || k == KindChar || k == KindHost
}

func keyOf(v Value) tableKey {
	if isWord(v.Kind) {
		return tableKey{shape: uint16(v.Kind), a: v.I}
	}
	if v.Kind == KindTuple && len(v.Vs) == 2 && isWord(v.Vs[0].Kind) && isWord(v.Vs[1].Kind) {
		return tableKey{shape: uint16(v.Vs[0].Kind)<<8 | uint16(v.Vs[1].Kind), a: v.Vs[0].I, b: v.Vs[1].I}
	}
	return tableKey{s: EncodeKey(v)}
}

// NewTable returns an empty table with a capacity hint (the paper's
// mkTable(256) idiom). The hint sizes the map at the first Put: a table
// nothing is stored in (most installs of a protocol see no traffic of
// some channel) costs its header only. It is only a hint, and the
// number comes from downloaded program text, so it is clamped: no
// program can reserve memory it never fills.
func NewTable(capacity int) *Table {
	return &Table{cap: int32(min(max(capacity, 1), maxTableHint))}
}

const maxTableHint = 1 << 12

// Put stores v under key k, replacing any previous value.
func (t *Table) Put(k Value, v Value) {
	if t.m == nil && t.w == nil && isWord(v.Kind) {
		t.w, t.kind = make(map[tableKey]int64, t.cap), v.Kind
	}
	if t.w != nil && v.Kind == t.kind {
		t.w[keyOf(k)] = v.I
		return
	}
	if t.m == nil {
		t.m = make(map[tableKey]Value, max(int(t.cap), len(t.w)+1))
		for key, i := range t.w {
			t.m[key] = Value{Kind: t.kind, I: i}
		}
		t.w = nil
	}
	t.m[keyOf(k)] = v
}

// Get returns the value stored under k and whether it was present.
func (t *Table) Get(k Value) (Value, bool) {
	if t.w != nil {
		if i, ok := t.w[keyOf(k)]; ok {
			return Value{Kind: t.kind, I: i}, true
		}
		return Value{}, false
	}
	v, ok := t.m[keyOf(k)]
	return v, ok
}

// Delete removes k from the table (a no-op if absent).
func (t *Table) Delete(k Value) {
	key := keyOf(k)
	delete(t.w, key)
	delete(t.m, key)
}

// Len returns the number of entries.
func (t *Table) Len() int { return len(t.w) + len(t.m) }

// Value is a PLAN-P runtime value.
type Value struct {
	Kind Kind
	I    int64   // int, bool (0/1), char, host
	S    string  // string payload
	B    []byte  // blob payload
	Vs   []Value // tuple or list elements
	Ref  any     // *Table, *IPHeader, *TCPHeader, *UDPHeader
}

// Constructors.

// Unit is the unit value ().
var Unit = Value{Kind: KindUnit}

// Int returns an integer value.
func Int(v int64) Value { return Value{Kind: KindInt, I: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{Kind: KindBool, I: i}
}

// Str returns a string value.
func Str(s string) Value { return Value{Kind: KindString, S: s} }

// Char returns a character value.
func Char(c byte) Value { return Value{Kind: KindChar, I: int64(c)} }

// HostV returns a host value.
func HostV(h Host) Value { return Value{Kind: KindHost, I: int64(h)} }

// Blob returns a blob value wrapping b (not copied).
func Blob(b []byte) Value { return Value{Kind: KindBlob, B: b} }

// TupleV returns a tuple of the given elements (not copied).
func TupleV(elems ...Value) Value { return Value{Kind: KindTuple, Vs: elems} }

// ListV returns a list of the given elements (not copied).
func ListV(elems []Value) Value { return Value{Kind: KindList, Vs: elems} }

// TableV wraps a table reference.
func TableV(t *Table) Value { return Value{Kind: KindTable, Ref: t} }

// IP wraps an IP header.
func IP(h *IPHeader) Value { return Value{Kind: KindIP, Ref: h} }

// TCP wraps a TCP header.
func TCP(h *TCPHeader) Value { return Value{Kind: KindTCP, Ref: h} }

// UDP wraps a UDP header.
func UDP(h *UDPHeader) Value { return Value{Kind: KindUDP, Ref: h} }

// Accessors. These trust the type checker: calling them on a value of the
// wrong kind is a bug in an engine, and they panic with a diagnostic.

// AsInt returns the integer payload.
func (v Value) AsInt() int64 {
	if v.Kind != KindInt {
		panic(fmt.Sprintf("planp/value: AsInt on %s", v.Kind))
	}
	return v.I
}

// AsBool returns the boolean payload.
func (v Value) AsBool() bool {
	if v.Kind != KindBool {
		panic(fmt.Sprintf("planp/value: AsBool on %s", v.Kind))
	}
	return v.I != 0
}

// AsStr returns the string payload.
func (v Value) AsStr() string {
	if v.Kind != KindString {
		panic(fmt.Sprintf("planp/value: AsStr on %s", v.Kind))
	}
	return v.S
}

// AsChar returns the character payload.
func (v Value) AsChar() byte {
	if v.Kind != KindChar {
		panic(fmt.Sprintf("planp/value: AsChar on %s", v.Kind))
	}
	return byte(v.I)
}

// AsHost returns the host payload.
func (v Value) AsHost() Host {
	if v.Kind != KindHost {
		panic(fmt.Sprintf("planp/value: AsHost on %s", v.Kind))
	}
	return Host(v.I)
}

// AsBlob returns the blob payload.
func (v Value) AsBlob() []byte {
	if v.Kind != KindBlob {
		panic(fmt.Sprintf("planp/value: AsBlob on %s", v.Kind))
	}
	return v.B
}

// AsTable returns the table reference.
func (v Value) AsTable() *Table {
	t, ok := v.Ref.(*Table)
	if v.Kind != KindTable || !ok {
		panic(fmt.Sprintf("planp/value: AsTable on %s", v.Kind))
	}
	return t
}

// AsIP returns the IP header.
func (v Value) AsIP() *IPHeader {
	h, ok := v.Ref.(*IPHeader)
	if v.Kind != KindIP || !ok {
		panic(fmt.Sprintf("planp/value: AsIP on %s", v.Kind))
	}
	return h
}

// AsTCP returns the TCP header.
func (v Value) AsTCP() *TCPHeader {
	h, ok := v.Ref.(*TCPHeader)
	if v.Kind != KindTCP || !ok {
		panic(fmt.Sprintf("planp/value: AsTCP on %s", v.Kind))
	}
	return h
}

// AsUDP returns the UDP header.
func (v Value) AsUDP() *UDPHeader {
	h, ok := v.Ref.(*UDPHeader)
	if v.Kind != KindUDP || !ok {
		panic(fmt.Sprintf("planp/value: AsUDP on %s", v.Kind))
	}
	return h
}

// Equal reports deep structural equality between two values of the same
// (equality) type. Header values compare by field contents; blobs by
// bytes. Tables are not equality values (rejected by the checker).
func Equal(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindUnit:
		return true
	case KindInt, KindBool, KindChar, KindHost:
		return a.I == b.I
	case KindString:
		return a.S == b.S
	case KindBlob:
		return string(a.B) == string(b.B)
	case KindTuple, KindList:
		if len(a.Vs) != len(b.Vs) {
			return false
		}
		for i := range a.Vs {
			if !Equal(a.Vs[i], b.Vs[i]) {
				return false
			}
		}
		return true
	case KindIP:
		x, y := a.AsIP(), b.AsIP()
		return *x == *y
	case KindTCP:
		x, y := a.AsTCP(), b.AsTCP()
		return *x == *y
	case KindUDP:
		x, y := a.AsUDP(), b.AsUDP()
		return *x == *y
	default:
		return false
	}
}

// EncodeKey renders v as a canonical string usable as a hash-table key:
// two values share a rendering iff they are Equal (each component is
// length- or tag-delimited, and headers render every field).
func EncodeKey(v Value) string {
	var sb strings.Builder
	encodeKey(&sb, v)
	return sb.String()
}

func encodeKey(sb *strings.Builder, v Value) {
	switch v.Kind {
	case KindUnit:
		sb.WriteByte('u')
	case KindInt:
		sb.WriteByte('i')
		sb.WriteString(strconv.FormatInt(v.I, 10))
	case KindBool:
		sb.WriteByte('b')
		sb.WriteString(strconv.FormatInt(v.I, 10))
	case KindChar:
		sb.WriteByte('c')
		sb.WriteString(strconv.FormatInt(v.I, 10))
	case KindHost:
		sb.WriteByte('h')
		sb.WriteString(strconv.FormatInt(v.I, 10))
	case KindString:
		sb.WriteByte('s')
		sb.WriteString(strconv.Itoa(len(v.S)))
		sb.WriteByte(':')
		sb.WriteString(v.S)
	case KindBlob:
		sb.WriteByte('B')
		sb.WriteString(strconv.Itoa(len(v.B)))
		sb.WriteByte(':')
		sb.Write(v.B)
	case KindTuple, KindList:
		if v.Kind == KindTuple {
			sb.WriteByte('t')
		} else {
			sb.WriteByte('l')
		}
		sb.WriteString(strconv.Itoa(len(v.Vs)))
		for _, e := range v.Vs {
			sb.WriteByte(',')
			encodeKey(sb, e)
		}
	case KindIP:
		h := v.AsIP()
		sb.WriteByte('I')
		writeFields(sb, int64(h.Src), int64(h.Dst), int64(h.Proto), int64(h.TTL), int64(h.Len), int64(h.ID))
	case KindTCP:
		h := v.AsTCP()
		sb.WriteByte('T')
		writeFields(sb, int64(h.SrcPort), int64(h.DstPort), int64(h.Seq), int64(h.Ack), int64(h.Flags), int64(h.Window))
	case KindUDP:
		h := v.AsUDP()
		sb.WriteByte('U')
		writeFields(sb, int64(h.SrcPort), int64(h.DstPort), int64(h.Len))
	default:
		sb.WriteByte('?')
	}
}

// writeFields renders a header: every field Equal compares, or two
// headers that are <> would share a table entry.
func writeFields(sb *strings.Builder, fields ...int64) {
	for i, f := range fields {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatInt(f, 10))
	}
}

// Clone returns a copy of v that shares nothing with it but tables, which
// are reference values. A Context that keeps a packet value past the call
// that lent it must Clone it, headers included: the JIT builds a header
// returned straight into a send's tuple in per-instance memory, and
// planprt.Runtime decodes each packet into headers it owns.
func Clone(v Value) Value {
	switch v.Kind {
	case KindBlob:
		v.B = append([]byte(nil), v.B...)
	case KindTuple, KindList:
		elems := make([]Value, len(v.Vs))
		for i, e := range v.Vs {
			elems[i] = Clone(e)
		}
		v.Vs = elems
	case KindIP:
		v.Ref = ptr(*v.AsIP())
	case KindTCP:
		v.Ref = ptr(*v.AsTCP())
	case KindUDP:
		v.Ref = ptr(*v.AsUDP())
	}
	return v
}

func ptr[H any](h H) *H { return &h }

// String renders the value for diagnostics and the print/println
// primitives, in an SML-flavoured notation.
func (v Value) String() string {
	switch v.Kind {
	case KindUnit:
		return "()"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindChar:
		return "'" + string(byte(v.I)) + "'"
	case KindHost:
		return Host(v.I).String()
	case KindString:
		return v.S
	case KindBlob:
		return fmt.Sprintf("<blob %dB>", len(v.B))
	case KindTuple:
		parts := make([]string, len(v.Vs))
		for i, e := range v.Vs {
			parts[i] = e.String()
		}
		return "(" + strings.Join(parts, ",") + ")"
	case KindList:
		parts := make([]string, len(v.Vs))
		for i, e := range v.Vs {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ",") + "]"
	case KindTable:
		return fmt.Sprintf("<hash_table %d entries>", v.AsTable().Len())
	case KindIP:
		h := v.AsIP()
		return fmt.Sprintf("<ip %s->%s proto=%d len=%d>", h.Src, h.Dst, h.Proto, h.Len)
	case KindTCP:
		h := v.AsTCP()
		return fmt.Sprintf("<tcp %d->%d seq=%d>", h.SrcPort, h.DstPort, h.Seq)
	case KindUDP:
		h := v.AsUDP()
		return fmt.Sprintf("<udp %d->%d>", h.SrcPort, h.DstPort)
	default:
		return "<invalid>"
	}
}

// Exception is a PLAN-P-level exception. Engines raise it with panic and
// recover it at try/handle boundaries and at the channel-invocation
// boundary, where it is converted to an error. It never crosses the
// public API as a panic.
type Exception struct {
	Msg string
}

// Error implements error so unhandled exceptions surface cleanly.
func (e Exception) Error() string { return "planp exception: " + e.Msg }

// Raise panics with a PLAN-P exception. It is the single raising point
// used by all engines and primitives.
func Raise(format string, args ...any) {
	panic(Exception{Msg: fmt.Sprintf(format, args...)})
}
