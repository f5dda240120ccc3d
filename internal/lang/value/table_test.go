package value

import (
	"math/rand"
	"testing"

	"planp.dev/planp/internal/substrate"
)

// TestHeaderKeysCoverEveryField is the regression test for table-key
// identity disagreeing with `=`: EncodeKey used to render ip from
// Src/Dst/Proto, tcp from ports+Seq and udp from ports only, so two
// headers that were <> shared a table entry.
func TestHeaderKeysCoverEveryField(t *testing.T) {
	a, b := TCP(&TCPHeader{SrcPort: 1, DstPort: 2, Seq: 3, Ack: 4}), TCP(&TCPHeader{SrcPort: 1, DstPort: 2, Seq: 3, Ack: 5})
	if Equal(a, b) || EncodeKey(a) == EncodeKey(b) {
		t.Fatalf("tcp headers differing in Ack: Equal=%v, keys %q %q", Equal(a, b), EncodeKey(a), EncodeKey(b))
	}
	tbl := NewTable(4)
	tbl.Put(a, Int(1))
	tbl.Put(b, Int(2))
	if v, _ := tbl.Get(a); tbl.Len() != 2 || v.AsInt() != 1 {
		t.Fatalf("two <> tcp keys share an entry: len %d, get(a) = %s", tbl.Len(), v)
	}

	// One variant per field of each header; all pairwise distinct.
	ip := func(h substrate.IPHeader) Value { return IP(&IPHeader{IPHeader: h}) }
	udp := func(h substrate.UDPHeader) Value { return UDP(&UDPHeader{UDPHeader: h}) }
	variants := []Value{
		IP(&IPHeader{}), ip(substrate.IPHeader{Src: 1}), ip(substrate.IPHeader{Dst: 1}), ip(substrate.IPHeader{Proto: 1}),
		ip(substrate.IPHeader{TTL: 1}), IP(&IPHeader{Len: 1}), ip(substrate.IPHeader{ID: 1}),
		TCP(&TCPHeader{}), TCP(&TCPHeader{SrcPort: 1}), TCP(&TCPHeader{DstPort: 1}), TCP(&TCPHeader{Seq: 1}),
		TCP(&TCPHeader{Ack: 1}), TCP(&TCPHeader{Flags: 1}), TCP(&TCPHeader{Window: 1}),
		UDP(&UDPHeader{}), udp(substrate.UDPHeader{SrcPort: 1}), udp(substrate.UDPHeader{DstPort: 1}), UDP(&UDPHeader{Len: 1}),
		TupleV(Int(1), Int(2)), ListV([]Value{Int(1), Int(2)}), // Equal tells a tuple from a list
	}
	for i, x := range variants {
		for j, y := range variants {
			if (EncodeKey(x) == EncodeKey(y)) != (i == j) {
				t.Errorf("variants %d and %d: keys %q %q", i, j, EncodeKey(x), EncodeKey(y))
			}
		}
	}
}

// keyStream decodes table keys of mixed shapes from bytes; the property
// test feeds it random bytes and FuzzTableKeys the fuzzer's. Domains are
// small (like the int keys TestEnginesAgreeOnRandomTablePrograms draws)
// so that keys repeat and near-misses — same words, other kinds — occur.
type keyStream struct{ b []byte }

func (s *keyStream) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *keyStream) scalar() Value {
	w := int64(s.next() % 3)
	switch s.next() % 4 {
	case 0:
		return Int(w - 1)
	case 1:
		return Bool(w == 1)
	case 2:
		return Char(byte(w))
	default:
		return HostV(Host(w))
	}
}

func (s *keyStream) key(depth int) Value {
	shapes := byte(9)
	if depth > 0 {
		shapes = 11
	}
	switch s.next() % shapes {
	case 0, 1:
		return s.scalar()
	case 2, 3: // the (host*int)-shaped fast path
		return TupleV(s.scalar(), s.scalar())
	case 4:
		return Str(string(make([]byte, s.next()%3)))
	case 5:
		return Blob(make([]byte, s.next()%3))
	case 6:
		return IP(&IPHeader{IPHeader: substrate.IPHeader{Src: Host(s.next() % 2), TTL: s.next() % 2}, Len: int(s.next() % 2)})
	case 7:
		return TCP(&TCPHeader{SrcPort: uint16(s.next() % 2), Ack: uint32(s.next() % 2), Window: uint16(s.next() % 2)})
	case 8:
		return UDP(&UDPHeader{UDPHeader: substrate.UDPHeader{DstPort: uint16(s.next() % 2)}, Len: int(s.next() % 2)})
	case 9:
		elems := make([]Value, 1+s.next()%3)
		for i := range elems {
			elems[i] = s.key(depth - 1)
		}
		return TupleV(elems...)
	default:
		elems := make([]Value, s.next()%3)
		for i := range elems {
			elems[i] = s.key(depth - 1)
		}
		return ListV(elems)
	}
}

// checkTableAgainstReference drives a Table and a map[string]Value keyed
// by EncodeKey — the reference identity — through the same operations
// and requires them to agree after each one; over the keys it has seen
// it requires both identities to coincide with Equal.
func checkTableAgainstReference(t *testing.T, input []byte) {
	s := &keyStream{b: input}
	tbl, ref := NewTable(1), map[string]Value{}
	var seen []Value
	for step := 0; len(s.b) > 0 && step < 256; step++ {
		op, k := s.next()%4, s.key(2)
		rk := EncodeKey(k)
		switch op {
		case 0, 1:
			tbl.Put(k, Int(int64(step)))
			ref[rk] = Int(int64(step))
		case 2:
			tbl.Delete(k)
			delete(ref, rk)
		}
		got, ok := tbl.Get(Clone(k))
		want, wok := ref[rk]
		if ok != wok || (ok && got.I != want.I) {
			t.Fatalf("step %d: key %s (%q): table has (%v,%v), reference (%v,%v)", step, k, rk, got, ok, want, wok)
		}
		if tbl.Len() != len(ref) {
			t.Fatalf("step %d: key %s: Len %d, reference %d", step, k, tbl.Len(), len(ref))
		}
		if len(seen) < 48 {
			seen = append(seen, k)
		}
	}
	for _, x := range seen {
		for _, y := range seen {
			eq := Equal(x, y)
			if (EncodeKey(x) == EncodeKey(y)) != eq || (keyOf(x) == keyOf(y)) != eq {
				t.Fatalf("%s and %s: Equal=%v, EncodeKey equal=%v, table key equal=%v",
					x, y, eq, EncodeKey(x) == EncodeKey(y), keyOf(x) == keyOf(y))
			}
		}
	}
}

func TestTableAgreesWithEncodeKeyReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0xBEEF))
	for i := 0; i < 300; i++ {
		input := make([]byte, 32+rng.Intn(600))
		rng.Read(input)
		checkTableAgainstReference(t, input)
	}
}

// FuzzTableKeys is the same property as a native fuzz target (corpus in
// testdata/fuzz/FuzzTableKeys).
func FuzzTableKeys(f *testing.F) {
	f.Add([]byte{0, 2, 1, 3, 0, 1, 3, 2, 1, 3, 0, 1, 2, 2, 1, 3, 0, 1})
	f.Fuzz(checkTableAgainstReference)
}

func TestCloneSharesNoSlice(t *testing.T) {
	v := TupleV(Int(1), Blob([]byte("ab")), ListV([]Value{Str("x")}))
	c := Clone(v)
	v.Vs[0], v.Vs[1].B[0], v.Vs[2].Vs[0] = Int(2), 'z', Str("y")
	if want := TupleV(Int(1), Blob([]byte("ab")), ListV([]Value{Str("x")})); !Equal(c, want) {
		t.Fatalf("clone changed with its original: %s", c)
	}
}

// TestPacketPathAllocs (one per package on the packet path; CI runs them
// by name) pins the table operations on a (host*int) connection key:
// none builds a string, and a warm word table — the gateway's (host)
// hash_table — rebuilds its element without allocating, as a table of
// Values returns its own.
func TestPacketPathAllocs(t *testing.T) {
	words, values := NewTable(256), NewTable(256)
	k := TupleV(HostV(0x0A000101), Int(4001))
	v, tv := HostV(0x0A000051), TupleV(HostV(0x0A000051), Int(80))
	words.Put(k, v)
	values.Put(k, tv)
	var got, gotT Value
	for name, op := range map[string]func(){
		"word Get":           func() { got, _ = words.Get(k) },
		"word Put existing":  func() { words.Put(k, v) },
		"word Delete":        func() { words.Delete(TupleV(HostV(1), Int(2))) },
		"tuple Get":          func() { gotT, _ = values.Get(k) },
		"tuple Put existing": func() { values.Put(k, tv) },
	} {
		if n := testing.AllocsPerRun(200, op); n != 0 {
			t.Errorf("%s on a (host*int) key allocates %.1f/op, want 0", name, n)
		}
	}
	if !Equal(got, v) || !Equal(gotT, tv) || words.w == nil {
		t.Fatalf("Get = %s and %s (word map %v)", got, gotT, words.w != nil)
	}
}
