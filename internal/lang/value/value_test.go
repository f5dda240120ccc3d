package value

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"planp.dev/planp/internal/substrate"
)

func TestConstructorsAndAccessors(t *testing.T) {
	if Int(42).AsInt() != 42 {
		t.Error("int")
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("bool")
	}
	if Str("hi").AsStr() != "hi" {
		t.Error("string")
	}
	if Char('x').AsChar() != 'x' {
		t.Error("char")
	}
	if HostV(0x0A000001).AsHost().String() != "10.0.0.1" {
		t.Error("host")
	}
	if string(Blob([]byte("ab")).AsBlob()) != "ab" {
		t.Error("blob")
	}
	tup := TupleV(Int(1), Str("a"))
	if len(tup.Vs) != 2 || tup.Vs[1].AsStr() != "a" {
		t.Error("tuple")
	}
}

func TestAccessorPanicsOnWrongKind(t *testing.T) {
	cases := []func(){
		func() { Int(1).AsStr() },
		func() { Str("x").AsInt() },
		func() { Unit.AsBool() },
		func() { Int(1).AsTable() },
		func() { Str("x").AsIP() },
		func() { Int(1).AsTCP() },
		func() { Int(1).AsUDP() },
		func() { Str("x").AsBlob() },
		func() { Int(1).AsChar() },
		func() { Int(1).AsHost() },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestEqual(t *testing.T) {
	ip1 := IP(&IPHeader{IPHeader: substrate.IPHeader{Src: 1, Dst: 2, Proto: 6, TTL: 64}, Len: 40})
	ip2 := IP(&IPHeader{IPHeader: substrate.IPHeader{Src: 1, Dst: 2, Proto: 6, TTL: 64}, Len: 40})
	ip3 := IP(&IPHeader{IPHeader: substrate.IPHeader{Src: 1, Dst: 3, Proto: 6, TTL: 64}, Len: 40})
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Int(1), Str("1"), false},
		{Unit, Unit, true},
		{Str("a"), Str("a"), true},
		{Blob([]byte("xy")), Blob([]byte("xy")), true},
		{Blob([]byte("xy")), Blob([]byte("xz")), false},
		{TupleV(Int(1), Str("a")), TupleV(Int(1), Str("a")), true},
		{TupleV(Int(1)), TupleV(Int(1), Int(2)), false},
		{ListV([]Value{Int(1)}), ListV([]Value{Int(1)}), true},
		{ip1, ip2, true},
		{ip1, ip3, false},
		{TCP(&TCPHeader{SrcPort: 1}), TCP(&TCPHeader{SrcPort: 1}), true},
		{TCP(&TCPHeader{SrcPort: 1}), TCP(&TCPHeader{SrcPort: 2}), false},
		{UDP(&UDPHeader{UDPHeader: substrate.UDPHeader{DstPort: 5}}), UDP(&UDPHeader{UDPHeader: substrate.UDPHeader{DstPort: 5}}), true},
	}
	for i, tc := range cases {
		if got := Equal(tc.a, tc.b); got != tc.want {
			t.Errorf("case %d: Equal(%s, %s) = %v", i, tc.a, tc.b, got)
		}
	}
}

// TestEncodeKeyInjective property-checks that distinct scalar values get
// distinct keys and equal values get equal keys.
func TestEncodeKeyInjective(t *testing.T) {
	f := func(a, b int64, s1, s2 string) bool {
		ka := EncodeKey(TupleV(Int(a), Str(s1)))
		kb := EncodeKey(TupleV(Int(b), Str(s2)))
		same := a == b && s1 == s2
		return (ka == kb) == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestEncodeKeyNoConcatCollision guards the classic length-prefix bug:
// ("ab","c") must differ from ("a","bc").
func TestEncodeKeyNoConcatCollision(t *testing.T) {
	k1 := EncodeKey(TupleV(Str("ab"), Str("c")))
	k2 := EncodeKey(TupleV(Str("a"), Str("bc")))
	if k1 == k2 {
		t.Error("length-prefix collision")
	}
	k3 := EncodeKey(TupleV(Int(12), Int(3)))
	k4 := EncodeKey(TupleV(Int(1), Int(23)))
	if k3 == k4 {
		t.Error("integer concatenation collision")
	}
	// Different kinds with the same rendering must differ.
	if EncodeKey(Int(1)) == EncodeKey(Bool(true)) {
		t.Error("kind tag collision")
	}
	if EncodeKey(Str("u")) == EncodeKey(Unit) {
		t.Error("unit/string collision")
	}
}

// TestEqualImpliesEqualKeys: Equal values must share a key (soundness of
// table lookups).
func TestEqualImpliesEqualKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		v := randValue(rng, 3)
		w := Clone(v)
		if !Equal(v, w) {
			t.Fatalf("clone not Equal: %s", v)
		}
		if EncodeKey(v) != EncodeKey(w) {
			t.Fatalf("equal values, different keys: %s", v)
		}
	}
}

// randValue builds a random equality value of bounded depth.
func randValue(rng *rand.Rand, depth int) Value {
	choices := 6
	if depth > 0 {
		choices = 8
	}
	switch rng.Intn(choices) {
	case 0:
		return Int(rng.Int63n(1000) - 500)
	case 1:
		return Bool(rng.Intn(2) == 0)
	case 2:
		return Str(randString(rng))
	case 3:
		return Char(byte(rng.Intn(256)))
	case 4:
		return HostV(Host(rng.Uint32()))
	case 5:
		b := make([]byte, rng.Intn(6))
		rng.Read(b)
		return Blob(b)
	case 6:
		n := 1 + rng.Intn(3)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randValue(rng, depth-1)
		}
		return TupleV(elems...)
	default:
		n := rng.Intn(3)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randValue(rng, depth-1)
		}
		return ListV(elems)
	}
}

func randString(rng *rand.Rand) string {
	b := make([]byte, rng.Intn(6))
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// TestTableOps runs the same operations over a table of each word kind,
// which stores 8-byte words, and over tables of strings and tuples,
// which store Values.
func TestTableOps(t *testing.T) {
	k1 := TupleV(HostV(1), Int(80))
	k2 := TupleV(HostV(2), Int(80))
	for _, elems := range [][3]Value{
		{Int(-1), Int(2), Int(1 << 40)},
		{Bool(true), Bool(false), Bool(false)},
		{Char('a'), Char('b'), Char('z')},
		{HostV(0x0A000051), HostV(0x0A000052), HostV(0xFFFFFFFF)},
		{Str("a"), Str("b"), Str("a2")},
		{TupleV(Int(1), Str("x")), TupleV(Int(2), Blob([]byte("y"))), TupleV(Int(3), Str("z"))},
	} {
		a, b, a2 := elems[0], elems[1], elems[2]
		t.Run(a.Kind.String(), func(t *testing.T) {
			tbl := NewTable(4)
			if v, ok := tbl.Get(k1); ok || v.Kind != 0 {
				t.Errorf("empty table lookup = (%s, %v)", v, ok)
			}
			tbl.Put(k1, a)
			tbl.Put(k2, b)
			if words := isWord(a.Kind); (tbl.w != nil) != words || (tbl.m != nil) == words {
				t.Errorf("%s elements: word map %v, value map %v", a.Kind, tbl.w != nil, tbl.m != nil)
			}
			if v, ok := tbl.Get(k1); !ok || !Equal(v, a) {
				t.Errorf("get after put = (%s, %v), want %s", v, ok, a)
			}
			tbl.Put(k1, a2)
			if v, _ := tbl.Get(k1); !Equal(v, a2) {
				t.Errorf("overwrite: get = %s, want %s", v, a2)
			}
			if tbl.Len() != 2 {
				t.Errorf("len = %d", tbl.Len())
			}
			tbl.Delete(k1)
			if v, ok := tbl.Get(k1); ok || v.Kind != 0 {
				t.Errorf("after delete: get = (%s, %v)", v, ok)
			}
			tbl.Delete(k1) // idempotent
			if v, _ := tbl.Get(k2); tbl.Len() != 1 || !Equal(v, b) {
				t.Errorf("after delete: len %d, get(k2) = %s", tbl.Len(), v)
			}
		})
	}
	if NewTable(-5).Len() != 0 {
		t.Error("negative capacity should clamp")
	}
	// mkTable(n) is program text: n is a hint, never a reservation.
	if huge := NewTable(1 << 40); huge.cap != maxTableHint {
		t.Errorf("hint 1<<40 kept as %d, want %d", huge.cap, maxTableHint)
	}
}

// TestWordTableTakesOtherKinds: the checker gives a table one element
// type, but Go code can store anything. A word table that receives a
// value of another kind — a non-word, or a word of another kind — keeps
// every entry it had and the new one, each read back at its own kind.
func TestWordTableTakesOtherKinds(t *testing.T) {
	for _, other := range []Value{Str("s"), Bool(true), TupleV(HostV(3), Int(4))} {
		tbl := NewTable(2)
		tbl.Put(Int(1), HostV(10))
		tbl.Put(Int(2), HostV(20))
		tbl.Delete(Int(2))
		tbl.Put(Int(3), other)
		tbl.Put(Int(4), HostV(40))
		want := map[int64]Value{1: HostV(10), 3: other, 4: HostV(40)}
		if tbl.Len() != len(want) || tbl.w != nil {
			t.Errorf("after storing %s: len %d, word map %v", other, tbl.Len(), tbl.w != nil)
		}
		for k, w := range want {
			if v, ok := tbl.Get(Int(k)); !ok || !Equal(v, w) {
				t.Errorf("after storing %s: get(%d) = (%s, %v), want %s", other, k, v, ok, w)
			}
		}
		if _, ok := tbl.Get(Int(2)); ok {
			t.Errorf("after storing %s: the deleted key came back", other)
		}
	}
}

func TestTableIsReference(t *testing.T) {
	tbl := NewTable(1)
	v1 := TableV(tbl)
	v2 := v1 // copying the Value aliases the table
	v2.AsTable().Put(Int(1), Int(2))
	if got, ok := v1.AsTable().Get(Int(1)); !ok || got.AsInt() != 2 {
		t.Error("table copy does not alias")
	}
}

func TestString(t *testing.T) {
	cases := map[string]Value{
		"()":        Unit,
		"42":        Int(42),
		"-7":        Int(-7),
		"true":      Bool(true),
		"'z'":       Char('z'),
		"10.0.0.1":  HostV(0x0A000001),
		"hello":     Str("hello"),
		"<blob 3B>": Blob([]byte{1, 2, 3}),
		"(1,two)":   TupleV(Int(1), Str("two")),
		"[1,2]":     ListV([]Value{Int(1), Int(2)}),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String(%v) = %q, want %q", v.Kind, got, want)
		}
	}
	if !strings.Contains(TableV(NewTable(1)).String(), "hash_table") {
		t.Error("table rendering")
	}
	if !strings.Contains(IP(&IPHeader{IPHeader: substrate.IPHeader{Src: 1, Dst: 2}}).String(), "->") {
		t.Error("ip rendering")
	}
}

func TestExceptionAndRaise(t *testing.T) {
	defer func() {
		r := recover()
		ex, ok := r.(Exception)
		if !ok {
			t.Fatalf("recovered %T", r)
		}
		if ex.Msg != "bad index 7" {
			t.Errorf("msg %q", ex.Msg)
		}
		if !strings.Contains(ex.Error(), "planp exception") {
			t.Errorf("Error() = %q", ex.Error())
		}
	}()
	Raise("bad index %d", 7)
}

func TestKindString(t *testing.T) {
	if KindInt.String() != "int" || KindTable.String() != "hash_table" {
		t.Error("kind names")
	}
	if !strings.Contains(Kind(200).String(), "200") {
		t.Error("unknown kind should render numerically")
	}
}

var sinkKey string

func BenchmarkEncodeKeyTuple(b *testing.B) {
	v := TupleV(HostV(0x0A000001), Int(4321))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkKey = EncodeKey(v)
	}
}
