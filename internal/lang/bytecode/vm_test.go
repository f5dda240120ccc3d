package bytecode

import (
	"strings"
	"testing"

	"planp.dev/planp/internal/lang/prims"
	"planp.dev/planp/internal/lang/value"
	"planp.dev/planp/internal/substrate"
)

// vmCtx records effects for VM execution tests.
type vmCtx struct {
	out   strings.Builder
	sent  []string
	flood int
}

func (c *vmCtx) OnRemote(ch string, _ value.Value)   { c.sent = append(c.sent, ch) }
func (c *vmCtx) OnNeighbor(ch string, _ value.Value) { c.flood++ }
func (c *vmCtx) Deliver(value.Value)                 {}
func (c *vmCtx) Print(s string)                      { c.out.WriteString(s) }
func (c *vmCtx) ThisHost() value.Host                { return 1 }
func (c *vmCtx) Now() int64                          { return 0 }
func (c *vmCtx) Rand(n int64) int64                  { return 0 }
func (c *vmCtx) LinkLoadTo(value.Host) int64         { return 0 }
func (c *vmCtx) LinkBandwidthTo(value.Host) int64    { return 0 }

var _ prims.Context = (*vmCtx)(nil)

// runChannel compiles src, instantiates, and invokes channel 0 on a
// minimal packet, returning the new protocol state.
func runChannel(t *testing.T, src string) (value.Value, *vmCtx, error) {
	t.Helper()
	c := compileSrc(t, src)
	ctx := &vmCtx{}
	inst, err := c.NewInstance(ctx)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	pkt := value.TupleV(
		value.IP(&value.IPHeader{IPHeader: substrate.IPHeader{Src: 0x0A000001, Dst: 0x0A000002, Proto: 17, TTL: 64}, Len: 30}),
		value.UDP(&value.UDPHeader{UDPHeader: substrate.UDPHeader{SrcPort: 5, DstPort: 9}, Len: 10}),
		value.Blob([]byte("hello")),
	)
	err = inst.Invoke(0, ctx, pkt)
	return inst.Proto, ctx, err
}

func TestVMStringOps(t *testing.T) {
	proto, ctx, err := runChannel(t, `
channel network(ps : string, ss : int, p : ip*udp*blob) is
  let
    val a : string = "abc"
    val b : string = "abd"
    val cmp : string =
      (if a < b then "lt" else "ge") ^ "/" ^
      (if a <= a then "le" else "x") ^ "/" ^
      (if b > a then "gt" else "x") ^ "/" ^
      (if b >= b then "ge" else "x")
  in
    (println(cmp); deliver(p); (cmp, ss))
  end
`)
	if err != nil {
		t.Fatal(err)
	}
	if proto.AsStr() != "lt/le/gt/ge" {
		t.Errorf("string comparisons = %q", proto.AsStr())
	}
	if ctx.out.String() != "lt/le/gt/ge\n" {
		t.Errorf("output = %q", ctx.out.String())
	}
}

func TestVMGenericEquality(t *testing.T) {
	proto, _, err := runChannel(t, `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  let
    val same : bool = (1, "a") = (1, "a")
    val diff : bool = (1, "a") <> (2, "a")
    val blobs : bool = #3 p = #3 p
  in
    (deliver(p);
     (if same andalso diff andalso blobs then 1 else 0, ss))
  end
`)
	if err != nil {
		t.Fatal(err)
	}
	if proto.AsInt() != 1 {
		t.Error("generic equality failed")
	}
}

func TestVMNegNotChar(t *testing.T) {
	proto, _, err := runChannel(t, `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  let
    val n : int = - (3 + 4)
    val b : bool = not ('a' < 'b')
    val c : bool = 'z' >= 'a'
  in
    (deliver(p); (n + (if b then 100 else 0) + (if c then 10 else 0), ss))
  end
`)
	if err != nil {
		t.Fatal(err)
	}
	if proto.AsInt() != 3 { // -7 + 0 + 10
		t.Errorf("got %d, want 3", proto.AsInt())
	}
}

func TestVMExceptionInFunPropagates(t *testing.T) {
	proto, _, err := runChannel(t, `
fun boom(x : int) : int = x / 0
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (deliver(p); (try boom(3) handle 42 end, ss))
`)
	if err != nil {
		t.Fatal(err)
	}
	if proto.AsInt() != 42 {
		t.Errorf("fun exception not handled: %d", proto.AsInt())
	}
}

func TestVMUnhandledExceptionIsError(t *testing.T) {
	_, _, err := runChannel(t, `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (deliver(p); (raise "kaboom", ss))
`)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("err = %v", err)
	}
}

func TestVMOnNeighborFlood(t *testing.T) {
	_, ctx, err := runChannel(t, `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (OnNeighbor(network, p); (ps, ss))
`)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.flood != 1 {
		t.Errorf("flood sends = %d", ctx.flood)
	}
}

func TestVMGlobalsAndHostOps(t *testing.T) {
	proto, ctx, err := runChannel(t, `
val home : host = 10.0.0.1
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (if ipSrc(#1 p) = home then OnRemote(network, p) else deliver(p);
   (ps + hostToInt(home) mod 1000, ss))
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctx.sent) != 1 {
		t.Errorf("sends = %d (src is home)", len(ctx.sent))
	}
	if proto.AsInt() != (0x0A000001 % 1000) {
		t.Errorf("proto = %d", proto.AsInt())
	}
}

func TestVMListsAndConcat(t *testing.T) {
	proto, _, err := runChannel(t, `
channel network(ps : string, ss : (string) list, p : ip*udp*blob) is
  let
    val empty : (string) list = listNew()
    val l : (string) list = cons("a", cons("b", empty))
    val joined : string = hd(l) ^ hd(tl(l)) ^ itos(listLen(l))
  in
    (deliver(p); (joined, l))
  end
`)
	if err != nil {
		t.Fatal(err)
	}
	if proto.AsStr() != "ab2" {
		t.Errorf("proto = %q", proto.AsStr())
	}
}

func TestVMRegisterPressure(t *testing.T) {
	// Deeply right-nested arithmetic forces high register indices.
	expr := "ps"
	for i := 1; i <= 40; i++ {
		expr = "(" + expr + " + " + itoa(i) + " * (ss + " + itoa(i) + "))"
	}
	src := `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (deliver(p); (` + expr + `, ss))
`
	proto, _, err := runChannel(t, src)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for i := int64(1); i <= 40; i++ {
		want += i * i
	}
	if proto.AsInt() != want {
		t.Errorf("got %d, want %d", proto.AsInt(), want)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
