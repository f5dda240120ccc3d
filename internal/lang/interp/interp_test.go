package interp

import (
	"strings"
	"testing"

	"planp.dev/planp/internal/lang/parser"
	"planp.dev/planp/internal/lang/prims"
	"planp.dev/planp/internal/lang/typecheck"
	"planp.dev/planp/internal/lang/value"
	"planp.dev/planp/internal/substrate"
)

type ctx struct {
	out  strings.Builder
	sent []string
}

func (c *ctx) OnRemote(ch string, _ value.Value)   { c.sent = append(c.sent, ch) }
func (c *ctx) OnNeighbor(ch string, _ value.Value) { c.sent = append(c.sent, "~"+ch) }
func (c *ctx) Deliver(value.Value)                 {}
func (c *ctx) Print(s string)                      { c.out.WriteString(s) }
func (c *ctx) ThisHost() value.Host                { return 7 }
func (c *ctx) Now() int64                          { return 99 }
func (c *ctx) Rand(int64) int64                    { return 0 }
func (c *ctx) LinkLoadTo(value.Host) int64         { return 0 }
func (c *ctx) LinkBandwidthTo(value.Host) int64    { return 0 }

var _ prims.Context = (*ctx)(nil)

func run(t *testing.T, src, payload string) (value.Value, *ctx, error) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := typecheck.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(info)
	if err != nil {
		t.Fatal(err)
	}
	cx := &ctx{}
	inst, err := c.NewInstance(cx)
	if err != nil {
		t.Fatal(err)
	}
	p := value.TupleV(
		value.IP(&value.IPHeader{IPHeader: substrate.IPHeader{Src: 1, Dst: 2, Proto: 17, TTL: 64}}),
		value.UDP(&value.UDPHeader{UDPHeader: substrate.UDPHeader{SrcPort: 3, DstPort: 4}}),
		value.Blob([]byte(payload)),
	)
	err = inst.Invoke(0, cx, p)
	return inst.Proto, cx, err
}

func TestEvaluatorCore(t *testing.T) {
	proto, cx, err := run(t, `
val base : int = 5
fun square(x : int) : int = x * x
channel network(ps : int, ss : int, p : ip*udp*blob) is
  let
    val a : int = square(base) + blobLen(#3 p)
    val b : string = "n=" ^ itos(a)
  in
    (print(b);
     OnRemote(network, p);
     (if a > 25 then a else 0 - a, ss))
  end
`, "xyz")
	if err != nil {
		t.Fatal(err)
	}
	if proto.AsInt() != 28 {
		t.Errorf("proto = %d, want 28", proto.AsInt())
	}
	if cx.out.String() != "n=28" {
		t.Errorf("out = %q", cx.out.String())
	}
	if len(cx.sent) != 1 || cx.sent[0] != "network" {
		t.Errorf("sent = %v", cx.sent)
	}
}

func TestEvaluatorOrderingAndEquality(t *testing.T) {
	proto, _, err := run(t, `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  let
    val strs : bool = "ab" < "b" andalso "b" <= "b" andalso "c" > "b" andalso "c" >= "c"
    val chars : bool = 'a' < 'z' andalso not ('a' = 'b')
    val tups : bool = (1, 'x') = (1, 'x') andalso (1, 'x') <> (1, 'y')
  in
    (deliver(p);
     ((if strs then 4 else 0) + (if chars then 2 else 0) + (if tups then 1 else 0), ss))
  end
`, "")
	if err != nil {
		t.Fatal(err)
	}
	if proto.AsInt() != 7 {
		t.Errorf("flags = %d, want 7", proto.AsInt())
	}
}

func TestEvaluatorShortCircuit(t *testing.T) {
	// The RHS of andalso/orelse must not run when short-circuited (a
	// division by zero would raise).
	proto, _, err := run(t, `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  let
    val a : bool = false andalso (1 / 0 = 0)
    val b : bool = true orelse (1 / 0 = 0)
  in
    (deliver(p); (if b andalso not a then 1 else 0, ss))
  end
`, "")
	if err != nil {
		t.Fatal(err)
	}
	if proto.AsInt() != 1 {
		t.Error("short circuit broken")
	}
}

func TestEvaluatorTryNesting(t *testing.T) {
	proto, _, err := run(t, `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (deliver(p);
   (try
      1 / blobLen(#3 p)
    handle
      try raise "inner" handle 77 end
    end, ss))
`, "")
	if err != nil {
		t.Fatal(err)
	}
	if proto.AsInt() != 77 {
		t.Errorf("proto = %d, want 77", proto.AsInt())
	}
}

func TestEvaluatorEnvPrims(t *testing.T) {
	proto, _, err := run(t, `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (deliver(p); (hostToInt(thisHost()) * 1000 + time(), ss))
`, "")
	if err != nil {
		t.Fatal(err)
	}
	if proto.AsInt() != 7099 {
		t.Errorf("proto = %d", proto.AsInt())
	}
}

func TestGlobalInitFailureSurfacesAsError(t *testing.T) {
	prog, err := parser.Parse(`
val bad : int = 1 / 0
channel network(ps : int, ss : int, p : ip*udp*blob) is (deliver(p); (bad, ss))
`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := typecheck.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(info)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.NewInstance(&ctx{}); err == nil {
		t.Error("global initializer exception must fail NewInstance")
	} else if !strings.Contains(err.Error(), "bad") {
		t.Errorf("error should name the val: %v", err)
	}
}

func TestEngineNameAndInfo(t *testing.T) {
	prog, _ := parser.Parse(`channel network(ps : int, ss : int, p : ip*udp*blob) is (deliver(p); (ps, ss))`)
	info, _ := typecheck.Check(prog)
	c, _ := Compile(info)
	if c.EngineName() != "interp" {
		t.Errorf("name %s", c.EngineName())
	}
	if c.Info() != info {
		t.Error("Info should return the checked program")
	}
}
