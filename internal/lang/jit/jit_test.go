package jit

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/lang/parser"
	"planp.dev/planp/internal/lang/prims"
	"planp.dev/planp/internal/lang/typecheck"
	"planp.dev/planp/internal/lang/value"
	"planp.dev/planp/internal/substrate"
)

type ctx struct{ sent int }

func (c *ctx) OnRemote(string, value.Value)     { c.sent++ }
func (c *ctx) OnNeighbor(string, value.Value)   { c.sent++ }
func (c *ctx) Deliver(value.Value)              {}
func (c *ctx) Print(string)                     {}
func (c *ctx) ThisHost() value.Host             { return 1 }
func (c *ctx) Now() int64                       { return 0 }
func (c *ctx) Rand(int64) int64                 { return 0 }
func (c *ctx) LinkLoadTo(value.Host) int64      { return 0 }
func (c *ctx) LinkBandwidthTo(value.Host) int64 { return 0 }

var _ prims.Context = (*ctx)(nil)

func compileSrc(t *testing.T, src string) *compiled {
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
	return c.(*compiled)
}

func pkt(payload string) value.Value {
	return value.TupleV(
		value.IP(&value.IPHeader{IPHeader: substrate.IPHeader{Src: 0x0A000001, Dst: 0x0A000002, Proto: 17, TTL: 64}}),
		value.UDP(&value.UDPHeader{UDPHeader: substrate.UDPHeader{SrcPort: 5, DstPort: 9}}),
		value.Blob([]byte(payload)),
	)
}

func TestUnboxedArithmeticCorrect(t *testing.T) {
	c := compileSrc(t, `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  let
    val n : int = blobLen(#3 p)
    val mixed : int = (ps * 31 + n) mod 97
    val branchy : int = if mixed > 50 then mixed - 50 else mixed + ss
  in
    (deliver(p); (branchy, mixed))
  end
`)
	cx := &ctx{}
	inst, err := c.NewInstance(cx)
	if err != nil {
		t.Fatal(err)
	}
	// Drive several rounds and model the arithmetic in Go.
	var ps, ss int64
	for i := 0; i < 20; i++ {
		if err := inst.Invoke(0, cx, pkt("abcdefg")); err != nil {
			t.Fatal(err)
		}
		n := int64(7)
		mixed := (ps*31 + n) % 97
		var branchy int64
		if mixed > 50 {
			branchy = mixed - 50
		} else {
			branchy = mixed + ss
		}
		ps, ss = branchy, mixed
		if inst.Proto.AsInt() != ps || inst.Chans[0].AsInt() != ss {
			t.Fatalf("round %d: state (%d,%d), want (%d,%d)",
				i, inst.Proto.AsInt(), inst.Chans[0].AsInt(), ps, ss)
		}
	}
}

func TestFrameReuseDoesNotLeakAcrossInvocations(t *testing.T) {
	// The channel writes a let slot only on one branch; on the other
	// branch the slot must not resurrect the previous packet's value.
	// (Definite assignment means slots are always written before read,
	// so this also documents why reuse is safe.)
	c := compileSrc(t, `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  if blobLen(#3 p) > 3 then
    let val big : int = blobLen(#3 p) * 100
    in (deliver(p); (big, ss)) end
  else
    (deliver(p); (blobLen(#3 p), ss))
`)
	cx := &ctx{}
	inst, err := c.NewInstance(cx)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Invoke(0, cx, pkt("abcdef")); err != nil {
		t.Fatal(err)
	}
	if inst.Proto.AsInt() != 600 {
		t.Fatalf("first invoke = %d", inst.Proto.AsInt())
	}
	if err := inst.Invoke(0, cx, pkt("xy")); err != nil {
		t.Fatal(err)
	}
	if inst.Proto.AsInt() != 2 {
		t.Errorf("second invoke = %d (leaked state?)", inst.Proto.AsInt())
	}
}

func TestExceptionLeavesInstanceUsable(t *testing.T) {
	c := compileSrc(t, `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (deliver(p); (ps + 100 / blobLen(#3 p), ss))
`)
	cx := &ctx{}
	inst, err := c.NewInstance(cx)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Invoke(0, cx, pkt("")); err == nil {
		t.Fatal("empty blob should divide by zero")
	}
	if inst.Proto.AsInt() != 0 {
		t.Errorf("state after exception = %d, want unchanged", inst.Proto.AsInt())
	}
	if err := inst.Invoke(0, cx, pkt("abcd")); err != nil {
		t.Fatalf("instance unusable after exception: %v", err)
	}
	if inst.Proto.AsInt() != 25 {
		t.Errorf("state = %d, want 25", inst.Proto.AsInt())
	}
}

func TestInstancesShareCompiledCodeButNotState(t *testing.T) {
	c := compileSrc(t, `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (deliver(p); (ps + 1, ss))
`)
	cx := &ctx{}
	i1, err := c.NewInstance(cx)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := c.NewInstance(cx)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		if err := i1.Invoke(0, cx, pkt("a")); err != nil {
			t.Fatal(err)
		}
	}
	if err := i2.Invoke(0, cx, pkt("a")); err != nil {
		t.Fatal(err)
	}
	if i1.Proto.AsInt() != 3 || i2.Proto.AsInt() != 1 {
		t.Errorf("instance states %d/%d, want 3/1", i1.Proto.AsInt(), i2.Proto.AsInt())
	}
}

// TestNewInstanceAllocs pins what a download of the gateway ASP costs:
// fleet deploys pay it per node. 7 objects, 2 880 B, of which 1 920 are
// the 20 values of scratch: each body's stack holds what its deepest
// path needs, not one slot per call site, the eight header reader sites
// reserve no argument buffer, and each of the two setter sites lent to
// OnRemote keeps one value for its header. The headers themselves are
// made when a site first runs, as most installs of a rollout never see
// a packet. A temporary that is a Go local in NewInstance's top shows
// here as one object per val and initstate: rule (d). The connection
// table's header is 24 B, 8 more than one map: a table has a map for
// words and one for Values, made at the first Put.
func TestNewInstanceAllocs(t *testing.T) {
	const objects, bytes, runs = 7, 2880, 100
	c := compileSrc(t, asp.HTTPGateway)
	cx := &ctx{}
	newInstance := func() {
		if _, err := c.NewInstance(cx); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(runs, newInstance); n > objects {
		t.Errorf("NewInstance allocates %.1f objects, want at most %d", n, objects)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		newInstance()
	}
	runtime.ReadMemStats(&after)
	if b := float64(after.TotalAlloc-before.TotalAlloc) / runs; b > bytes {
		t.Errorf("NewInstance allocates %.0f B, want at most %d", b, bytes)
	}
}

// TestScratchSizes pins the values of scratch an instance of each
// in-tree program allocates: each body's stack holds what its deepest
// path needs, so a layout that stops reusing the stack, or pushes a
// destination twice, shows here.
func TestScratchSizes(t *testing.T) {
	want := map[string]int{
		"audio_client.planp":           8,
		"audio_router.planp":           12,
		"bench_compute.planp":          20,
		"http_gateway.planp":           20,
		"http_gateway_failover.planp":  25,
		"http_gateway_leastconn.planp": 25,
		"http_gateway_random.planp":    19,
		"mpeg_client.planp":            11,
		"mpeg_monitor.planp":           40,
	}
	files, err := filepath.Glob("../../../asp/*.planp")
	if err != nil || len(files) != len(want) {
		t.Fatalf("%d in-tree programs (%v), %d pinned", len(files), err, len(want))
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		if got := compileSrc(t, string(src)).scratch; got != want[name] {
			t.Errorf("%s: %d values of scratch, pinned %d", name, got, want[name])
		}
	}
}

// TestCompiledSize pins the artifact's header, allocated by every cold
// load of the compile workload: the stack layout is compile-time state,
// not a field of what Compile returns.
func TestCompiledSize(t *testing.T) {
	if n := unsafe.Sizeof(compiled{}); n != 112 {
		t.Errorf("compiled is %d B, want 112", n)
	}
}
