// Package langtest provides shared test fixtures for the language
// packages: a fake primitive context that records effects, and helpers
// to compile one source text under every engine so behavioral
// equivalence can be asserted across the interpreter, the bytecode VM,
// and the JIT.
package langtest

import (
	"strings"
	"testing"

	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/bytecode"
	"planp.dev/planp/internal/lang/engine"
	"planp.dev/planp/internal/lang/interp"
	"planp.dev/planp/internal/lang/jit"
	"planp.dev/planp/internal/lang/parser"
	"planp.dev/planp/internal/lang/prims"
	"planp.dev/planp/internal/lang/typecheck"
	"planp.dev/planp/internal/lang/value"
	"planp.dev/planp/internal/substrate"
)

// Sent records one OnRemote/OnNeighbor effect.
type Sent struct {
	Chan     string
	Pkt      value.Value
	Neighbor bool
}

// Ctx is a recording fake of prims.Context.
type Ctx struct {
	Host      value.Host
	TimeMS    int64
	Loads     map[value.Host]int64 // LinkLoadTo answers; default 0
	Bandwidth map[value.Host]int64 // LinkBandwidthTo answers; default 10_000_000

	Sent      []Sent
	Delivered []value.Value
	Out       strings.Builder

	randState uint64
}

var _ prims.Context = (*Ctx)(nil)

// NewCtx returns a fake context for host 10.0.0.1.
func NewCtx() *Ctx {
	return &Ctx{Host: substrate.MustAddr("10.0.0.1"), randState: 0x9E3779B97F4A7C15}
}

// OnRemote implements prims.Context. The packet is only lent for the
// call, so what is recorded is a copy.
func (c *Ctx) OnRemote(chanName string, pkt value.Value) {
	c.Sent = append(c.Sent, Sent{Chan: chanName, Pkt: value.Clone(pkt)})
}

// OnNeighbor implements prims.Context.
func (c *Ctx) OnNeighbor(chanName string, pkt value.Value) {
	c.Sent = append(c.Sent, Sent{Chan: chanName, Pkt: value.Clone(pkt), Neighbor: true})
}

// Deliver implements prims.Context.
func (c *Ctx) Deliver(pkt value.Value) { c.Delivered = append(c.Delivered, value.Clone(pkt)) }

// Sink is a Ctx that counts sends and deliveries and keeps nothing:
// what a benchmark hands an engine, so that it times the engine and
// not Ctx's record-time copy.
type Sink struct {
	*Ctx
	Sends int
}

// NewSink returns a counting context for host 10.0.0.1.
func NewSink() *Sink { return &Sink{Ctx: NewCtx()} }

// Context returns s as the interface engines call it through, opaquely:
// a hand-written handler benchmarked against a concrete *Sink would have
// the compiler prove its send tuples never leave the stack, a saving no
// code behind prims.Context gets.
//
//go:noinline
func (s *Sink) Context() prims.Context { return s }

func (s *Sink) OnRemote(string, value.Value)   { s.Sends++ }
func (s *Sink) OnNeighbor(string, value.Value) { s.Sends++ }
func (s *Sink) Deliver(value.Value)            { s.Sends++ }

// Print implements prims.Context.
func (c *Ctx) Print(s string) { c.Out.WriteString(s) }

// ThisHost implements prims.Context.
func (c *Ctx) ThisHost() value.Host { return c.Host }

// Now implements prims.Context.
func (c *Ctx) Now() int64 { return c.TimeMS }

// Rand implements prims.Context with a deterministic xorshift.
func (c *Ctx) Rand(n int64) int64 {
	c.randState ^= c.randState << 13
	c.randState ^= c.randState >> 7
	c.randState ^= c.randState << 17
	return int64(c.randState % uint64(n))
}

// LinkLoadTo implements prims.Context.
func (c *Ctx) LinkLoadTo(dst value.Host) int64 { return c.Loads[dst] }

// LinkBandwidthTo implements prims.Context.
func (c *Ctx) LinkBandwidthTo(dst value.Host) int64 {
	if bw, ok := c.Bandwidth[dst]; ok {
		return bw
	}
	return 10_000_000
}

// CheckSrc parses and type-checks src, failing the test on error.
func CheckSrc(t *testing.T, src string) *typecheck.Info {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := typecheck.Check(prog)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return info
}

// Engines lists every engine's compile entry point.
func Engines() map[string]func(*typecheck.Info) (engine.Compiled, error) {
	return map[string]func(*typecheck.Info) (engine.Compiled, error){
		"interp":   interp.Compile,
		"bytecode": bytecode.Compile,
		"jit":      jit.Compile,
	}
}

// CompileAll compiles src under every engine.
func CompileAll(t *testing.T, src string) map[string]engine.Compiled {
	t.Helper()
	info := CheckSrc(t, src)
	out := map[string]engine.Compiled{}
	for name, compile := range Engines() {
		// Each engine gets its own checked copy? The AST is annotated
		// in place by the checker but engines only read it, so sharing
		// is safe.
		c, err := compile(info)
		if err != nil {
			t.Fatalf("%s compile: %v", name, err)
		}
		out[name] = c
	}
	return out
}

// TCPPacket builds an ip*tcp*blob packet value.
func TCPPacket(src, dst string, srcPort, dstPort uint16, payload []byte) value.Value {
	ip := &value.IPHeader{IPHeader: substrate.IPHeader{Src: substrate.MustAddr(src), Dst: substrate.MustAddr(dst), Proto: substrate.ProtoTCP, TTL: 64, ID: 1}, Len: 40 + len(payload)}
	tcp := &value.TCPHeader{SrcPort: srcPort, DstPort: dstPort}
	return value.TupleV(value.IP(ip), value.TCP(tcp), value.Blob(payload))
}

// UDPPacket builds an ip*udp*blob packet value.
func UDPPacket(src, dst string, srcPort, dstPort uint16, payload []byte) value.Value {
	ip := &value.IPHeader{IPHeader: substrate.IPHeader{Src: substrate.MustAddr(src), Dst: substrate.MustAddr(dst), Proto: substrate.ProtoUDP, TTL: 64, ID: 1}, Len: 28 + len(payload)}
	udp := &value.UDPHeader{UDPHeader: substrate.UDPHeader{SrcPort: srcPort, DstPort: dstPort}, Len: 8 + len(payload)}
	return value.TupleV(value.IP(ip), value.UDP(udp), value.Blob(payload))
}

// FindChannel returns the index of the first channel matching name, or
// an error-formatted failure.
func FindChannel(t *testing.T, info *typecheck.Info, name string) int {
	t.Helper()
	chans := info.ChannelsByName(name)
	if len(chans) == 0 {
		t.Fatalf("no channel named %s", name)
	}
	return chans[0].Index
}

// RequireTyped fails t unless the checker left prog the one typed tree
// the back ends read: a static type on every expression but a ChanRef
// (which never has one) and none mentioning a primitive signature's
// type variable, the two operands of a comparison at one type, and
// every let initialiser at its binding's declared type.
func RequireTyped(t testing.TB, prog *ast.Program) {
	t.Helper()
	visit := func(e ast.Expr) {
		if _, isRef := e.(*ast.ChanRef); isRef {
			return
		}
		if e.Type() == nil {
			t.Errorf("%s: %T carries no type", e.Pos(), e)
			return
		}
		if HasTypeVar(e.Type()) {
			t.Errorf("%s: %T typed %s, a signature's type", e.Pos(), e, e.Type())
		}
		switch e := e.(type) {
		case *ast.Binary:
			switch e.Op {
			case "=", "<>", "<", "<=", ">", ">=":
				if !ast.Equal(e.L.Type(), e.R.Type()) {
					t.Errorf("%s: %s compares %s with %s", e.Pos(), e.Op, e.L.Type(), e.R.Type())
				}
			}
		case *ast.Let:
			for _, b := range e.Binds {
				if !ast.Equal(b.Init.Type(), b.Type) {
					t.Errorf("%s: val %s : %s initialised at type %s", b.Init.Pos(), b.Name, b.Type, b.Init.Type())
				}
			}
		}
	}
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *ast.ValDecl:
			ast.Walk(d.Init, visit)
		case *ast.FunDecl:
			ast.Walk(d.Body, visit)
		case *ast.ChannelDecl:
			if d.InitState != nil {
				ast.Walk(d.InitState, visit)
			}
			ast.Walk(d.Body, visit)
		}
	}
}

// HasTypeVar reports whether t mentions an ast.TypeVar, the one type
// whose name has a quote ('a).
func HasTypeVar(t ast.Type) bool { return strings.Contains(t.String(), "'") }
