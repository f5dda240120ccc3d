// Package interp is the portable PLAN-P interpreter: a straightforward
// tree-walking evaluator over the checked AST.
//
// This is the analogue of the paper's ~8000-line C interpreter — the
// reference semantics from which the specialized engines are derived.
// It dispatches on AST node kinds and operator names at every step; the
// JIT (internal/lang/jit) is exactly this evaluator with the dispatch
// partially evaluated away, and the two are kept behaviorally identical
// by the cross-engine test suite.
package interp

import (
	"fmt"

	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/engine"
	"planp.dev/planp/internal/lang/prims"
	"planp.dev/planp/internal/lang/typecheck"
	"planp.dev/planp/internal/lang/value"
)

// compiled implements engine.Compiled for the interpreter. "Compilation"
// is the identity: the interpreter executes the checked AST directly,
// which is why its code-generation time is ~0 and its per-packet cost is
// the highest of the three engines.
type compiled struct {
	info *typecheck.Info
}

var _ engine.Compiled = (*compiled)(nil)

// Compile prepares a checked program for interpretation.
func Compile(info *typecheck.Info) (engine.Compiled, error) {
	return &compiled{info: info}, nil
}

func (c *compiled) EngineName() string    { return "interp" }
func (c *compiled) Info() *typecheck.Info { return c.info }

func (c *compiled) NewInstance(ctx prims.Context) (*engine.Instance, error) {
	ev := &evaluator{info: c.info, ctx: ctx, globals: make([]value.Value, len(c.info.Globals))}
	proto, chans, err := engine.InitStates(c.info, ev.globals,
		func(gi int) (value.Value, error) {
			g := &c.info.Globals[gi]
			return ev.evalTop(g.Decl.Init, g.FrameSize)
		},
		func(ci int) (value.Value, error) {
			ch := &c.info.Channels[ci]
			return ev.evalTop(ch.Decl.InitState, ch.FrameSize)
		})
	if err != nil {
		return nil, err
	}
	return engine.NewInstance(&machine{c: c, globals: ev.globals}, proto, chans), nil
}

// machine is an instance's engine.Machine. Every invocation evaluates
// on a fresh frame, which it copies the packet into, so one packet slot
// serves every channel.
type machine struct {
	c       *compiled
	globals []value.Value
	pkt     value.Value
}

func (m *machine) Compiled() engine.Compiled { return m.c }
func (m *machine) Packet(int) *value.Value   { return &m.pkt }

func (m *machine) Invoke(ci int, ctx prims.Context, ps, ss *value.Value) (err error) {
	defer engine.Recover(&err)
	ch := &m.c.info.Channels[ci]
	frame := make([]value.Value, ch.FrameSize)
	frame[0], frame[1], frame[2] = *ps, *ss, m.pkt
	ev := &evaluator{info: m.c.info, ctx: ctx, globals: m.globals}
	res := ev.eval(ch.Decl.Body, frame)
	*ps, *ss = res.Vs[0], res.Vs[1]
	return nil
}

// evaluator evaluates expressions for one instance.
type evaluator struct {
	info    *typecheck.Info
	ctx     prims.Context
	globals []value.Value
}

// evalTop evaluates a top-level expression (global initializer or channel
// initstate), converting PLAN-P exceptions to errors.
func (ev *evaluator) evalTop(e ast.Expr, frameSize int) (v value.Value, err error) {
	defer engine.Recover(&err)
	return ev.eval(e, make([]value.Value, frameSize)), nil
}

// eval evaluates e in the given frame. PLAN-P exceptions propagate as
// panics carrying value.Exception; they are caught by try/handle or at
// the invoke boundary.
func (ev *evaluator) eval(e ast.Expr, frame []value.Value) value.Value {
	switch e := e.(type) {
	case *ast.IntLit:
		return value.Int(e.Value)
	case *ast.BoolLit:
		return value.Bool(e.Value)
	case *ast.StringLit:
		return value.Str(e.Value)
	case *ast.CharLit:
		return value.Char(e.Value)
	case *ast.UnitLit:
		return value.Unit
	case *ast.HostLit:
		return value.HostV(e.Addr)

	case *ast.Var:
		if e.Slot >= 0 {
			return frame[e.Slot]
		}
		return ev.globals[e.Global]

	case *ast.Proj:
		t := ev.eval(e.Tuple, frame)
		return t.Vs[e.Index-1]

	case *ast.Let:
		for i := range e.Binds {
			b := &e.Binds[i]
			frame[b.Slot] = ev.eval(b.Init, frame)
		}
		return ev.eval(e.Body, frame)

	case *ast.If:
		if ev.eval(e.Cond, frame).AsBool() {
			return ev.eval(e.Then, frame)
		}
		return ev.eval(e.Else, frame)

	case *ast.Seq:
		for _, sub := range e.Exprs[:len(e.Exprs)-1] {
			ev.eval(sub, frame)
		}
		return ev.eval(e.Exprs[len(e.Exprs)-1], frame)

	case *ast.TupleExpr:
		elems := make([]value.Value, len(e.Elems))
		for i, sub := range e.Elems {
			elems[i] = ev.eval(sub, frame)
		}
		return value.TupleV(elems...)

	case *ast.Unary:
		x := ev.eval(e.X, frame)
		if e.Op == "not" {
			return value.Bool(!x.AsBool())
		}
		return value.Int(-x.AsInt())

	case *ast.Binary:
		return ev.evalBinary(e, frame)

	case *ast.Try:
		return ev.evalTry(e, frame)

	case *ast.Raise:
		msg := ev.eval(e.Msg, frame)
		panic(value.Exception{Msg: msg.AsStr()})

	case *ast.Call:
		return ev.evalCall(e, frame)

	default:
		panic(fmt.Sprintf("planp/interp: unhandled expression %T", e))
	}
}

func (ev *evaluator) evalBinary(e *ast.Binary, frame []value.Value) value.Value {
	// Short-circuit operators evaluate lazily.
	switch e.Op {
	case "andalso":
		if !ev.eval(e.L, frame).AsBool() {
			return value.Bool(false)
		}
		return ev.eval(e.R, frame)
	case "orelse":
		if ev.eval(e.L, frame).AsBool() {
			return value.Bool(true)
		}
		return ev.eval(e.R, frame)
	}

	l := ev.eval(e.L, frame)
	r := ev.eval(e.R, frame)
	switch e.Op {
	case "+":
		return value.Int(l.AsInt() + r.AsInt())
	case "-":
		return value.Int(l.AsInt() - r.AsInt())
	case "*":
		return value.Int(l.AsInt() * r.AsInt())
	case "/":
		if r.AsInt() == 0 {
			value.Raise("division by zero")
		}
		return value.Int(l.AsInt() / r.AsInt())
	case "mod":
		if r.AsInt() == 0 {
			value.Raise("mod by zero")
		}
		return value.Int(l.AsInt() % r.AsInt())
	case "^":
		return value.Str(l.AsStr() + r.AsStr())
	case "=":
		return value.Bool(value.Equal(l, r))
	case "<>":
		return value.Bool(!value.Equal(l, r))
	case "<", "<=", ">", ">=":
		return compareOrd(e.Op, l, r)
	default:
		panic(fmt.Sprintf("planp/interp: unhandled operator %s", e.Op))
	}
}

// compareOrd implements the ordering operators on int, string, and char.
func compareOrd(op string, l, r value.Value) value.Value {
	var cmp int
	switch l.Kind {
	case value.KindInt, value.KindChar:
		switch {
		case l.I < r.I:
			cmp = -1
		case l.I > r.I:
			cmp = 1
		}
	case value.KindString:
		switch {
		case l.S < r.S:
			cmp = -1
		case l.S > r.S:
			cmp = 1
		}
	default:
		panic(fmt.Sprintf("planp/interp: ordering on %s", l.Kind))
	}
	switch op {
	case "<":
		return value.Bool(cmp < 0)
	case "<=":
		return value.Bool(cmp <= 0)
	case ">":
		return value.Bool(cmp > 0)
	default:
		return value.Bool(cmp >= 0)
	}
}

func (ev *evaluator) evalTry(e *ast.Try, frame []value.Value) (res value.Value) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(value.Exception); ok {
				res = ev.eval(e.Handler, frame)
				return
			}
			panic(r)
		}
	}()
	return ev.eval(e.Body, frame)
}

func (ev *evaluator) evalCall(e *ast.Call, frame []value.Value) value.Value {
	// Network sends: resolved by the checker to a ChanRef first argument.
	if cref, ok := firstChanRef(e); ok {
		pkt := ev.eval(e.Args[1], frame)
		if e.Name == "OnRemote" {
			ev.ctx.OnRemote(cref.Name, pkt)
		} else {
			ev.ctx.OnNeighbor(cref.Name, pkt)
		}
		return value.Unit
	}

	if e.FunIndex >= 0 {
		f := &ev.info.Funs[e.FunIndex]
		callee := make([]value.Value, f.FrameSize)
		for i, arg := range e.Args {
			callee[i] = ev.eval(arg, frame)
		}
		return ev.eval(f.Decl.Body, callee)
	}

	p := prims.Get(e.PrimIndex)
	args := make([]value.Value, len(e.Args))
	for i, arg := range e.Args {
		args[i] = ev.eval(arg, frame)
	}
	return p.Fn(ev.ctx, args)
}

// firstChanRef reports whether e is an OnRemote/OnNeighbor call and
// returns its channel reference.
func firstChanRef(e *ast.Call) (*ast.ChanRef, bool) {
	if e.Name != "OnRemote" && e.Name != "OnNeighbor" {
		return nil, false
	}
	cref, ok := e.Args[0].(*ast.ChanRef)
	return cref, ok
}
