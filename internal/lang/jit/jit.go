// Package jit is the PLAN-P specializing compiler: the Go analogue of
// the paper's Tempo-generated JIT (§2.2).
//
// The paper derives a run-time code generator from the portable C
// interpreter by partial evaluation: specializing the interpreter with
// respect to a program removes AST dispatch, environment lookup, and
// repeated type tests, leaving straight-line machine code assembled from
// templates. Go cannot portably emit machine code at run time, so this
// package performs the same transformation at the closure level — each
// AST node is compiled ONCE into a Go closure with every decision that
// depends only on the program text (node kind, operator, slot index,
// primitive identity, operand types) resolved at compile time. What runs
// per packet is a tree of direct closure calls, exactly the residue
// partial evaluation would leave.
//
// The structural correspondence with internal/lang/interp is deliberate
// and load-bearing: every eval case there has a compile case here, so
// extending the language is the paper's two-step process — add the
// interpreter case, then mirror it here ("regenerate the specializer").
//
// The compiled artifact is immutable. Everything generated code writes —
// channel frames, callee frames, primitive argument buffers — belongs to
// the instance: the compiler only hands out [lo,hi) ranges of one
// scratch slice that NewInstance allocates, so reuse across packets (the
// interpreter allocates afresh, compiled code does not) is per instance
// and one artifact serves instances on any number of goroutines.
package jit

import (
	"fmt"

	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/engine"
	"planp.dev/planp/internal/lang/prims"
	"planp.dev/planp/internal/lang/typecheck"
	"planp.dev/planp/internal/lang/value"
)

// machine is one instance's execution context, threaded through
// compiled code. scratch backs every range the compiler reserved.
type machine struct {
	ctx     prims.Context
	globals []value.Value
	scratch []value.Value
}

// code is a compiled expression: the specialization residue.
type code func(m *machine, frame []value.Value) value.Value

// compiled implements engine.Compiled.
type compiled struct {
	info *typecheck.Info

	globalInit []code // compiled top-level val initializers
	initStates []code // compiled channel initstates (nil entries allowed)
	bodies     []code // compiled channel bodies
	frames     []span // channel frames, indexed like info.Channels
	scratch    int    // size of an instance's scratch slice
}

// span is a compile-time reservation of per-instance scratch: the
// artifact holds offsets, each instance the memory.
type span struct{ lo, hi int }

func (s span) of(m *machine) []value.Value { return m.scratch[s.lo:s.hi:s.hi] }

var _ engine.Compiled = (*compiled)(nil)

// Compile specializes a checked program into closure code. This is the
// operation Figure 3 of the paper times ("code generation time").
func Compile(info *typecheck.Info) (engine.Compiled, error) {
	c := &compiled{info: info}
	cc := &compiler{info: info, funs: make([]code, len(info.Funs)), lent: map[*ast.TupleExpr]bool{}}
	// Funs compile first: calls reference earlier funs only (the
	// checker enforces declaration order), so each slot is filled
	// before any caller is compiled.
	for i := range info.Funs {
		f := &info.Funs[i]
		cc.enterFrame(f.FrameSize, paramTypes(f.Decl.Params))
		cc.funs[i] = cc.compile(f.Decl.Body)
	}
	for _, g := range info.Globals {
		cc.enterFrame(g.FrameSize, nil)
		c.globalInit = append(c.globalInit, cc.compile(g.Decl.Init))
	}
	for i := range info.Channels {
		ch := &info.Channels[i]
		var init code
		if ch.Decl.InitState != nil {
			cc.enterFrame(ch.FrameSize, nil)
			init = cc.compile(ch.Decl.InitState)
		}
		c.initStates = append(c.initStates, init)
		cc.enterFrame(ch.FrameSize, paramTypes(ch.Decl.Params))
		cc.lendTail(ch.Decl.Body)
		c.bodies = append(c.bodies, cc.compile(ch.Decl.Body))
		c.frames = append(c.frames, cc.reserve(ch.FrameSize))
	}
	c.scratch = cc.scratch
	return c, nil
}

func paramTypes(params []ast.Param) []ast.Type {
	out := make([]ast.Type, len(params))
	for i, p := range params {
		out[i] = p.Type
	}
	return out
}

func (c *compiled) EngineName() string    { return "jit" }
func (c *compiled) Info() *typecheck.Info { return c.info }

func (c *compiled) NewInstance(ctx prims.Context) (*engine.Instance, error) {
	m := &machine{
		ctx:     ctx,
		globals: make([]value.Value, len(c.globalInit)),
		scratch: make([]value.Value, c.scratch),
	}
	top := func(g code, frame []value.Value) (v value.Value, err error) {
		defer engine.Recover(&err)
		return g(m, frame), nil
	}
	// A val runs once, on a frame of its own. A channel's frame serves its
	// initstate and then every invocation: reuse is safe because the
	// checker guarantees definite assignment (every slot is written before
	// it is read), and an instance is single-goroutine.
	proto, chans, err := engine.InitStates(c.info, m.globals,
		func(gi int) (value.Value, error) {
			return top(c.globalInit[gi], make([]value.Value, c.info.Globals[gi].FrameSize))
		},
		func(ci int) (value.Value, error) { return top(c.initStates[ci], c.frames[ci].of(m)) })
	if err != nil {
		return nil, err
	}
	invoke := func(ci int, ctx prims.Context, ps, ss, pkt value.Value) (psOut, ssOut value.Value, err error) {
		defer engine.Recover(&err)
		frame := c.frames[ci].of(m)
		frame[0], frame[1], frame[2] = ps, ss, pkt
		m.ctx = ctx
		res := c.bodies[ci](m, frame)
		return res.Vs[0], res.Vs[1], nil
	}
	return engine.NewInstance(c, proto, chans, invoke), nil
}

// compiler holds compile-time state. slots tracks the static type of
// each frame slot in the compilation context, which drives the unboxed
// specialization layer (unbox.go).
type compiler struct {
	info    *typecheck.Info
	funs    []code
	slots   []ast.Type
	scratch int // per-instance scratch reserved so far

	// lent holds the tuple literals whose consumer only borrows them —
	// the packet argument of a send (prims.Context's contract), a table
	// primitive's key, and a channel body's result pair, which invoke
	// unpacks at once — so they are built in reserved scratch, not
	// allocated.
	lent map[*ast.TupleExpr]bool
}

// lend marks e, if it is a tuple literal, as borrowed by its consumer.
func (cc *compiler) lend(e ast.Expr) {
	if t, ok := e.(*ast.TupleExpr); ok {
		cc.lent[t] = true
	}
}

// lendTail lends the tuple literals in tail position of a channel body.
func (cc *compiler) lendTail(e ast.Expr) {
	switch e := e.(type) {
	case *ast.Let:
		cc.lendTail(e.Body)
	case *ast.If:
		cc.lendTail(e.Then)
		cc.lendTail(e.Else)
	case *ast.Seq:
		cc.lendTail(e.Exprs[len(e.Exprs)-1])
	case *ast.Try:
		cc.lendTail(e.Body)
		cc.lendTail(e.Handler)
	default:
		cc.lend(e)
	}
}

// reserve sets aside n values of every instance's scratch slice.
func (cc *compiler) reserve(n int) span {
	s := span{cc.scratch, cc.scratch + n}
	cc.scratch = s.hi
	return s
}

// compile specializes one expression: int- and bool-typed compound
// expressions take the unboxed fast path (boxing once at the boundary),
// everything else the generic node compiler. This split is the deepest
// part of the Tempo analogy — types known at compile time erase runtime
// representation work.
func (cc *compiler) compile(e ast.Expr) code {
	if ic, ok := cc.tryCompileInt(e); ok {
		return func(m *machine, frame []value.Value) value.Value {
			return value.Int(ic(m, frame))
		}
	}
	if bc, ok := cc.tryCompileBool(e); ok {
		return func(m *machine, frame []value.Value) value.Value {
			return value.Bool(bc(m, frame))
		}
	}
	return cc.compileNode(e)
}

// compileNode is the generic (boxed) per-node compiler.
func (cc *compiler) compileNode(e ast.Expr) code {
	switch e := e.(type) {
	case *ast.IntLit:
		v := value.Int(e.Value)
		return func(*machine, []value.Value) value.Value { return v }
	case *ast.BoolLit:
		v := value.Bool(e.Value)
		return func(*machine, []value.Value) value.Value { return v }
	case *ast.StringLit:
		v := value.Str(e.Value)
		return func(*machine, []value.Value) value.Value { return v }
	case *ast.CharLit:
		v := value.Char(e.Value)
		return func(*machine, []value.Value) value.Value { return v }
	case *ast.UnitLit:
		return func(*machine, []value.Value) value.Value { return value.Unit }
	case *ast.HostLit:
		v := value.HostV(value.Host(e.Addr))
		return func(*machine, []value.Value) value.Value { return v }

	case *ast.Var:
		if e.Slot >= 0 {
			slot := e.Slot
			return func(_ *machine, frame []value.Value) value.Value { return frame[slot] }
		}
		gi := e.Global
		return func(m *machine, _ []value.Value) value.Value { return m.globals[gi] }

	case *ast.Proj:
		tuple := cc.compile(e.Tuple)
		idx := e.Index - 1
		// Specialize the common #n-of-variable case to skip a call.
		if v, ok := e.Tuple.(*ast.Var); ok && v.Slot >= 0 {
			slot := v.Slot
			return func(_ *machine, frame []value.Value) value.Value { return frame[slot].Vs[idx] }
		}
		return func(m *machine, frame []value.Value) value.Value { return tuple(m, frame).Vs[idx] }

	case *ast.Let:
		type bind struct {
			slot int
			init code
		}
		binds := make([]bind, len(e.Binds))
		for i, b := range e.Binds {
			binds[i] = bind{slot: b.Slot, init: cc.compile(b.Init)}
			cc.setSlot(b.Slot, b.Type)
		}
		body := cc.compile(e.Body)
		if len(binds) == 1 {
			b := binds[0]
			return func(m *machine, frame []value.Value) value.Value {
				frame[b.slot] = b.init(m, frame)
				return body(m, frame)
			}
		}
		return func(m *machine, frame []value.Value) value.Value {
			for _, b := range binds {
				frame[b.slot] = b.init(m, frame)
			}
			return body(m, frame)
		}

	case *ast.If:
		// Conditions are always bool; compile them unboxed so the test
		// never materializes a value.Value (mirrors compileInt/Bool's If
		// cases, which the boxed result type of this node can't reach).
		// A bare #n-of-variable condition — a protocol flag test — is
		// not "beneficial" by the general gate but profits here, where
		// the alternative copies a Value just to test its I field.
		bc, ok := cc.tryCompileBool(e.Cond)
		if !ok {
			if p, isProj := e.Cond.(*ast.Proj); isProj {
				if v, isVar := p.Tuple.(*ast.Var); isVar && v.Slot >= 0 && ast.Equal(cc.typeOf(e.Cond), ast.BoolT) {
					bc, ok = cc.compileBool(e.Cond), true
				}
			}
		}
		if ok {
			thenC := cc.compile(e.Then)
			elseC := cc.compile(e.Else)
			return func(m *machine, frame []value.Value) value.Value {
				if bc(m, frame) {
					return thenC(m, frame)
				}
				return elseC(m, frame)
			}
		}
		cond := cc.compile(e.Cond)
		thenC := cc.compile(e.Then)
		elseC := cc.compile(e.Else)
		return func(m *machine, frame []value.Value) value.Value {
			if cond(m, frame).I != 0 {
				return thenC(m, frame)
			}
			return elseC(m, frame)
		}

	case *ast.Seq:
		codes := make([]code, len(e.Exprs))
		for i, sub := range e.Exprs {
			codes[i] = cc.compile(sub)
		}
		last := codes[len(codes)-1]
		head := codes[:len(codes)-1]
		if len(head) == 1 {
			h := head[0]
			return func(m *machine, frame []value.Value) value.Value {
				h(m, frame)
				return last(m, frame)
			}
		}
		return func(m *machine, frame []value.Value) value.Value {
			for _, h := range head {
				h(m, frame)
			}
			return last(m, frame)
		}

	case *ast.TupleExpr:
		codes := make([]code, len(e.Elems))
		for i, sub := range e.Elems {
			codes[i] = cc.compile(sub)
		}
		if cc.lent[e] {
			site := cc.reserve(len(codes))
			return func(m *machine, frame []value.Value) value.Value {
				elems := site.of(m)
				for i, sub := range codes {
					elems[i] = sub(m, frame)
				}
				return value.TupleV(elems...)
			}
		}
		if len(codes) == 2 {
			a, b := codes[0], codes[1]
			return func(m *machine, frame []value.Value) value.Value {
				x := a(m, frame)
				y := b(m, frame)
				return value.TupleV(x, y)
			}
		}
		return func(m *machine, frame []value.Value) value.Value {
			elems := make([]value.Value, len(codes))
			for i, sub := range codes {
				elems[i] = sub(m, frame)
			}
			return value.TupleV(elems...)
		}

	case *ast.Unary:
		x := cc.compile(e.X)
		if e.Op == "not" {
			return func(m *machine, frame []value.Value) value.Value {
				return value.Bool(x(m, frame).I == 0)
			}
		}
		return func(m *machine, frame []value.Value) value.Value {
			return value.Int(-x(m, frame).I)
		}

	case *ast.Binary:
		return cc.compileBinary(e)

	case *ast.Try:
		body := cc.compile(e.Body)
		handler := cc.compile(e.Handler)
		return func(m *machine, frame []value.Value) (res value.Value) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(value.Exception); ok {
						res = handler(m, frame)
						return
					}
					panic(r)
				}
			}()
			return body(m, frame)
		}

	case *ast.Raise:
		msg := cc.compile(e.Msg)
		return func(m *machine, frame []value.Value) value.Value {
			panic(value.Exception{Msg: msg(m, frame).S})
		}

	case *ast.Call:
		return cc.compileCall(e)

	default:
		panic(fmt.Sprintf("planp/jit: unhandled expression %T", e))
	}
}

// compileBinary specializes each operator — and for = / <> the operand
// type — into a dedicated closure. This is the specialization the paper
// highlights: the interpreter's per-evaluation operator dispatch becomes
// a compile-time decision.
func (cc *compiler) compileBinary(e *ast.Binary) code {
	l := cc.compile(e.L)
	r := cc.compile(e.R)
	switch e.Op {
	case "andalso":
		return func(m *machine, frame []value.Value) value.Value {
			if l(m, frame).I == 0 {
				return value.Bool(false)
			}
			return r(m, frame)
		}
	case "orelse":
		return func(m *machine, frame []value.Value) value.Value {
			if l(m, frame).I != 0 {
				return value.Bool(true)
			}
			return r(m, frame)
		}
	case "+":
		return func(m *machine, frame []value.Value) value.Value {
			return value.Int(l(m, frame).I + r(m, frame).I)
		}
	case "-":
		return func(m *machine, frame []value.Value) value.Value {
			return value.Int(l(m, frame).I - r(m, frame).I)
		}
	case "*":
		return func(m *machine, frame []value.Value) value.Value {
			return value.Int(l(m, frame).I * r(m, frame).I)
		}
	case "/":
		return func(m *machine, frame []value.Value) value.Value {
			// Operands evaluate left to right (the differential fuzz
			// test pins exception order across engines).
			n := l(m, frame).I
			d := r(m, frame).I
			if d == 0 {
				value.Raise("division by zero")
			}
			return value.Int(n / d)
		}
	case "mod":
		return func(m *machine, frame []value.Value) value.Value {
			n := l(m, frame).I
			d := r(m, frame).I
			if d == 0 {
				value.Raise("mod by zero")
			}
			return value.Int(n % d)
		}
	case "^":
		return func(m *machine, frame []value.Value) value.Value {
			return value.Str(l(m, frame).S + r(m, frame).S)
		}
	case "=", "<>":
		neg := e.Op == "<>"
		// Specialize on the statically known operand type.
		switch t := e.OperandType.(type) {
		case ast.Base:
			switch t.Kind {
			case ast.TInt, ast.TBool, ast.TChar, ast.THost:
				return func(m *machine, frame []value.Value) value.Value {
					return value.Bool((l(m, frame).I == r(m, frame).I) != neg)
				}
			case ast.TString:
				return func(m *machine, frame []value.Value) value.Value {
					return value.Bool((l(m, frame).S == r(m, frame).S) != neg)
				}
			}
		}
		return func(m *machine, frame []value.Value) value.Value {
			return value.Bool(value.Equal(l(m, frame), r(m, frame)) != neg)
		}
	case "<", "<=", ">", ">=":
		return cc.compileOrd(e, l, r)
	default:
		panic(fmt.Sprintf("planp/jit: unhandled operator %s", e.Op))
	}
}

func (cc *compiler) compileOrd(e *ast.Binary, l, r code) code {
	isString := ast.Equal(e.OperandType, ast.StringT)
	switch e.Op {
	case "<":
		if isString {
			return func(m *machine, frame []value.Value) value.Value {
				return value.Bool(l(m, frame).S < r(m, frame).S)
			}
		}
		return func(m *machine, frame []value.Value) value.Value {
			return value.Bool(l(m, frame).I < r(m, frame).I)
		}
	case "<=":
		if isString {
			return func(m *machine, frame []value.Value) value.Value {
				return value.Bool(l(m, frame).S <= r(m, frame).S)
			}
		}
		return func(m *machine, frame []value.Value) value.Value {
			return value.Bool(l(m, frame).I <= r(m, frame).I)
		}
	case ">":
		if isString {
			return func(m *machine, frame []value.Value) value.Value {
				return value.Bool(l(m, frame).S > r(m, frame).S)
			}
		}
		return func(m *machine, frame []value.Value) value.Value {
			return value.Bool(l(m, frame).I > r(m, frame).I)
		}
	default:
		if isString {
			return func(m *machine, frame []value.Value) value.Value {
				return value.Bool(l(m, frame).S >= r(m, frame).S)
			}
		}
		return func(m *machine, frame []value.Value) value.Value {
			return value.Bool(l(m, frame).I >= r(m, frame).I)
		}
	}
}

func (cc *compiler) compileCall(e *ast.Call) code {
	// Network sends.
	if e.Name == "OnRemote" || e.Name == "OnNeighbor" {
		cref := e.Args[0].(*ast.ChanRef)
		name := cref.Name
		cc.lend(e.Args[1])
		pkt := cc.compile(e.Args[1])
		if e.Name == "OnRemote" {
			return func(m *machine, frame []value.Value) value.Value {
				m.ctx.OnRemote(name, pkt(m, frame))
				return value.Unit
			}
		}
		return func(m *machine, frame []value.Value) value.Value {
			m.ctx.OnNeighbor(name, pkt(m, frame))
			return value.Unit
		}
	}

	if e.FunIndex < 0 {
		for _, i := range prims.Get(e.PrimIndex).Borrows {
			cc.lend(e.Args[i])
		}
	}
	args := make([]code, len(e.Args))
	for i, a := range e.Args {
		args[i] = cc.compile(a)
	}

	// User fun: the callee is already compiled (declaration order), and
	// its frame is a per-call-site reservation — safe for the same reason
	// as the argument buffers below (no recursion means a site is never
	// active twice).
	if e.FunIndex >= 0 {
		body := cc.funs[e.FunIndex]
		site := cc.reserve(cc.info.Funs[e.FunIndex].FrameSize)
		return func(m *machine, frame []value.Value) value.Value {
			callee := site.of(m)
			for i, a := range args {
				callee[i] = a(m, frame)
			}
			return body(m, callee)
		}
	}

	// Primitive: the implementation pointer is captured at compile
	// time; arity-specialized paths reuse a per-call-site argument
	// buffer in the instance's scratch. Reuse is safe because the
	// language has no recursion (a call site can never be active twice
	// on one stack), primitives do not retain their argument slice, and
	// an instance is single-goroutine.
	fn := prims.Get(e.PrimIndex).Fn
	if len(args) == 0 {
		return func(m *machine, frame []value.Value) value.Value {
			return fn(m.ctx, nil)
		}
	}
	site := cc.reserve(len(args))
	switch len(args) {
	case 1:
		a0 := args[0]
		return func(m *machine, frame []value.Value) value.Value {
			buf := site.of(m)
			buf[0] = a0(m, frame)
			return fn(m.ctx, buf)
		}
	case 2:
		a0, a1 := args[0], args[1]
		return func(m *machine, frame []value.Value) value.Value {
			buf := site.of(m)
			buf[0] = a0(m, frame)
			buf[1] = a1(m, frame)
			return fn(m.ctx, buf)
		}
	default:
		return func(m *machine, frame []value.Value) value.Value {
			buf := site.of(m)
			for i, a := range args {
				buf[i] = a(m, frame)
			}
			return fn(m.ctx, buf)
		}
	}
}
