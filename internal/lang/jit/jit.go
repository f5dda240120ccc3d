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
// frames, primitive argument buffers, lent tuples and headers — belongs
// to the instance: the compiler only hands out [lo,hi) ranges of one
// scratch slice that NewInstance allocates, so reuse across packets (the
// interpreter allocates afresh, compiled code does not) is per instance
// and one artifact serves instances on any number of goroutines.
//
// # Scratch is a stack
//
// The compiler lays scratch out as a compiler lays out stack frames.
// Each fun, val and channel body has a region of its own, above the
// regions of the bodies compiled before it, so no two overlap: with no
// recursion a body is never active twice, and a fun runs in its own
// region while its caller's waits untouched. Within a region a
// compile-time top rises and falls with the nesting of the code:
//
//   - a node pushes its own destination — a primitive's argument
//     buffer, a callee's frame, a lent tuple's elements, a channel's
//     frame — before it compiles its operands, so theirs lie above it;
//   - a call (a primitive, a fun, a send) pops everything from its
//     buffer or frame upward once it is compiled, so sibling
//     statements, let bindings and the next call reuse the same values;
//   - a borrowed tuple, and any header lent into it, belongs to the call
//     that borrows it and is popped with that call's buffer, so it
//     outlives the sibling arguments evaluated after it (a channel
//     body's result pair pops itself: nothing in the body runs after
//     it);
//   - the header memory of a prims.Into site is reused across
//     invocations, so it is kept for good: one value per site, after
//     every region.
//
// An instance's scratch is thus what its deepest paths need, not one
// slot per call site (TestScratchSizes).
//
// # Destination passing
//
// A value.Value is twelve words, so compiled code never returns one: a
// node is handed the address its consumer wants the result at (code's
// dst) and writes it there once — a let initialiser into its frame
// slot, a call argument into the callee's frame or the primitive's
// argument buffer, a tuple element into the element array, a channel
// body's result pair into the machine. Int- and bool-typed nodes return
// their word instead (unbox.go). The same holds at the edge: the
// runtime writes a matched packet once, into the channel frame's slot 2
// (engine.Machine's Packet), and the body reads it there. The rules
// every node and every caller keep (TestDestinationPassing in
// internal/lang/engine has a program for each):
//
//   - (a) *dst is dead on entry and the node's own until its final write:
//     it may hold the node's intermediate results (a Seq's discarded
//     heads, a projection's tuple, a send's packet). So a caller never
//     passes a destination that the node's operands still read. Frame
//     slots are never shared between bindings (the checker numbers them
//     upward only); a buffer, frame or element array is pushed before
//     the operands that write into it and popped after its consumer, so
//     whatever an operand pushes lies above every destination it
//     writes, and a borrowed tuple lies below the siblings that follow
//     it; every other element array is fresh. So every destination
//     above qualifies.
//   - (b) A node that combines sub-results reads the word it needs from
//     the first before it evaluates the next into the same destination:
//     l(m, frame, dst); a := dst.S; r(m, frame, dst) — operands still run
//     left to right, which pins exception order across engines.
//   - (c) A raise unwinds past half-written destinations. Nothing reads
//     one: a handler overwrites its try's destination and reuses the
//     stack its body pushed, and invoke stores the new states only after
//     the body has returned.
//   - (d) A sub-result's destination is never a Go local: in
//     `var t value.Value; sub(m, frame, &t)` t escapes through the
//     indirect call and is allocated per evaluation. A consumer of ONE
//     word of a boxed sub-result points it at machine.tmp and reads the
//     word at once, before anything else runs; that is why one tmp
//     serves every such seam, nested ones included (NewInstance's vals
//     and initstates too: TestNewInstanceAllocs).
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
// compiled code, and its engine.Machine. scratch backs every range the
// compiler reserved; tmp is rule (d)'s one-word seam and the channel
// body's destination.
type machine struct {
	c       *compiled
	ctx     prims.Context
	globals []value.Value
	scratch []value.Value
	tmp     value.Value
}

// code is a compiled expression: the specialization residue. It writes
// the expression's value to *dst (see "Destination passing" above).
type code func(m *machine, frame []value.Value, dst *value.Value)

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
		cc.region()
		cc.funs[i] = cc.compile(info.Funs[i].Decl.Body)
	}
	for _, g := range info.Globals {
		cc.region()
		c.globalInit = append(c.globalInit, cc.compile(g.Decl.Init))
	}
	// A channel's region is its frame, then the stack its initstate and
	// its body share: the initstate has returned before the body first
	// runs.
	for i := range info.Channels {
		ch := &info.Channels[i]
		cc.region()
		c.frames = append(c.frames, cc.reserve(ch.FrameSize))
		var init code
		if ch.Decl.InitState != nil {
			init = cc.compile(ch.Decl.InitState)
		}
		c.initStates = append(c.initStates, init)
		cc.lendTail(ch.Decl.Body)
		c.bodies = append(c.bodies, cc.compile(ch.Decl.Body))
	}
	c.scratch = cc.end + cc.kept
	return c, nil
}

func (c *compiled) EngineName() string    { return "jit" }
func (c *compiled) Info() *typecheck.Info { return c.info }

func (c *compiled) NewInstance(ctx prims.Context) (*engine.Instance, error) {
	m := &machine{
		c:       c,
		ctx:     ctx,
		globals: make([]value.Value, len(c.globalInit)),
		scratch: make([]value.Value, c.scratch),
	}
	top := func(g code, frame []value.Value) (v value.Value, err error) {
		defer engine.Recover(&err)
		g(m, frame, &m.tmp)
		return m.tmp, nil
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
	return engine.NewInstance(m, proto, chans), nil
}

func (m *machine) Compiled() engine.Compiled { return m.c }

// Packet is slot 2 of channel ci's frame, where its body reads p.
func (m *machine) Packet(ci int) *value.Value { return &m.scratch[m.c.frames[ci].lo+2] }

func (m *machine) Invoke(ci int, ctx prims.Context, ps, ss *value.Value) (err error) {
	defer engine.Recover(&err)
	frame := m.c.frames[ci].of(m)
	// One statement per state: the pair form copies the second state to
	// a temporary first, as the first store might alias it. None does.
	frame[0] = *ps
	frame[1] = *ss
	m.ctx = ctx
	m.c.bodies[ci](m, frame, &m.tmp)
	*ps = m.tmp.Vs[0]
	*ss = m.tmp.Vs[1]
	return nil
}

// compiler holds compile-time state.
type compiler struct {
	info *typecheck.Info
	funs []code

	// top is the stack top of the body being compiled, end the end of
	// every region so far, kept the values kept for good (keep).
	top, end, kept int

	// lent holds the tuple literals whose consumer only borrows them —
	// the packet argument of a send (prims.Context's contract) and a table
	// primitive's key, mapped to true, and a channel body's result pair,
	// which invoke unpacks at once, to false — so they are built on the
	// body's stack, not allocated. True lends the elements' headers too
	// (compileElems): with no recursion a site cannot run again while
	// its tuple is lent, but the states keep a result pair's elements.
	lent map[*ast.TupleExpr]bool
}

// lend records e in lent, if it is a tuple literal.
func (cc *compiler) lend(e ast.Expr, borrowed bool) {
	if t, ok := e.(*ast.TupleExpr); ok {
		cc.lent[t] = borrowed
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
		cc.lend(e, false)
	}
}

// region starts the next body's stack above every region before it.
func (cc *compiler) region() { cc.top = cc.end }

// reserve pushes n values onto the stack of the body being compiled.
// Its owner pops them (cc.top = mark) once it has compiled its operands.
func (cc *compiler) reserve(n int) span {
	s := span{cc.top, cc.top + n}
	cc.top = s.hi
	cc.end = max(cc.end, s.hi)
	return s
}

// keep sets aside one value for the life of the instance, outside every
// stack, and returns its place counted back from the end of scratch (the
// regions' extent is known only once every body is compiled).
func (cc *compiler) keep() int {
	cc.kept++
	return cc.kept
}

// compile specializes one expression: int-, bool- and host-typed
// compound expressions and header reads take the unboxed fast path
// (boxing once at the boundary), everything else the generic node
// compiler. This split is the deepest part of the Tempo analogy — types
// known at compile time erase runtime representation work.
func (cc *compiler) compile(e ast.Expr) code {
	if !beneficial(e) {
		return cc.compileNode(e)
	}
	switch t := e.Type(); t {
	case ast.IntT, ast.HostT:
		ic, kind := cc.compileInt(e), value.KindInt
		if t == ast.HostT {
			kind = value.KindHost
		}
		return func(m *machine, frame []value.Value, dst *value.Value) {
			*dst = value.Value{Kind: kind, I: ic(m, frame)}
		}
	case ast.BoolT:
		bc := cc.compileBool(e)
		return func(m *machine, frame []value.Value, dst *value.Value) {
			*dst = value.Bool(bc(m, frame))
		}
	}
	return cc.compileNode(e)
}

// constant compiles a literal.
func constant(v value.Value) code {
	return func(_ *machine, _ []value.Value, dst *value.Value) { *dst = v }
}

// bind is one compiled let binding: init's destination is the slot.
type bind struct {
	slot int
	init code
}

// compileBinds compiles a let's bindings in order.
func (cc *compiler) compileBinds(e *ast.Let) []bind {
	binds := make([]bind, len(e.Binds))
	for i, b := range e.Binds {
		binds[i] = bind{slot: b.Slot, init: cc.compile(b.Init)}
	}
	return binds
}

// compileNode is the generic (boxed) per-node compiler. Unary operators
// and every binary operator but ^ have an int or bool result, so compile
// never sends them here: their cases are compileInt's and compileBool's.
func (cc *compiler) compileNode(e ast.Expr) code {
	switch e := e.(type) {
	case *ast.IntLit:
		return constant(value.Int(e.Value))
	case *ast.BoolLit:
		return constant(value.Bool(e.Value))
	case *ast.StringLit:
		return constant(value.Str(e.Value))
	case *ast.CharLit:
		return constant(value.Char(e.Value))
	case *ast.UnitLit:
		return constant(value.Unit)
	case *ast.HostLit:
		return constant(value.HostV(e.Addr))

	case *ast.Var:
		if e.Slot >= 0 {
			slot := e.Slot
			return func(_ *machine, frame []value.Value, dst *value.Value) { *dst = frame[slot] }
		}
		gi := e.Global
		return func(m *machine, _ []value.Value, dst *value.Value) { *dst = m.globals[gi] }

	case *ast.Proj:
		idx := e.Index - 1
		// Specialize the common #n-of-variable case to skip a call.
		if v, ok := e.Tuple.(*ast.Var); ok && v.Slot >= 0 {
			slot := v.Slot
			return func(_ *machine, frame []value.Value, dst *value.Value) { *dst = frame[slot].Vs[idx] }
		}
		tuple := cc.compile(e.Tuple)
		return func(m *machine, frame []value.Value, dst *value.Value) {
			tuple(m, frame, dst)
			*dst = dst.Vs[idx]
		}

	case *ast.Let:
		binds := cc.compileBinds(e)
		body := cc.compile(e.Body)
		if len(binds) == 1 {
			b := binds[0]
			return func(m *machine, frame []value.Value, dst *value.Value) {
				b.init(m, frame, &frame[b.slot])
				body(m, frame, dst)
			}
		}
		return func(m *machine, frame []value.Value, dst *value.Value) {
			for _, b := range binds {
				b.init(m, frame, &frame[b.slot])
			}
			body(m, frame, dst)
		}

	case *ast.If:
		// Conditions are always bool; compile them unboxed so the test
		// never materializes a value.Value (mirrors compileInt/Bool's If
		// cases, which the boxed result type of this node can't reach).
		cond := cc.compileBool(e.Cond)
		thenC := cc.compile(e.Then)
		elseC := cc.compile(e.Else)
		return func(m *machine, frame []value.Value, dst *value.Value) {
			if cond(m, frame) {
				thenC(m, frame, dst)
			} else {
				elseC(m, frame, dst)
			}
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
			return func(m *machine, frame []value.Value, dst *value.Value) {
				h(m, frame, dst)
				last(m, frame, dst)
			}
		}
		return func(m *machine, frame []value.Value, dst *value.Value) {
			for _, h := range head {
				h(m, frame, dst)
			}
			last(m, frame, dst)
		}

	case *ast.TupleExpr:
		borrowed, lent := cc.lent[e]
		if lent {
			// The borrower pops a borrowed tuple; a result pair is the
			// body's last act, so nothing runs while it is read.
			mark := cc.top
			site := cc.reserve(len(e.Elems))
			codes := cc.compileElems(e, borrowed)
			if !borrowed {
				cc.top = mark
			}
			return func(m *machine, frame []value.Value, dst *value.Value) {
				elems := site.of(m)
				for i, sub := range codes {
					sub(m, frame, &elems[i])
				}
				*dst = value.TupleV(elems...)
			}
		}
		codes := cc.compileElems(e, false)
		return func(m *machine, frame []value.Value, dst *value.Value) {
			elems := make([]value.Value, len(codes))
			for i, sub := range codes {
				sub(m, frame, &elems[i])
			}
			*dst = value.TupleV(elems...)
		}

	case *ast.Binary:
		if e.Op != "^" {
			panic(fmt.Sprintf("planp/jit: operator %s is not boxed", e.Op))
		}
		l := cc.compile(e.L)
		r := cc.compile(e.R)
		return func(m *machine, frame []value.Value, dst *value.Value) {
			l(m, frame, dst)
			a := dst.S
			r(m, frame, dst)
			*dst = value.Str(a + dst.S)
		}

	case *ast.Try:
		body := cc.compile(e.Body)
		handler := cc.compile(e.Handler)
		return func(m *machine, frame []value.Value, dst *value.Value) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(value.Exception); ok {
						handler(m, frame, dst)
						return
					}
					panic(r)
				}
			}()
			body(m, frame, dst)
		}

	case *ast.Raise:
		msg := cc.compile(e.Msg)
		return func(m *machine, frame []value.Value, dst *value.Value) {
			msg(m, frame, dst)
			panic(value.Exception{Msg: dst.S})
		}

	case *ast.Call:
		return cc.compileCall(e)

	default:
		panic(fmt.Sprintf("planp/jit: unhandled expression %T", e))
	}
}

// compileElems compiles a tuple's elements. A header returned straight
// into a borrowed tuple is built in one its site keeps: see lent.
func (cc *compiler) compileElems(e *ast.TupleExpr, borrowed bool) []code {
	codes := make([]code, len(e.Elems))
	for i, sub := range e.Elems {
		call, ok := sub.(*ast.Call)
		if !borrowed || !ok || call.PrimIndex < 0 || prims.Get(call.PrimIndex).Into == nil {
			codes[i] = cc.compile(sub)
			continue
		}
		into, args, at := prims.Get(call.PrimIndex).Into, cc.compilePrim(call), cc.keep()
		codes[i] = func(m *machine, frame []value.Value, dst *value.Value) {
			*dst = into(args(m, frame), &m.scratch[len(m.scratch)-at])
		}
	}
	return codes
}

func (cc *compiler) compileCall(e *ast.Call) code {
	// Network sends.
	if e.Name == "OnRemote" || e.Name == "OnNeighbor" {
		cref := e.Args[0].(*ast.ChanRef)
		name := cref.Name
		mark := cc.top
		cc.lend(e.Args[1], true)
		pkt := cc.compile(e.Args[1])
		cc.top = mark
		if e.Name == "OnRemote" {
			return func(m *machine, frame []value.Value, dst *value.Value) {
				pkt(m, frame, dst)
				m.ctx.OnRemote(name, *dst)
				*dst = value.Unit
			}
		}
		return func(m *machine, frame []value.Value, dst *value.Value) {
			pkt(m, frame, dst)
			m.ctx.OnNeighbor(name, *dst)
			*dst = value.Unit
		}
	}

	// User fun: the callee is already compiled (declaration order), and
	// its frame is pushed like a primitive's argument buffer, and safe for
	// the same reasons.
	if e.FunIndex >= 0 {
		mark := cc.top
		site := cc.reserve(cc.info.Funs[e.FunIndex].FrameSize)
		args := cc.compileArgs(e)
		cc.top = mark
		body := cc.funs[e.FunIndex]
		return func(m *machine, frame []value.Value, dst *value.Value) {
			callee := site.of(m)
			for i, a := range args {
				a(m, frame, &callee[i])
			}
			body(m, callee, dst)
		}
	}

	fn, args := prims.Get(e.PrimIndex).Fn, cc.compilePrim(e)
	return func(m *machine, frame []value.Value, dst *value.Value) { *dst = fn(m.ctx, args(m, frame)) }
}

func (cc *compiler) compileArgs(e *ast.Call) []code {
	args := make([]code, len(e.Args))
	for i, a := range e.Args {
		args[i] = cc.compile(a)
	}
	return args
}

// compilePrim compiles a primitive call's arguments: the result
// evaluates them, each into its place in a buffer pushed on the body's
// stack, and returns the buffer for the implementation the caller
// captured at compile time. The buffer is pushed before the arguments
// compile and popped after, so what they push lies above it and the
// next call reuses it all. That is safe because the language has no
// recursion (a body is never active twice, so neither is its region),
// primitives do not retain their argument slice, and an instance is
// single-goroutine.
func (cc *compiler) compilePrim(e *ast.Call) func(m *machine, frame []value.Value) []value.Value {
	for _, i := range prims.Get(e.PrimIndex).Borrows {
		cc.lend(e.Args[i], true)
	}
	mark := cc.top
	site := cc.reserve(len(e.Args))
	codes := cc.compileArgs(e)
	cc.top = mark
	switch len(codes) {
	case 1:
		a0 := codes[0]
		return func(m *machine, frame []value.Value) []value.Value {
			buf := site.of(m)
			a0(m, frame, &buf[0])
			return buf
		}
	case 2:
		a0, a1 := codes[0], codes[1]
		return func(m *machine, frame []value.Value) []value.Value {
			buf := site.of(m)
			a0(m, frame, &buf[0])
			a1(m, frame, &buf[1])
			return buf
		}
	default:
		return func(m *machine, frame []value.Value) []value.Value {
			buf := site.of(m)
			for i, a := range codes {
				a(m, frame, &buf[i])
			}
			return buf
		}
	}
}
