// Bytecode compilation: a single-pass translator from the checked AST to
// register code. Variable slots from the checker map directly to the low
// registers; expression temporaries are allocated above them with a
// stack discipline so register pressure stays proportional to
// expression depth.
package bytecode

import (
	"fmt"

	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/engine"
	"planp.dev/planp/internal/lang/prims"
	"planp.dev/planp/internal/lang/typecheck"
	"planp.dev/planp/internal/lang/value"
)

// compiled implements engine.Compiled for the bytecode VM.
type compiled struct {
	info *typecheck.Info

	globals    []*Fn
	initStates []*Fn // indexed like info.Channels; nil where no initstate
	bodies     []*Fn
	funs       []*Fn

	// primFns caches every primitive's implementation pointer so
	// OpCallPrim dispatch is one slice index instead of a registry
	// lookup per call — the bytecode analogue of the JIT's compile-time
	// primitive capture (a monomorphic inline cache that can never miss,
	// since primitive identity is static in PLAN-P).
	primFns []func(prims.Context, []value.Value) value.Value
}

var _ engine.Compiled = (*compiled)(nil)

// Compile translates a checked program to bytecode.
func Compile(info *typecheck.Info) (engine.Compiled, error) {
	c := &compiled{info: info}
	for i := range info.Funs {
		f := &info.Funs[i]
		fn, err := compileFn("fun "+f.Decl.Name, f.Decl.Body, f.FrameSize)
		if err != nil {
			return nil, err
		}
		c.funs = append(c.funs, fn)
	}
	for _, g := range info.Globals {
		fn, err := compileFn("val "+g.Decl.Name, g.Decl.Init, g.FrameSize)
		if err != nil {
			return nil, err
		}
		c.globals = append(c.globals, fn)
	}
	for i := range info.Channels {
		ch := &info.Channels[i]
		if ch.Decl.InitState != nil {
			fn, err := compileFn(fmt.Sprintf("initstate %s#%d", ch.Decl.Name, i), ch.Decl.InitState, ch.FrameSize)
			if err != nil {
				return nil, err
			}
			c.initStates = append(c.initStates, fn)
		} else {
			c.initStates = append(c.initStates, nil)
		}
		fn, err := compileFn(fmt.Sprintf("channel %s#%d", ch.Decl.Name, i), ch.Decl.Body, ch.FrameSize)
		if err != nil {
			return nil, err
		}
		c.bodies = append(c.bodies, fn)
	}
	c.primFns = make([]func(prims.Context, []value.Value) value.Value, prims.Count())
	for i := range c.primFns {
		c.primFns[i] = prims.Get(i).Fn
	}
	return c, nil
}

func (c *compiled) EngineName() string    { return "bytecode" }
func (c *compiled) Info() *typecheck.Info { return c.info }

// fnCompiler compiles one expression tree into one Fn.
type fnCompiler struct {
	fn      *Fn
	nextReg int // next free temporary register; variable slots sit below the temporaries
	maxReg  int
	chanIdx map[string]int
}

func compileFn(name string, body ast.Expr, frameSize int) (*Fn, error) {
	fc := &fnCompiler{
		fn:      &Fn{Name: name},
		nextReg: frameSize,
		maxReg:  frameSize,
		chanIdx: map[string]int{},
	}
	res := fc.expr(body)
	fc.emit(Instr{Op: OpReturn, A: res})
	fc.fn.NumRegs = fc.maxReg
	return fc.fn, nil
}

func (fc *fnCompiler) emit(i Instr) int {
	fc.fn.Code = append(fc.fn.Code, i)
	return len(fc.fn.Code) - 1
}

func (fc *fnCompiler) alloc() int {
	r := fc.nextReg
	fc.nextReg++
	if fc.nextReg > fc.maxReg {
		fc.maxReg = fc.nextReg
	}
	return r
}

// save/restore implement stack-discipline temporary allocation around
// subexpressions.
func (fc *fnCompiler) mark() int        { return fc.nextReg }
func (fc *fnCompiler) release(mark int) { fc.nextReg = mark }

func (fc *fnCompiler) constIdx(v value.Value) int {
	fc.fn.Consts = append(fc.fn.Consts, v)
	return len(fc.fn.Consts) - 1
}

func (fc *fnCompiler) chanName(name string) int {
	if i, ok := fc.chanIdx[name]; ok {
		return i
	}
	fc.fn.ChanNames = append(fc.fn.ChanNames, name)
	i := len(fc.fn.ChanNames) - 1
	fc.chanIdx[name] = i
	return i
}

// expr compiles e and returns the register holding its value.
func (fc *fnCompiler) expr(e ast.Expr) int {
	switch e := e.(type) {
	case *ast.IntLit:
		return fc.loadConst(value.Int(e.Value))
	case *ast.BoolLit:
		return fc.loadConst(value.Bool(e.Value))
	case *ast.StringLit:
		return fc.loadConst(value.Str(e.Value))
	case *ast.CharLit:
		return fc.loadConst(value.Char(e.Value))
	case *ast.UnitLit:
		return fc.loadConst(value.Unit)
	case *ast.HostLit:
		return fc.loadConst(value.HostV(e.Addr))

	case *ast.Var:
		if e.Slot >= 0 {
			return e.Slot
		}
		dst := fc.alloc()
		fc.emit(Instr{Op: OpGlobal, A: dst, B: e.Global})
		return dst

	case *ast.Proj:
		mark := fc.mark()
		src := fc.expr(e.Tuple)
		fc.release(mark)
		dst := fc.alloc()
		fc.emit(Instr{Op: OpProj, A: dst, B: src, C: e.Index - 1})
		return dst

	case *ast.Let:
		for i := range e.Binds {
			b := &e.Binds[i]
			mark := fc.mark()
			src := fc.expr(b.Init)
			fc.release(mark)
			if src != b.Slot {
				fc.emit(Instr{Op: OpMove, A: b.Slot, B: src})
			}
		}
		return fc.expr(e.Body)

	case *ast.If:
		mark := fc.mark()
		cond := fc.expr(e.Cond)
		fc.release(mark)
		dst := fc.alloc()
		jf := fc.emit(Instr{Op: OpJumpIfF, A: cond})
		mark = fc.mark()
		t := fc.expr(e.Then)
		fc.release(mark)
		if t != dst {
			fc.emit(Instr{Op: OpMove, A: dst, B: t})
		}
		jend := fc.emit(Instr{Op: OpJump})
		fc.fn.Code[jf].B = len(fc.fn.Code) // else entry
		mark = fc.mark()
		el := fc.expr(e.Else)
		fc.release(mark)
		if el != dst {
			fc.emit(Instr{Op: OpMove, A: dst, B: el})
		}
		fc.fn.Code[jend].A = len(fc.fn.Code)
		return dst

	case *ast.Seq:
		for _, sub := range e.Exprs[:len(e.Exprs)-1] {
			mark := fc.mark()
			fc.expr(sub)
			fc.release(mark)
		}
		return fc.expr(e.Exprs[len(e.Exprs)-1])

	case *ast.TupleExpr:
		// Elements must land in contiguous registers for OpTuple.
		base := fc.nextReg
		for _, sub := range e.Elems {
			slot := fc.alloc()
			mark := fc.mark()
			src := fc.expr(sub)
			fc.release(mark)
			if src != slot {
				fc.emit(Instr{Op: OpMove, A: slot, B: src})
			}
		}
		dst := fc.alloc()
		fc.emit(Instr{Op: OpTuple, A: dst, B: base, C: len(e.Elems)})
		return dst

	case *ast.Unary:
		mark := fc.mark()
		src := fc.expr(e.X)
		fc.release(mark)
		dst := fc.alloc()
		if e.Op == "not" {
			fc.emit(Instr{Op: OpNot, A: dst, B: src})
		} else {
			fc.emit(Instr{Op: OpNeg, A: dst, B: src})
		}
		return dst

	case *ast.Binary:
		return fc.binary(e)

	case *ast.Try:
		dst := fc.alloc()
		tp := fc.emit(Instr{Op: OpTryPush})
		mark := fc.mark()
		b := fc.expr(e.Body)
		fc.release(mark)
		if b != dst {
			fc.emit(Instr{Op: OpMove, A: dst, B: b})
		}
		fc.emit(Instr{Op: OpTryPop})
		jend := fc.emit(Instr{Op: OpJump})
		fc.fn.Code[tp].A = len(fc.fn.Code) // handler entry
		mark = fc.mark()
		h := fc.expr(e.Handler)
		fc.release(mark)
		if h != dst {
			fc.emit(Instr{Op: OpMove, A: dst, B: h})
		}
		fc.fn.Code[jend].A = len(fc.fn.Code)
		return dst

	case *ast.Raise:
		mark := fc.mark()
		msg := fc.expr(e.Msg)
		fc.release(mark)
		fc.emit(Instr{Op: OpRaise, A: msg})
		// Unreachable result; allocate a register to keep invariants.
		return fc.alloc()

	case *ast.Call:
		return fc.call(e)

	default:
		panic(fmt.Sprintf("planp/bytecode: unhandled expression %T", e))
	}
}

func (fc *fnCompiler) loadConst(v value.Value) int {
	dst := fc.alloc()
	fc.emit(Instr{Op: OpConst, A: dst, B: fc.constIdx(v)})
	return dst
}

var arithOps = map[string]Op{
	"+": OpAdd, "-": OpSub, "*": OpMul, "/": OpDiv, "mod": OpMod, "^": OpConcat,
}

var ordOpsInt = map[string]Op{"<": OpLtI, "<=": OpLeI, ">": OpGtI, ">=": OpGeI}
var ordOpsStr = map[string]Op{"<": OpLtS, "<=": OpLeS, ">": OpGtS, ">=": OpGeS}

func (fc *fnCompiler) binary(e *ast.Binary) int {
	switch e.Op {
	case "andalso", "orelse":
		// Short-circuit with jumps.
		dst := fc.alloc()
		mark := fc.mark()
		l := fc.expr(e.L)
		fc.release(mark)
		if l != dst {
			fc.emit(Instr{Op: OpMove, A: dst, B: l})
		}
		var j int
		if e.Op == "andalso" {
			j = fc.emit(Instr{Op: OpJumpIfF, A: dst})
		} else {
			j = fc.emit(Instr{Op: OpJumpIfT, A: dst})
		}
		mark = fc.mark()
		r := fc.expr(e.R)
		fc.release(mark)
		if r != dst {
			fc.emit(Instr{Op: OpMove, A: dst, B: r})
		}
		fc.fn.Code[j].B = len(fc.fn.Code)
		return dst
	}

	mark := fc.mark()
	l := fc.expr(e.L)
	r := fc.expr(e.R)
	fc.release(mark)
	dst := fc.alloc()
	var op Op
	switch e.Op {
	case "=":
		op, _ = typeEqOps(e.L.Type())
	case "<>":
		_, op = typeEqOps(e.L.Type())
	case "<", "<=", ">", ">=":
		table := ordOpsInt
		if ast.Equal(e.L.Type(), ast.StringT) {
			table = ordOpsStr
		}
		op = table[e.Op]
	default:
		var ok bool
		if op, ok = arithOps[e.Op]; !ok {
			panic(fmt.Sprintf("planp/bytecode: unhandled operator %s", e.Op))
		}
	}
	fc.emit(Instr{Op: op, A: dst, B: l, C: r})
	return dst
}

func (fc *fnCompiler) call(e *ast.Call) int {
	if e.Name == "OnRemote" || e.Name == "OnNeighbor" {
		cref := e.Args[0].(*ast.ChanRef)
		mark := fc.mark()
		pkt := fc.expr(e.Args[1])
		fc.release(mark)
		mode := 0
		if e.Name == "OnNeighbor" {
			mode = 1
		}
		fc.emit(Instr{Op: OpSend, A: fc.chanName(cref.Name), B: pkt, C: mode})
		return fc.loadConst(value.Unit)
	}

	// Arguments must be contiguous.
	base := fc.nextReg
	for _, arg := range e.Args {
		slot := fc.alloc()
		mark := fc.mark()
		src := fc.expr(arg)
		fc.release(mark)
		if src != slot {
			fc.emit(Instr{Op: OpMove, A: slot, B: src})
		}
	}
	dst := fc.alloc()
	if e.FunIndex >= 0 {
		fc.emit(Instr{Op: OpCallFun, A: dst, B: e.FunIndex, C: base, Aux: len(e.Args)})
	} else {
		fc.emit(Instr{Op: OpCallPrim, A: dst, B: e.PrimIndex, C: base, Aux: len(e.Args)})
	}
	return dst
}
