// The bytecode VM: a register machine with an explicit handler stack for
// try/handle. PLAN-P exceptions raised inside primitives arrive as Go
// panics carrying value.Exception; the VM converts them into transfers
// to the innermost handler, or returns them as errors from the invoke
// boundary.
package bytecode

import (
	"fmt"

	"planp.dev/planp/internal/lang/engine"
	"planp.dev/planp/internal/lang/prims"
	"planp.dev/planp/internal/lang/value"
)

// vm executes code objects for one instance. It reuses one register
// frame per channel body and per callee fun across invocations (an
// instance is single-goroutine, and the language has no recursion, so a
// fun is never active twice on one stack — the same guarantees the
// JIT's frame reuse leans on). The handler stack is shared across nested
// exec frames with a base marker per frame, so try/handle costs no
// allocation once the backing array has grown.
type vm struct {
	c        *compiled
	ctx      prims.Context
	globals  []value.Value
	handlers []int

	// frames[i] is the register file for channel body i; funFrames[i]
	// for fun i.
	frames    [][]value.Value
	funFrames [][]value.Value
}

func (c *compiled) NewInstance(ctx prims.Context) (*engine.Instance, error) {
	m := &vm{
		c:         c,
		ctx:       ctx,
		globals:   make([]value.Value, len(c.globals)),
		frames:    make([][]value.Value, len(c.bodies)),
		funFrames: make([][]value.Value, len(c.funs)),
	}
	for i, fn := range c.bodies {
		m.frames[i] = make([]value.Value, fn.NumRegs)
	}
	for i, fn := range c.funs {
		m.funFrames[i] = make([]value.Value, fn.NumRegs)
	}
	// Vals and initstates run once, each on a register file of its own.
	once := func(fn *Fn) (value.Value, error) { return m.exec(fn, make([]value.Value, fn.NumRegs)) }
	proto, chans, err := engine.InitStates(c.info, m.globals,
		func(gi int) (value.Value, error) { return once(c.globals[gi]) },
		func(ci int) (value.Value, error) { return once(c.initStates[ci]) })
	if err != nil {
		return nil, err
	}
	return engine.NewInstance(m, proto, chans), nil
}

func (m *vm) Compiled() engine.Compiled { return m.c }

// Packet is register 2 of channel ci's register file, where its body
// reads p.
func (m *vm) Packet(ci int) *value.Value { return &m.frames[ci][2] }

func (m *vm) Invoke(ci int, ctx prims.Context, ps, ss *value.Value) error {
	frame := m.frames[ci]
	frame[0], frame[1] = *ps, *ss
	m.ctx = ctx
	res, err := m.exec(m.c.bodies[ci], frame)
	if err != nil {
		return err
	}
	*ps, *ss = res.Vs[0], res.Vs[1]
	return nil
}

// exec runs fn to completion, converting an unhandled PLAN-P exception
// into an error. Handlers pushed by this frame live above base on the
// shared stack; both exits truncate back to base.
func (m *vm) exec(fn *Fn, regs []value.Value) (value.Value, error) {
	pc := 0
	base := len(m.handlers)
	for {
		res, newPC, err := m.run(fn, regs, pc)
		if err == nil && newPC < 0 {
			m.handlers = m.handlers[:base]
			return res, nil
		}
		if err != nil {
			// Exception: transfer to the innermost handler if any.
			if n := len(m.handlers); n > base {
				pc = m.handlers[n-1]
				m.handlers = m.handlers[:n-1]
				continue
			}
			m.handlers = m.handlers[:base]
			return value.Unit, err
		}
		pc = newPC
	}
}

// run executes instructions from pc until OpReturn (newPC = -1) or a
// PLAN-P exception (err != nil). It recovers panics carrying
// value.Exception; other panics propagate (they are engine bugs).
func (m *vm) run(fn *Fn, r []value.Value, pc int) (res value.Value, newPC int, err error) {
	defer engine.Recover(&err)
	code := fn.Code
	for {
		in := code[pc]
		pc++
		switch in.Op {
		case OpNop:

		case OpConst:
			r[in.A] = fn.Consts[in.B]
		case OpMove:
			r[in.A] = r[in.B]
		case OpGlobal:
			r[in.A] = m.globals[in.B]

		case OpProj:
			r[in.A] = r[in.B].Vs[in.C]
		case OpTuple:
			elems := make([]value.Value, in.C)
			copy(elems, r[in.B:in.B+in.C])
			r[in.A] = value.TupleV(elems...)

		case OpJump:
			pc = in.A
		case OpJumpIfF:
			if r[in.A].I == 0 {
				pc = in.B
			}
		case OpJumpIfT:
			if r[in.A].I != 0 {
				pc = in.B
			}

		case OpAdd:
			r[in.A] = value.Int(r[in.B].I + r[in.C].I)
		case OpSub:
			r[in.A] = value.Int(r[in.B].I - r[in.C].I)
		case OpMul:
			r[in.A] = value.Int(r[in.B].I * r[in.C].I)
		case OpDiv:
			if r[in.C].I == 0 {
				value.Raise("division by zero")
			}
			r[in.A] = value.Int(r[in.B].I / r[in.C].I)
		case OpMod:
			if r[in.C].I == 0 {
				value.Raise("mod by zero")
			}
			r[in.A] = value.Int(r[in.B].I % r[in.C].I)
		case OpNeg:
			r[in.A] = value.Int(-r[in.B].I)
		case OpNot:
			r[in.A] = value.Bool(r[in.B].I == 0)
		case OpConcat:
			r[in.A] = value.Str(r[in.B].S + r[in.C].S)

		case OpEqI:
			r[in.A] = value.Bool(r[in.B].I == r[in.C].I)
		case OpNeI:
			r[in.A] = value.Bool(r[in.B].I != r[in.C].I)
		case OpEqS:
			r[in.A] = value.Bool(r[in.B].S == r[in.C].S)
		case OpNeS:
			r[in.A] = value.Bool(r[in.B].S != r[in.C].S)
		case OpEqV:
			r[in.A] = value.Bool(value.Equal(r[in.B], r[in.C]))
		case OpNeV:
			r[in.A] = value.Bool(!value.Equal(r[in.B], r[in.C]))
		case OpLtI:
			r[in.A] = value.Bool(r[in.B].I < r[in.C].I)
		case OpLeI:
			r[in.A] = value.Bool(r[in.B].I <= r[in.C].I)
		case OpGtI:
			r[in.A] = value.Bool(r[in.B].I > r[in.C].I)
		case OpGeI:
			r[in.A] = value.Bool(r[in.B].I >= r[in.C].I)
		case OpLtS:
			r[in.A] = value.Bool(r[in.B].S < r[in.C].S)
		case OpLeS:
			r[in.A] = value.Bool(r[in.B].S <= r[in.C].S)
		case OpGtS:
			r[in.A] = value.Bool(r[in.B].S > r[in.C].S)
		case OpGeS:
			r[in.A] = value.Bool(r[in.B].S >= r[in.C].S)

		case OpCallPrim:
			fnp := m.c.primFns[in.B]
			r[in.A] = fnp(m.ctx, r[in.C:in.C+in.Aux])

		case OpCallFun:
			cframe := m.funFrames[in.B]
			copy(cframe, r[in.C:in.C+in.Aux])
			v, cerr := m.exec(m.c.funs[in.B], cframe)
			if cerr != nil {
				// Re-panic the original exception so the caller's
				// handler stack sees it unchanged.
				if ex, ok := cerr.(value.Exception); ok {
					panic(ex)
				}
				panic(cerr)
			}
			r[in.A] = v

		case OpSend:
			if in.C == 0 {
				m.ctx.OnRemote(fn.ChanNames[in.A], r[in.B])
			} else {
				m.ctx.OnNeighbor(fn.ChanNames[in.A], r[in.B])
			}

		case OpRaise:
			value.Raise("%s", r[in.A].S)

		case OpTryPush:
			m.handlers = append(m.handlers, in.A)
		case OpTryPop:
			m.handlers = m.handlers[:len(m.handlers)-1]

		case OpReturn:
			return r[in.A], -1, nil

		default:
			panic(fmt.Sprintf("planp/bytecode: unknown opcode %s", in.Op))
		}
	}
}
