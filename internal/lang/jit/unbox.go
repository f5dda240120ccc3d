// Unboxed specialization: int- and bool-typed compound expressions
// compile to closures over raw machine values (int64 / bool) instead of
// boxed value.Value, with a single box at the boundary to the generic
// layer. This is the type-driven half of the partial-evaluation analogy:
// the paper's specializer erased the C interpreter's value tagging the
// same way, because the program's types are fully known at generation
// time.
//
// The compiler reconstructs static types locally (the checker guarantees
// the program is well typed, so reconstruction cannot fail where it
// matters; anywhere the type comes back unknown we fall back to the
// boxed path, which is always correct).
package jit

import (
	"strings"

	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/prims"
	"planp.dev/planp/internal/lang/value"
)

// icode and bcode are unboxed compiled expressions.
type (
	icode func(m *machine, frame []value.Value) int64
	bcode func(m *machine, frame []value.Value) bool
)

// enterFrame resets slot-type tracking for a new compilation context.
func (cc *compiler) enterFrame(size int, params []ast.Type) {
	cc.slots = make([]ast.Type, size)
	copy(cc.slots, params)
}

// setSlot records a let binding's declared type.
func (cc *compiler) setSlot(slot int, t ast.Type) {
	if slot >= 0 && slot < len(cc.slots) {
		cc.slots[slot] = t
	}
}

// typeOf reconstructs e's static type; nil means "unknown, use the boxed
// path".
func (cc *compiler) typeOf(e ast.Expr) ast.Type {
	switch e := e.(type) {
	case *ast.IntLit:
		return ast.IntT
	case *ast.BoolLit:
		return ast.BoolT
	case *ast.StringLit:
		return ast.StringT
	case *ast.CharLit:
		return ast.CharT
	case *ast.UnitLit:
		return ast.UnitT
	case *ast.HostLit:
		return ast.HostT
	case *ast.Var:
		if e.Slot >= 0 {
			if e.Slot < len(cc.slots) {
				return cc.slots[e.Slot]
			}
			return nil
		}
		if e.Global >= 0 && e.Global < len(cc.info.Globals) {
			return cc.info.Globals[e.Global].Decl.Type
		}
		return nil
	case *ast.Proj:
		if tup, ok := cc.typeOf(e.Tuple).(ast.Tuple); ok && e.Index-1 < len(tup.Elems) {
			return tup.Elems[e.Index-1]
		}
		return nil
	case *ast.Let:
		// Binding types are declared; record them so the body sees them
		// even when typeOf runs before compilation touches the Let.
		for _, b := range e.Binds {
			cc.setSlot(b.Slot, b.Type)
		}
		return cc.typeOf(e.Body)
	case *ast.If:
		return cc.typeOf(e.Then)
	case *ast.Seq:
		return cc.typeOf(e.Exprs[len(e.Exprs)-1])
	case *ast.TupleExpr:
		elems := make([]ast.Type, len(e.Elems))
		for i, sub := range e.Elems {
			elems[i] = cc.typeOf(sub)
			if elems[i] == nil {
				return nil
			}
		}
		return ast.Tuple{Elems: elems}
	case *ast.Unary:
		if e.Op == "not" {
			return ast.BoolT
		}
		return ast.IntT
	case *ast.Binary:
		switch e.Op {
		case "+", "-", "*", "/", "mod":
			return ast.IntT
		case "^":
			return ast.StringT
		default:
			return ast.BoolT
		}
	case *ast.Try:
		return cc.typeOf(e.Body)
	case *ast.Call:
		if e.FunIndex >= 0 {
			return cc.info.Funs[e.FunIndex].Decl.Ret
		}
		if e.PrimIndex >= 0 {
			p := prims.Get(e.PrimIndex)
			if p.TypeFn == nil {
				return p.Ret
			}
			args := make([]ast.Type, len(e.Args))
			for i, a := range e.Args {
				args[i] = cc.typeOf(a)
				if args[i] == nil {
					return nil
				}
			}
			ret, err := prims.TypeOf(e.PrimIndex, args, nil)
			if err != nil {
				return nil
			}
			return ret
		}
		return ast.UnitT // OnRemote / OnNeighbor
	default:
		return nil
	}
}

// beneficial reports whether the unboxed path actually saves interior
// boxing for this node kind (a bare atom or a call gains nothing).
func beneficial(e ast.Expr) bool {
	switch e.(type) {
	case *ast.Binary, *ast.Unary, *ast.If, *ast.Let, *ast.Seq:
		return true
	}
	return false
}

// tryCompileInt compiles e unboxed when it is a compound int expression.
func (cc *compiler) tryCompileInt(e ast.Expr) (icode, bool) {
	if !beneficial(e) || !ast.Equal(cc.typeOf(e), ast.IntT) {
		return nil, false
	}
	return cc.compileInt(e), true
}

// tryCompileBool mirrors tryCompileInt for booleans.
func (cc *compiler) tryCompileBool(e ast.Expr) (bcode, bool) {
	if !beneficial(e) || !ast.Equal(cc.typeOf(e), ast.BoolT) {
		return nil, false
	}
	return cc.compileBool(e), true
}

// compileInt compiles an expression whose value is one word in
// Value.I — an int, and for = / <> a char, host or bool operand; a bool
// too where compileBool has no case of its own (a let, a seq) — to
// unboxed code. The bool operators inside go back to compileBool
// (boolWord); any other node it does not specialize falls back to the
// boxed compiler with one read at the seam.
func (cc *compiler) compileInt(e ast.Expr) icode {
	switch e := e.(type) {
	case *ast.IntLit:
		v := e.Value
		return func(*machine, []value.Value) int64 { return v }

	case *ast.Var:
		if e.Slot >= 0 {
			slot := e.Slot
			return func(_ *machine, frame []value.Value) int64 { return frame[slot].I }
		}
		gi := e.Global
		return func(m *machine, _ []value.Value) int64 { return m.globals[gi].I }

	case *ast.Proj:
		if v, ok := e.Tuple.(*ast.Var); ok && v.Slot >= 0 {
			slot, idx := v.Slot, e.Index-1
			return func(_ *machine, frame []value.Value) int64 { return frame[slot].Vs[idx].I }
		}

	case *ast.Unary:
		if e.Op == "not" {
			return cc.boolWord(e)
		}
		x := cc.compileInt(e.X)
		return func(m *machine, frame []value.Value) int64 { return -x(m, frame) }

	case *ast.Binary:
		if ast.Equal(cc.typeOf(e), ast.BoolT) { // a comparison, andalso, orelse
			return cc.boolWord(e)
		}
		l := cc.compileInt(e.L)
		r := cc.compileInt(e.R)
		switch e.Op {
		case "+":
			return func(m *machine, frame []value.Value) int64 { return l(m, frame) + r(m, frame) }
		case "-":
			return func(m *machine, frame []value.Value) int64 { return l(m, frame) - r(m, frame) }
		case "*":
			return func(m *machine, frame []value.Value) int64 { return l(m, frame) * r(m, frame) }
		case "/":
			return func(m *machine, frame []value.Value) int64 {
				// Operands evaluate left to right (the differential fuzz
				// test pins exception order across engines).
				n := l(m, frame)
				d := r(m, frame)
				if d == 0 {
					value.Raise("division by zero")
				}
				return n / d
			}
		case "mod":
			return func(m *machine, frame []value.Value) int64 {
				n := l(m, frame)
				d := r(m, frame)
				if d == 0 {
					value.Raise("mod by zero")
				}
				return n % d
			}
		}

	case *ast.If:
		cond := cc.compileBool(e.Cond)
		thenI := cc.compileInt(e.Then)
		elseI := cc.compileInt(e.Else)
		return func(m *machine, frame []value.Value) int64 {
			if cond(m, frame) {
				return thenI(m, frame)
			}
			return elseI(m, frame)
		}

	case *ast.Let:
		binds := cc.compileBinds(e)
		body := cc.compileInt(e.Body)
		return func(m *machine, frame []value.Value) int64 {
			for _, b := range binds {
				b.init(m, frame, &frame[b.slot])
			}
			return body(m, frame)
		}

	case *ast.Seq:
		head := make([]code, len(e.Exprs)-1)
		for i, sub := range e.Exprs[:len(e.Exprs)-1] {
			head[i] = cc.compile(sub)
		}
		last := cc.compileInt(e.Exprs[len(e.Exprs)-1])
		return func(m *machine, frame []value.Value) int64 {
			for _, h := range head {
				h(m, frame, &m.tmp)
			}
			return last(m, frame)
		}

	case *ast.Call:
		// A primitive's result is read where fn returns it: the one
		// word, and nothing stored.
		if e.PrimIndex >= 0 {
			fn, args := cc.compilePrim(e)
			return func(m *machine, frame []value.Value) int64 { return fn(m.ctx, args(m, frame)).I }
		}
	}

	// Seam to the boxed world (user calls, try/handle, raises,
	// projections of computed tuples, ...): rule (d).
	boxed := cc.compileNode(e)
	return func(m *machine, frame []value.Value) int64 {
		boxed(m, frame, &m.tmp)
		return m.tmp.I
	}
}

// boolWord is compileInt for a node only compileBool has cases for (not,
// andalso, orelse, the comparisons): the bool as value.Bool stores it.
func (cc *compiler) boolWord(e ast.Expr) icode {
	b := cc.compileBool(e)
	return func(m *machine, frame []value.Value) int64 {
		if b(m, frame) {
			return 1
		}
		return 0
	}
}

// compileBool compiles a bool-typed expression to unboxed code.
func (cc *compiler) compileBool(e ast.Expr) bcode {
	switch e := e.(type) {
	case *ast.BoolLit:
		v := e.Value
		return func(*machine, []value.Value) bool { return v }

	case *ast.Var:
		if e.Slot >= 0 {
			slot := e.Slot
			return func(_ *machine, frame []value.Value) bool { return frame[slot].I != 0 }
		}

	case *ast.Proj:
		// Mirrors compileInt's #n-of-variable fast path: bool tuple
		// fields (flags in protocol state) test without boxing.
		if v, ok := e.Tuple.(*ast.Var); ok && v.Slot >= 0 {
			slot, idx := v.Slot, e.Index-1
			return func(_ *machine, frame []value.Value) bool { return frame[slot].Vs[idx].I != 0 }
		}

	case *ast.Unary: // "not"
		x := cc.compileBool(e.X)
		return func(m *machine, frame []value.Value) bool { return !x(m, frame) }

	case *ast.Binary:
		switch e.Op {
		case "andalso":
			l := cc.compileBool(e.L)
			r := cc.compileBool(e.R)
			return func(m *machine, frame []value.Value) bool { return l(m, frame) && r(m, frame) }
		case "orelse":
			l := cc.compileBool(e.L)
			r := cc.compileBool(e.R)
			return func(m *machine, frame []value.Value) bool { return l(m, frame) || r(m, frame) }
		}
		return cc.compileCompare(e)

	case *ast.If:
		cond := cc.compileBool(e.Cond)
		thenB := cc.compileBool(e.Then)
		elseB := cc.compileBool(e.Else)
		return func(m *machine, frame []value.Value) bool {
			if cond(m, frame) {
				return thenB(m, frame)
			}
			return elseB(m, frame)
		}
	}

	// Everything else — a variable, a #n flag of protocol state, a
	// primitive's verdict, a boxed node — is the word in Value.I.
	word := cc.compileInt(e)
	return func(m *machine, frame []value.Value) bool { return word(m, frame) != 0 }
}

// compileCompare specializes = <> < <= > >= on the statically known
// operand type. One-word operands (int, bool, char, host) compare as
// words; strings by strings.Compare against 0, as words again; any
// other equality type through value.Equal. Every form reads what it
// needs of the left operand before the right one runs: rule (b).
func (cc *compiler) compileCompare(e *ast.Binary) bcode {
	var l, r icode
	switch t, _ := e.OperandType.(ast.Base); t.Kind {
	case ast.TInt, ast.TBool, ast.TChar, ast.THost:
		l, r = cc.compileInt(e.L), cc.compileInt(e.R)
	case ast.TString:
		ls, rs := cc.compile(e.L), cc.compile(e.R)
		l = func(m *machine, frame []value.Value) int64 {
			ls(m, frame, &m.tmp)
			a := m.tmp.S
			rs(m, frame, &m.tmp)
			return int64(strings.Compare(a, m.tmp.S))
		}
		r = func(*machine, []value.Value) int64 { return 0 }
	default: // = and <> only: the checker orders int, char and string
		lv, rv := cc.compile(e.L), cc.compile(e.R)
		neg := e.Op == "<>"
		return func(m *machine, frame []value.Value) bool {
			lv(m, frame, &m.tmp)
			a := m.tmp
			rv(m, frame, &m.tmp)
			return value.Equal(a, m.tmp) != neg
		}
	}
	switch e.Op {
	case "=":
		return func(m *machine, frame []value.Value) bool { return l(m, frame) == r(m, frame) }
	case "<>":
		return func(m *machine, frame []value.Value) bool { return l(m, frame) != r(m, frame) }
	case "<":
		return func(m *machine, frame []value.Value) bool { return l(m, frame) < r(m, frame) }
	case "<=":
		return func(m *machine, frame []value.Value) bool { return l(m, frame) <= r(m, frame) }
	case ">":
		return func(m *machine, frame []value.Value) bool { return l(m, frame) > r(m, frame) }
	default:
		return func(m *machine, frame []value.Value) bool { return l(m, frame) >= r(m, frame) }
	}
}
