// Unboxed specialization: int-, bool- and host-typed compound
// expressions and header reads compile to closures over raw machine
// values (int64 / bool) instead of boxed value.Value, with a single box
// at the boundary to the generic layer. This is the type-driven half of
// the partial-evaluation analogy: the paper's specializer erased the C
// interpreter's value tagging the same way, because the program's types
// are fully known at generation time.
//
// The types are the checker's: every node carries the one typecheck
// recorded on it (ast.Expr.Type), so the choice between the unboxed and
// the boxed path is made from the same facts the program was accepted on.
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

// beneficial reports whether the unboxed path actually saves interior
// boxing for this node kind (a bare atom or a call gains nothing).
func beneficial(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Binary, *ast.Unary, *ast.If, *ast.Let, *ast.Seq:
		return true
	case *ast.Call: // a header reader: compileWord reads it in place
		return e.PrimIndex >= 0 && prims.Get(e.PrimIndex).Word != nil
	}
	return false
}

// compileInt compiles an expression whose value is one word in
// Value.I — an int or a host, and for = / <> a char or bool operand; a
// bool too where compileBool has no case of its own (a let, a seq) — to
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
		if ast.Equal(e.Type(), ast.BoolT) { // a comparison, andalso, orelse
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
		// word, and nothing stored; a header reader's off its argument.
		if e.PrimIndex >= 0 {
			if word := prims.Get(e.PrimIndex).Word; word != nil {
				return cc.compileWord(word, e.Args[0])
			}
			fn, args := prims.Get(e.PrimIndex).Fn, cc.compilePrim(e)
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

// compileWord compiles a header reader: word reads the header where it
// lies, a frame slot or #n of one, or else in machine.tmp: rule (d).
func (cc *compiler) compileWord(word func(*value.Value) int64, arg ast.Expr) icode {
	switch a := arg.(type) {
	case *ast.Var:
		if slot := a.Slot; slot >= 0 {
			return func(_ *machine, frame []value.Value) int64 { return word(&frame[slot]) }
		}
	case *ast.Proj:
		if v, ok := a.Tuple.(*ast.Var); ok && v.Slot >= 0 {
			slot, idx := v.Slot, a.Index-1
			return func(_ *machine, frame []value.Value) int64 { return word(&frame[slot].Vs[idx]) }
		}
	}
	h := cc.compile(arg)
	return func(m *machine, frame []value.Value) int64 { h(m, frame, &m.tmp); return word(&m.tmp) }
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
	switch t, _ := e.L.Type().(ast.Base); t.Kind {
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
