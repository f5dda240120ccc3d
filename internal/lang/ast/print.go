// AST pretty-printer: renders programs back to parseable PLAN-P source.
// Used by the planp CLI's fmt mode and by the parser's round-trip
// property tests (parse ∘ print ∘ parse is the identity up to
// positions).
package ast

import (
	"fmt"
	"strconv"
	"strings"
)

// Print renders a program as formatted PLAN-P source.
func Print(p *Program) string {
	var sb strings.Builder
	for i, d := range p.Decls {
		if i > 0 {
			sb.WriteByte('\n')
		}
		printDecl(&sb, d)
	}
	return sb.String()
}

func printDecl(sb *strings.Builder, d Decl) {
	switch d := d.(type) {
	case *ValDecl:
		fmt.Fprintf(sb, "val %s : %s = %s\n", d.Name, d.Type, ExprString(d.Init))
	case *FunDecl:
		fmt.Fprintf(sb, "fun %s(%s) : %s =\n  %s\n", d.Name, params(d.Params), d.Ret,
			indent(ExprString(d.Body), 2))
	case *ChannelDecl:
		fmt.Fprintf(sb, "channel %s(%s)", d.Name, params(d.Params))
		if d.InitState != nil {
			fmt.Fprintf(sb, "\ninitstate %s", ExprString(d.InitState))
		}
		fmt.Fprintf(sb, " is\n  %s\n", indent(ExprString(d.Body), 2))
	}
}

func params(ps []Param) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = fmt.Sprintf("%s : %s", p.Name, p.Type)
	}
	return strings.Join(parts, ", ")
}

// indent shifts continuation lines of s by n spaces.
func indent(s string, n int) string {
	pad := strings.Repeat(" ", n)
	return strings.ReplaceAll(s, "\n", "\n"+pad)
}

// ExprString renders one expression as source text. Output is fully
// parenthesized where precedence could be ambiguous, so it re-parses to
// the same tree.
func ExprString(e Expr) string {
	var sb strings.Builder
	printExpr(&sb, e)
	return sb.String()
}

func printExpr(sb *strings.Builder, e Expr) {
	switch e := e.(type) {
	case *IntLit:
		// Negative literals re-parse via the parser's unary-minus fold.
		sb.WriteString(strconv.FormatInt(e.Value, 10))
	case *BoolLit:
		sb.WriteString(strconv.FormatBool(e.Value))
	case *StringLit:
		sb.WriteString(quote(e.Value))
	case *CharLit:
		sb.WriteString(quoteChar(e.Value))
	case *UnitLit:
		sb.WriteString("()")
	case *HostLit:
		sb.WriteString(e.Text)
	case *Var:
		sb.WriteString(e.Name)
	case *ChanRef:
		sb.WriteString(e.Name)
	case *Proj:
		fmt.Fprintf(sb, "#%d ", e.Index)
		printAtom(sb, e.Tuple)
	case *Call:
		sb.WriteString(e.Name)
		sb.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			printExpr(sb, a)
		}
		sb.WriteByte(')')
	case *Let:
		sb.WriteString("let\n")
		for _, b := range e.Binds {
			fmt.Fprintf(sb, "  val %s : %s = %s\n", b.Name, b.Type, ExprString(b.Init))
		}
		fmt.Fprintf(sb, "in\n  %s\nend", indent(ExprString(e.Body), 2))
	case *If:
		fmt.Fprintf(sb, "if %s then\n  %s\nelse\n  %s",
			ExprString(e.Cond), indent(ExprString(e.Then), 2), indent(ExprString(e.Else), 2))
	case *Seq:
		sb.WriteByte('(')
		for i, sub := range e.Exprs {
			if i > 0 {
				sb.WriteString(";\n ")
			}
			sb.WriteString(indent(ExprString(sub), 1))
		}
		sb.WriteByte(')')
	case *TupleExpr:
		sb.WriteByte('(')
		for i, sub := range e.Elems {
			if i > 0 {
				sb.WriteString(", ")
			}
			printExpr(sb, sub)
		}
		sb.WriteByte(')')
	case *Unary:
		if e.Op == "not" {
			sb.WriteString("not ")
		} else {
			sb.WriteString("- ")
		}
		printAtom(sb, e.X)
	case *Binary:
		printAtom(sb, e.L)
		fmt.Fprintf(sb, " %s ", e.Op)
		printAtom(sb, e.R)
	case *Try:
		fmt.Fprintf(sb, "try %s handle %s end", ExprString(e.Body), ExprString(e.Handler))
	case *Raise:
		sb.WriteString("raise ")
		printAtom(sb, e.Msg)
	default:
		fmt.Fprintf(sb, "/*?%T*/", e)
	}
}

// printAtom parenthesizes anything that is not syntactically atomic.
func printAtom(sb *strings.Builder, e Expr) {
	switch e.(type) {
	case *IntLit, *BoolLit, *StringLit, *CharLit, *UnitLit, *HostLit,
		*Var, *ChanRef, *Call, *TupleExpr, *Seq, *Proj:
		printExpr(sb, e)
	default:
		sb.WriteByte('(')
		printExpr(sb, e)
		sb.WriteByte(')')
	}
}

func quote(s string) string {
	var sb strings.Builder
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\n':
			sb.WriteString(`\n`)
		case '\t':
			sb.WriteString(`\t`)
		case '\r':
			sb.WriteString(`\r`)
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case 0:
			sb.WriteString(`\0`)
		default:
			sb.WriteByte(c)
		}
	}
	sb.WriteByte('"')
	return sb.String()
}

func quoteChar(c byte) string {
	switch c {
	case '\n':
		return `'\n'`
	case '\t':
		return `'\t'`
	case '\r':
		return `'\r'`
	case '\\':
		return `'\\'`
	case '\'':
		return `'\''`
	case 0:
		return `'\0'`
	default:
		return string([]byte{'\'', c, '\''}) // c is a byte, not a code point
	}
}
