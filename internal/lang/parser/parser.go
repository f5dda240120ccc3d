// Package parser implements a recursive-descent parser for PLAN-P.
//
// The grammar follows the SML-like surface syntax used in the paper's
// listings (figures 2 and 4): top-level val/fun/channel declarations,
// let/in/end blocks, if/then/else expressions, parenthesized sequences
// (e1; e2), tuples (e1, e2), and #n tuple projection. Operator
// precedences follow SML: {* / mod} > {+ - ^} > comparisons >
// andalso > orelse.
package parser

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/diag"
	"planp.dev/planp/internal/lang/lexer"
	"planp.dev/planp/internal/lang/token"
	"planp.dev/planp/internal/substrate"
)

// Error is a syntax error with position information.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: syntax error: %s", e.Pos, e.Msg) }

// Diagnostics implements diag.Provider.
func (e *Error) Diagnostics() diag.List {
	return diag.List{{Pos: e.Pos, Msg: "syntax error: " + e.Msg}}
}

// parser pulls tokens from the lexer through a one-token window: the
// grammar is LL(1), so tok is all the lookahead there is and no token
// outlives the step that consumes it.
type parser struct {
	lx  *lexer.Lexer
	tok token.Token
	// lexErr is the lexical error the window stopped at; tok is then EOF
	// for good. Tokens are read in source order, so once set it is the
	// first error in the source and every failure reports it (first).
	lexErr error
	depth  int        // of parseExpr calls in progress, see maxNesting
	stack  []ast.Expr // the elements of every list still open, see parseList
}

func newParser(src string) *parser {
	p := &parser{lx: lexer.New(src)}
	p.next() // the zero token gives way to the first
	return p
}

// Parse scans and parses a complete PLAN-P program.
func Parse(src string) (*ast.Program, error) {
	p := newParser(src)
	var buf [32]ast.Decl // as in parseParams
	decls := buf[:0]
	for p.tok.Kind != token.EOF {
		d, err := p.parseDecl()
		if err != nil {
			return nil, p.first(err)
		}
		decls = append(decls, d)
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if len(decls) == 0 {
		return nil, &Error{Pos: token.Pos{Line: 1, Col: 1}, Msg: "empty program"}
	}
	return &ast.Program{Decls: slices.Clone(decls)}, nil
}

// ParseExpr parses a single expression (used by tests and the REPL-style
// tooling in cmd/planp).
func ParseExpr(src string) (ast.Expr, error) {
	p := newParser(src)
	e, err := p.parseExpr()
	if err == nil && p.tok.Kind != token.EOF {
		err = p.errorf(p.tok.Pos, "unexpected %s after expression", p.tok)
	}
	if err = p.first(err); err != nil {
		return nil, err
	}
	return e, nil
}

// first is the error to report when parsing stopped with err: the
// lexical error, if the window hit one.
func (p *parser) first(err error) error {
	if p.lexErr != nil {
		return p.lexErr
	}
	return err
}

// next consumes the window's token and pulls the one after it; EOF
// stays. A caller that needs the consumed token's position reads p.tok
// first: the window moves one token per step, not two.
func (p *parser) next() {
	if p.tok.Kind == token.EOF {
		return
	}
	if err := p.lx.Next(&p.tok); err != nil {
		p.lexErr, p.tok = err, token.Token{Kind: token.EOF}
	}
}

func (p *parser) errorf(pos token.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k token.Kind) (token.Token, error) {
	t := p.tok
	if t.Kind != k {
		return t, p.errorf(t.Pos, "expected %s, got %s", k, t)
	}
	p.next()
	return t, nil
}

// ---------------------------------------------------------------------------
// Declarations

func (p *parser) parseDecl() (ast.Decl, error) {
	t := p.tok
	switch t.Kind {
	case token.KwVal:
		return p.parseValDecl()
	case token.KwFun:
		return p.parseFunDecl()
	case token.KwChannel:
		return p.parseChannelDecl()
	default:
		return nil, p.errorf(t.Pos, "expected declaration (val, fun, or channel), got %s", t)
	}
}

func (p *parser) parseValDecl() (*ast.ValDecl, error) {
	at := p.tok.Pos
	p.next() // val
	name, err := p.expect(token.Ident)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Colon); err != nil {
		return nil, err
	}
	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Eq); err != nil {
		return nil, err
	}
	init, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ast.ValDecl{Name: name.Text, Type: ty, Init: init, At: at, EndAt: init.End()}, nil
}

func (p *parser) parseFunDecl() (*ast.FunDecl, error) {
	at := p.tok.Pos
	p.next() // fun
	name, err := p.expect(token.Ident)
	if err != nil {
		return nil, err
	}
	params, _, err := p.parseParams()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Colon); err != nil {
		return nil, err
	}
	ret, err := p.parseType()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Eq); err != nil {
		return nil, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ast.FunDecl{Name: name.Text, Params: params, Ret: ret, Body: body, At: at, EndAt: body.End()}, nil
}

func (p *parser) parseChannelDecl() (*ast.ChannelDecl, error) {
	at := p.tok.Pos
	p.next() // channel
	name, err := p.expect(token.Ident)
	if err != nil {
		return nil, err
	}
	params, headerEnd, err := p.parseParams()
	if err != nil {
		return nil, err
	}
	if len(params) != 3 {
		return nil, p.errorf(at, "channel %s must declare exactly 3 parameters (protocol state, channel state, packet); got %d", name.Text, len(params))
	}
	var initState ast.Expr
	if p.tok.Kind == token.KwInitstate {
		p.next()
		initState, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(token.KwIs); err != nil {
		return nil, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ast.ChannelDecl{Name: name.Text, Params: params, InitState: initState, Body: body,
		At: at, EndAt: body.End(), HeaderEnd: headerEnd}, nil
}

// parseParams parses "(name : type, ...)" and also returns the position
// one past the closing paren (the end of the declared header).
func (p *parser) parseParams() ([]ast.Param, token.Pos, error) {
	if _, err := p.expect(token.LParen); err != nil {
		return nil, token.Pos{}, err
	}
	if p.tok.Kind == token.RParen {
		end := p.tok.End
		p.next()
		return nil, end, nil
	}
	var buf [8]ast.Param // a list short enough for buf is allocated once
	params := buf[:0]
	for {
		name, err := p.expect(token.Ident)
		if err != nil {
			return nil, token.Pos{}, err
		}
		if _, err := p.expect(token.Colon); err != nil {
			return nil, token.Pos{}, err
		}
		ty, err := p.parseType()
		if err != nil {
			return nil, token.Pos{}, err
		}
		params = append(params, ast.Param{Name: name.Text, Type: ty})
		if p.tok.Kind != token.Comma {
			break
		}
		p.next()
	}
	rp, err := p.expect(token.RParen)
	if err != nil {
		return nil, token.Pos{}, err
	}
	return slices.Clone(params), rp.End, nil
}

// ---------------------------------------------------------------------------
// Types

// parseType parses a (possibly tuple) type: atom {"*" atom}.
func (p *parser) parseType() (ast.Type, error) {
	first, err := p.parseTypeAtom()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != token.Star {
		return first, nil
	}
	var buf [8]ast.Type // as in parseParams
	elems := append(buf[:0], first)
	for p.tok.Kind == token.Star {
		p.next()
		t, err := p.parseTypeAtom()
		if err != nil {
			return nil, err
		}
		elems = append(elems, t)
	}
	return ast.Tuple{Elems: slices.Clone(elems)}, nil
}

// parseTypeAtom parses a base type name or a parenthesized type, possibly
// followed by postfix constructors "hash_table" / "list".
func (p *parser) parseTypeAtom() (ast.Type, error) {
	var t ast.Type
	switch tk := p.tok; tk.Kind {
	case token.Ident:
		kind, ok := ast.BaseTypes[tk.Text]
		if !ok {
			return nil, p.errorf(tk.Pos, "unknown type %q", tk.Text)
		}
		p.next()
		t = ast.Base{Kind: kind}
	case token.LParen:
		p.next()
		inner, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		t = inner
	default:
		return nil, p.errorf(tk.Pos, "expected type, got %s", tk)
	}
	// Postfix type constructors.
	for p.tok.Kind == token.Ident {
		switch p.tok.Text {
		case "hash_table":
			p.next()
			t = ast.Table{Elem: t}
		case "list":
			p.next()
			t = ast.List{Elem: t}
		default:
			return t, nil
		}
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Expressions

// binOps gives each binary operator's token its name and binding
// power, loosest first as in SML; every other token has power 0.
var binOps = [...]struct {
	name  string
	power int
}{
	token.KwOrelse: {"orelse", 1}, token.KwAndalso: {"andalso", 2},
	token.Eq: {"=", 3}, token.NotEq: {"<>", 3}, token.Less: {"<", 3},
	token.LessEq: {"<=", 3}, token.Greater: {">", 3}, token.GreaterEq: {">=", 3},
	token.Plus: {"+", 4}, token.Minus: {"-", 4}, token.Caret: {"^", 4},
	token.Star: {"*", 5}, token.Slash: {"/", 5}, token.KwMod: {"mod", 5},
}

// maxNesting bounds how deep expressions nest. planpd takes a mebibyte
// of text from the network, and that many "(" would otherwise overflow
// the goroutine stack, which kills the process and no recover catches.
const maxNesting = 10000

func (p *parser) parseExpr() (ast.Expr, error) {
	if p.depth++; p.depth > maxNesting {
		return nil, p.errorf(p.tok.Pos, "expression nested more than %d deep", maxNesting)
	}
	e, err := p.parseBinary(1)
	p.depth--
	return e, err
}

// parseBinary climbs precedence: one operand, then each operator that
// binds at least as tightly as min, its right side parsed one power
// tighter, so that every level associates to the left.
func (p *parser) parseBinary(min int) (ast.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for int(p.tok.Kind) < len(binOps) && binOps[p.tok.Kind].power >= min {
		op := binOps[p.tok.Kind]
		p.next()
		right, err := p.parseBinary(op.power + 1)
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Node: ast.Node{At: left.Pos(), EndAt: right.End()}, Op: op.name, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (ast.Expr, error) {
	at := p.tok.Pos
	switch p.tok.Kind {
	case token.KwNot:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Node: ast.Node{At: at, EndAt: x.End()}, Op: "not", X: x}, nil
	case token.Minus:
		p.next()
		if p.tok.Kind == token.Int {
			return p.parseIntLit(at, true)
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold -(5) and - -5 too, for cleaner ASTs.
		if lit, ok := x.(*ast.IntLit); ok {
			return &ast.IntLit{Node: ast.Node{At: at, EndAt: lit.End()}, Value: -lit.Value}, nil
		}
		return &ast.Unary{Node: ast.Node{At: at, EndAt: x.End()}, Op: "-", X: x}, nil
	case token.KwRaise:
		p.next()
		msg, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ast.Raise{Node: ast.Node{At: at, EndAt: msg.End()}, Msg: msg}, nil
	}
	return p.parseProj()
}

// parseProj handles "#n atom" projection chains.
func (p *parser) parseProj() (ast.Expr, error) {
	at := p.tok.Pos
	if p.tok.Kind == token.Hash {
		p.next()
		idxTok, err := p.expect(token.Int)
		if err != nil {
			return nil, err
		}
		idx, err := strconv.Atoi(idxTok.Text)
		if err != nil || idx < 1 {
			return nil, p.errorf(idxTok.Pos, "projection index must be a positive integer")
		}
		tuple, err := p.parseProj()
		if err != nil {
			return nil, err
		}
		return &ast.Proj{Node: ast.Node{At: at, EndAt: tuple.End()}, Index: idx, Tuple: tuple}, nil
	}
	return p.parseAtom()
}

func (p *parser) parseAtom() (ast.Expr, error) {
	t := p.tok
	switch t.Kind {
	case token.Int:
		return p.parseIntLit(t.Pos, false)
	case token.String:
		p.next()
		return &ast.StringLit{Node: ast.Node{At: t.Pos, EndAt: t.End}, Value: t.Text}, nil
	case token.Char:
		p.next()
		return &ast.CharLit{Node: ast.Node{At: t.Pos, EndAt: t.End}, Value: t.Text[0]}, nil
	case token.KwTrue:
		p.next()
		return &ast.BoolLit{Node: ast.Node{At: t.Pos, EndAt: t.End}, Value: true}, nil
	case token.KwFalse:
		p.next()
		return &ast.BoolLit{Node: ast.Node{At: t.Pos, EndAt: t.End}, Value: false}, nil
	case token.HostLit:
		p.next()
		addr, err := substrate.ParseAddr(t.Text)
		if err != nil {
			return nil, p.errorf(t.Pos, "%v", err)
		}
		return &ast.HostLit{Node: ast.Node{At: t.Pos, EndAt: t.End}, Addr: addr, Text: t.Text}, nil
	case token.Ident:
		p.next()
		if p.tok.Kind == token.LParen {
			return p.parseCallArgs(t)
		}
		return &ast.Var{Node: ast.Node{At: t.Pos, EndAt: t.End}, Name: t.Text, Slot: -1, Global: -1}, nil
	case token.KwLet:
		return p.parseLet()
	case token.KwIf:
		return p.parseIf()
	case token.KwTry:
		return p.parseTry()
	case token.LParen:
		return p.parseParen()
	default:
		return nil, p.errorf(t.Pos, "expected expression, got %s", t)
	}
}

// parseIntLit parses the integer literal in the window, negated when
// a unary minus at pos precedes it: -2^63 is an int, 2^63 is not.
func (p *parser) parseIntLit(at token.Pos, neg bool) (ast.Expr, error) {
	t := p.tok
	p.next()
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	v, err := strconv.ParseUint(t.Text, 10, 64)
	if err != nil || v > limit {
		return nil, p.errorf(t.Pos, "integer literal %s out of range", t.Text)
	}
	n := int64(v)
	if neg {
		n = -n // 2^63 wraps to itself, math.MinInt64
	}
	return &ast.IntLit{Node: ast.Node{At: at, EndAt: t.End}, Value: n}, nil
}

func (p *parser) parseCallArgs(name token.Token) (ast.Expr, error) {
	p.next() // (
	call := &ast.Call{Node: ast.Node{At: name.Pos}, Name: name.Text, PrimIndex: -1, FunIndex: -1}
	if p.tok.Kind == token.RParen {
		call.EndAt = p.tok.End
		p.next()
		return call, nil
	}
	first, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	call.Args, call.EndAt, err = p.parseList(first, token.Comma)
	if err != nil {
		return nil, err
	}
	return call, nil
}

// parseList parses the rest of "first {sep e} )" and returns the list
// and the position one past its ')'. The elements wait on the parser's
// stack, above those of every list still open around this one, and are
// copied out once, at their length, when the list closes.
func (p *parser) parseList(first ast.Expr, sep token.Kind) ([]ast.Expr, token.Pos, error) {
	base := len(p.stack)
	p.stack = append(p.stack, first)
	for p.tok.Kind == sep {
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, token.Pos{}, err
		}
		p.stack = append(p.stack, e)
	}
	rp, err := p.expect(token.RParen)
	if err != nil {
		return nil, token.Pos{}, err
	}
	list := slices.Clone(p.stack[base:])
	p.stack = p.stack[:base]
	return list, rp.End, nil
}

func (p *parser) parseLet() (ast.Expr, error) {
	var buf [8]ast.LetBind // as in parseParams
	binds := buf[:0]
	at := p.tok.Pos
	p.next() // let
	for p.tok.Kind == token.KwVal {
		p.next()
		name, err := p.expect(token.Ident)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Colon); err != nil {
			return nil, err
		}
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Eq); err != nil {
			return nil, err
		}
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		binds = append(binds, ast.LetBind{Name: name.Text, Type: ty, Init: init, Slot: -1})
	}
	if len(binds) == 0 {
		return nil, p.errorf(at, "let requires at least one val binding")
	}
	if _, err := p.expect(token.KwIn); err != nil {
		return nil, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	endTok, err := p.expect(token.KwEnd)
	if err != nil {
		return nil, err
	}
	return &ast.Let{Node: ast.Node{At: at, EndAt: endTok.End}, Binds: slices.Clone(binds), Body: body}, nil
}

func (p *parser) parseIf() (ast.Expr, error) {
	at := p.tok.Pos
	p.next() // if
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.KwThen); err != nil {
		return nil, err
	}
	thenE, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.KwElse); err != nil {
		return nil, err
	}
	elseE, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ast.If{Node: ast.Node{At: at, EndAt: elseE.End()}, Cond: cond, Then: thenE, Else: elseE}, nil
}

func (p *parser) parseTry() (ast.Expr, error) {
	at := p.tok.Pos
	p.next() // try
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.KwHandle); err != nil {
		return nil, err
	}
	handler, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	endTok, err := p.expect(token.KwEnd)
	if err != nil {
		return nil, err
	}
	return &ast.Try{Node: ast.Node{At: at, EndAt: endTok.End}, Body: body, Handler: handler}, nil
}

// parseParen disambiguates between unit (), a parenthesized expression
// (e), a sequence (e1; e2; ...), and a tuple (e1, e2, ...).
func (p *parser) parseParen() (ast.Expr, error) {
	at := p.tok.Pos
	p.next() // (
	if p.tok.Kind == token.RParen {
		end := p.tok.End
		p.next()
		return &ast.UnitLit{Node: ast.Node{At: at, EndAt: end}}, nil
	}
	first, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	switch p.tok.Kind {
	case token.RParen:
		p.next()
		return first, nil
	case token.Semi:
		exprs, end, err := p.parseList(first, token.Semi)
		if err != nil {
			return nil, err
		}
		return &ast.Seq{Node: ast.Node{At: at, EndAt: end}, Exprs: exprs}, nil
	case token.Comma:
		elems, end, err := p.parseList(first, token.Comma)
		if err != nil {
			return nil, err
		}
		return &ast.TupleExpr{Node: ast.Node{At: at, EndAt: end}, Elems: elems}, nil
	default:
		return nil, p.errorf(p.tok.Pos, "expected ')', ';' or ',' in parenthesized expression, got %s", p.tok)
	}
}
