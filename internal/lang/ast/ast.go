// Package ast defines the abstract syntax tree for PLAN-P programs and
// the syntax of PLAN-P types.
//
// A program is a sequence of declarations: top-level value bindings,
// (non-recursive) function definitions, and channel definitions. Channel
// functions receive the protocol state, the channel state, and the packet,
// and must evaluate to the pair of new states (the paper's execution
// model, §2).
package ast

import (
	"fmt"
	"strings"

	"planp.dev/planp/internal/lang/token"
	"planp.dev/planp/internal/substrate"
)

// ---------------------------------------------------------------------------
// Types

// Type is the syntax of a PLAN-P type. Types are structural: two types are
// the same iff Equal reports true.
type Type interface {
	fmt.Stringer
	typ()
}

// BaseKind enumerates the built-in scalar and header types.
type BaseKind int

// Base type kinds.
const (
	TInt BaseKind = iota + 1
	TBool
	TString
	TChar
	TUnit
	THost
	TBlob // uninterpreted packet payload
	TIP   // IP header
	TTCP  // TCP header
	TUDP  // UDP header
)

var baseNames = map[BaseKind]string{
	TInt:    "int",
	TBool:   "bool",
	TString: "string",
	TChar:   "char",
	TUnit:   "unit",
	THost:   "host",
	TBlob:   "blob",
	TIP:     "ip",
	TTCP:    "tcp",
	TUDP:    "udp",
}

// BaseTypes maps type names as written in source to their kind.
var BaseTypes = map[string]BaseKind{
	"int": TInt, "bool": TBool, "string": TString, "char": TChar,
	"unit": TUnit, "host": THost, "blob": TBlob,
	"ip": TIP, "tcp": TTCP, "udp": TUDP,
}

// Base is a built-in type such as int or ip.
type Base struct{ Kind BaseKind }

func (Base) typ() {}

func (b Base) String() string { return baseNames[b.Kind] }

// Tuple is a product type t1*t2*...*tn with n >= 2.
type Tuple struct{ Elems []Type }

func (Tuple) typ() {}

func (t Tuple) String() string {
	var b strings.Builder
	b.Grow(t.renderLen())
	t.renderTo(&b)
	return b.String()
}

func (t Tuple) renderLen() int {
	n := max(len(t.Elems)-1, 0) // the '*'s
	for _, e := range t.Elems {
		if _, ok := e.(Tuple); ok {
			n += len("()")
		}
		n += typeLen(e)
	}
	return n
}

// renderTo joins the elements by '*', a tuple element in parentheses.
func (t Tuple) renderTo(b *strings.Builder) {
	for i, e := range t.Elems {
		if i > 0 {
			b.WriteByte('*')
		}
		if _, ok := e.(Tuple); ok {
			b.WriteByte('(')
			writeType(b, e)
			b.WriteByte(')')
		} else {
			writeType(b, e)
		}
	}
}

// Table is a hash table type "(elem) hash_table". Keys are any equality
// type; the element type is the type of stored values.
type Table struct{ Elem Type }

func (Table) typ() {}

func (t Table) String() string {
	var b strings.Builder
	b.Grow(t.renderLen())
	t.renderTo(&b)
	return b.String()
}

func (t Table) renderLen() int { return len("() hash_table") + typeLen(t.Elem) }

func (t Table) renderTo(b *strings.Builder) {
	b.WriteByte('(')
	writeType(b, t.Elem)
	b.WriteString(") hash_table")
}

// List is a homogeneous list type "(elem) list".
type List struct{ Elem Type }

func (List) typ() {}

func (t List) String() string {
	var b strings.Builder
	b.Grow(t.renderLen())
	t.renderTo(&b)
	return b.String()
}

func (t List) renderLen() int { return len("() list") + typeLen(t.Elem) }

func (t List) renderTo(b *strings.Builder) {
	b.WriteByte('(')
	writeType(b, t.Elem)
	b.WriteString(") list")
}

// TypeVar is a variable 'a of a primitive's signature, alone or as a
// table's or list's element, and never in source or on a checked tree.
// A call binds it to one type in its Class.
type TypeVar struct {
	Name  string
	Class Class
}

// Class is the set of types a TypeVar ranges over.
type Class uint8

// Type variable classes.
const (
	ClassAny       Class = iota
	ClassEquality        // IsEquality
	ClassPrintable       // anything but a hash table
	ClassPacket          // a channel packet type (typecheck.ValidatePacketType)
)

func (TypeVar) typ() {}

func (v TypeVar) String() string { return "'" + v.Name }

// typeLen is the length of t's rendering. A compound type's String
// writes its rendering into one string of exactly that length
// (renderLen, then renderTo) and builds no element's rendering apart.
func typeLen(t Type) int {
	switch t := t.(type) {
	case Tuple:
		return t.renderLen()
	case Table:
		return t.renderLen()
	case List:
		return t.renderLen()
	}
	return len(t.String())
}

// writeType writes t's rendering to b.
func writeType(b *strings.Builder, t Type) {
	switch t := t.(type) {
	case Tuple:
		t.renderTo(b)
	case Table:
		t.renderTo(b)
	case List:
		t.renderTo(b)
	default:
		b.WriteString(t.String())
	}
}

// Convenience singletons for the base types.
var (
	IntT    = Base{Kind: TInt}
	BoolT   = Base{Kind: TBool}
	StringT = Base{Kind: TString}
	CharT   = Base{Kind: TChar}
	UnitT   = Base{Kind: TUnit}
	HostT   = Base{Kind: THost}
	BlobT   = Base{Kind: TBlob}
	IPT     = Base{Kind: TIP}
	TCPT    = Base{Kind: TTCP}
	UDPT    = Base{Kind: TUDP}
)

// Equal reports whether two types are structurally identical.
func Equal(a, b Type) bool {
	switch a := a.(type) {
	case Base:
		b, ok := b.(Base)
		return ok && a.Kind == b.Kind
	case Tuple:
		b, ok := b.(Tuple)
		if !ok || len(a.Elems) != len(b.Elems) {
			return false
		}
		for i := range a.Elems {
			if !Equal(a.Elems[i], b.Elems[i]) {
				return false
			}
		}
		return true
	case Table:
		b, ok := b.(Table)
		return ok && Equal(a.Elem, b.Elem)
	case List:
		b, ok := b.(List)
		return ok && Equal(a.Elem, b.Elem)
	default:
		return false
	}
}

// IsEquality reports whether values of type t may be compared with = / <>
// and used as hash-table keys. Tables are mutable references and are not
// equality types; blobs and headers are compared by content.
func IsEquality(t Type) bool {
	switch t := t.(type) {
	case Base:
		return true // all base types (including headers and blobs) support equality
	case Tuple:
		for _, e := range t.Elems {
			if !IsEquality(e) {
				return false
			}
		}
		return true
	case List:
		return IsEquality(t.Elem)
	case Table:
		return false
	default:
		return false
	}
}

// ---------------------------------------------------------------------------
// Expressions

// Expr is a PLAN-P expression node. Pos is the position of its first
// token; End is one column past its last token (the parser fills both,
// and End falls back to Pos on hand-built nodes with no span).
//
// Type is the node's static type: typecheck.Check records it on every
// node it accepts, and the back ends read it instead of re-deriving it.
// It is nil before checking, and always on a ChanRef: the checker
// resolves a send's channel name itself and never types it.
type Expr interface {
	Pos() token.Pos
	End() token.Pos
	Type() Type
	SetType(Type)
	expr()
}

// Node is what every expression node carries: its source span and its
// static type. Embedding it is what makes a struct an Expr.
type Node struct {
	At    token.Pos
	EndAt token.Pos
	typ   Type
}

func (n *Node) Pos() token.Pos { return n.At }
func (n *Node) End() token.Pos { return endOr(n.EndAt, n.At) }
func (n *Node) Type() Type     { return n.typ }
func (n *Node) SetType(t Type) { n.typ = t }
func (*Node) expr()            {}

// endOr returns end when the parser recorded one, else the start
// position, so diagnostics on synthesized nodes still point somewhere.
func endOr(end, at token.Pos) token.Pos {
	if end.IsValid() {
		return end
	}
	return at
}

// IntLit is an integer literal.
type IntLit struct {
	Node
	Value int64
}

// BoolLit is true or false.
type BoolLit struct {
	Node
	Value bool
}

// StringLit is a double-quoted string literal.
type StringLit struct {
	Node
	Value string
}

// CharLit is a character literal.
type CharLit struct {
	Node
	Value byte
}

// UnitLit is the value (), written as an empty parenthesis pair.
type UnitLit struct{ Node }

// HostLit is a dotted-quad IP address literal such as 131.254.60.81.
type HostLit struct {
	Node
	Addr substrate.Addr
	Text string
}

// Var is an identifier reference.
type Var struct {
	Node
	Name string

	// Slot is filled by the type checker: the resolved lexical slot in
	// the flat frame layout, used by the compiled engines. -1 for
	// top-level bindings (resolved through Global).
	Slot   int
	Global int // index into program globals when Slot == -1
}

// Proj is tuple projection "#n e" (1-based, per ML convention).
type Proj struct {
	Node
	Index int // 1-based
	Tuple Expr
}

// Call is a call to a primitive, a user fun, or a channel-valued argument
// position (OnRemote's first argument is a channel name and is treated
// specially by the checker; the send's resolved packet type is
// Args[1].Type()).
type Call struct {
	Node
	Name string
	Args []Expr

	// Resolution, filled by the type checker.
	PrimIndex int // >= 0 when calling a primitive
	FunIndex  int // >= 0 when calling a user fun
}

// ChanRef is a channel name used as an argument to OnRemote/OnNeighbor.
type ChanRef struct {
	Node
	Name string
}

// Let is "let val x1 : t1 = e1 ... in body end".
type Let struct {
	Node
	Binds []LetBind
	Body  Expr
}

// LetBind is one "val x : t = e" binding inside a let.
type LetBind struct {
	Name string
	Type Type
	Init Expr
	Slot int // filled by the checker
}

// If is "if cond then a else b". Both arms are mandatory (expressions,
// not statements).
type If struct {
	Node
	Cond Expr
	Then Expr
	Else Expr
}

// Seq is "(e1; e2; ...; en)" — evaluates all, yields the last.
type Seq struct {
	Node
	Exprs []Expr
}

// TupleExpr is "(e1, e2, ..., en)" with n >= 2.
type TupleExpr struct {
	Node
	Elems []Expr
}

// Unary is "not e" or unary minus.
type Unary struct {
	Node
	Op string // "not" | "-"
	X  Expr
}

// Binary is a binary operation. Op is the source operator: one of
// = <> < <= > >= + - * / mod ^ andalso orelse. A comparison's operand
// type, which picks the engines' comparison routine, is L.Type().
type Binary struct {
	Node
	Op   string
	L, R Expr
}

// Try is "try e handle h end": evaluates e; if any PLAN-P exception is
// raised, evaluates h instead. Both must have the same type.
type Try struct {
	Node
	Body    Expr
	Handler Expr
}

// Raise is "raise s": raises a PLAN-P exception carrying message s.
// A raise expression has any type required by context.
type Raise struct {
	Node
	Msg Expr // must be string
}

// Walk visits e and then every expression below it, in source order.
func Walk(e Expr, visit func(Expr)) {
	visit(e)
	switch e := e.(type) {
	case *Proj:
		Walk(e.Tuple, visit)
	case *Call:
		for _, a := range e.Args {
			Walk(a, visit)
		}
	case *Let:
		for _, b := range e.Binds {
			Walk(b.Init, visit)
		}
		Walk(e.Body, visit)
	case *If:
		Walk(e.Cond, visit)
		Walk(e.Then, visit)
		Walk(e.Else, visit)
	case *Seq:
		for _, sub := range e.Exprs {
			Walk(sub, visit)
		}
	case *TupleExpr:
		for _, sub := range e.Elems {
			Walk(sub, visit)
		}
	case *Unary:
		Walk(e.X, visit)
	case *Binary:
		Walk(e.L, visit)
		Walk(e.R, visit)
	case *Try:
		Walk(e.Body, visit)
		Walk(e.Handler, visit)
	case *Raise:
		Walk(e.Msg, visit)
	}
}

// ---------------------------------------------------------------------------
// Declarations

// Param is a named, typed parameter.
type Param struct {
	Name string
	Type Type
}

// ValDecl is a top-level "val name : type = expr".
type ValDecl struct {
	Name  string
	Type  Type
	Init  Expr
	At    token.Pos
	EndAt token.Pos
}

// FunDecl is "fun name(p1 : t1, ...) : ret = body". Functions are not
// recursive: the body may reference only primitives, previously declared
// vals/funs, and the parameters. This restriction gives PLAN-P local
// termination by construction (§2.1).
type FunDecl struct {
	Name   string
	Params []Param
	Ret    Type
	Body   Expr
	At     token.Pos
	EndAt  token.Pos
}

// ChannelDecl is a channel function:
//
//	channel name(ps : PT, ss : ST, p : PKT) initstate e is body
//
// Channels named "network" apply to all packets whose decoded form matches
// PKT (overloaded channels are multiple network declarations with distinct
// PKT). The body must have type PT*ST.
type ChannelDecl struct {
	Name      string
	Params    []Param // exactly: protocol state, channel state, packet
	InitState Expr    // optional; nil means zero value of ST
	Body      Expr
	At        token.Pos
	EndAt     token.Pos

	// HeaderEnd is one column past the parameter list's closing paren:
	// the span At..HeaderEnd covers the channel's declared interface,
	// which is what signature-compatibility diagnostics point at.
	HeaderEnd token.Pos
}

// ProtoState returns the declared protocol-state type.
func (c *ChannelDecl) ProtoState() Type { return c.Params[0].Type }

// ChanState returns the declared channel-state type.
func (c *ChannelDecl) ChanState() Type { return c.Params[1].Type }

// PacketType returns the declared packet type.
func (c *ChannelDecl) PacketType() Type { return c.Params[2].Type }

// Decl is any top-level declaration.
type Decl interface {
	DeclName() string
	DeclPos() token.Pos
	DeclEnd() token.Pos
}

func (d *ValDecl) DeclName() string     { return d.Name }
func (d *FunDecl) DeclName() string     { return d.Name }
func (d *ChannelDecl) DeclName() string { return d.Name }

func (d *ValDecl) DeclPos() token.Pos     { return d.At }
func (d *FunDecl) DeclPos() token.Pos     { return d.At }
func (d *ChannelDecl) DeclPos() token.Pos { return d.At }

func (d *ValDecl) DeclEnd() token.Pos     { return endOr(d.EndAt, d.At) }
func (d *FunDecl) DeclEnd() token.Pos     { return endOr(d.EndAt, d.At) }
func (d *ChannelDecl) DeclEnd() token.Pos { return endOr(d.EndAt, d.At) }

// Program is a parsed PLAN-P protocol: an ordered list of declarations.
type Program struct {
	Decls []Decl
}

// Channels returns the channel declarations in order.
func (p *Program) Channels() []*ChannelDecl {
	var out []*ChannelDecl
	for _, d := range p.Decls {
		if c, ok := d.(*ChannelDecl); ok {
			out = append(out, c)
		}
	}
	return out
}

// Funs returns the function declarations in order.
func (p *Program) Funs() []*FunDecl {
	var out []*FunDecl
	for _, d := range p.Decls {
		if f, ok := d.(*FunDecl); ok {
			out = append(out, f)
		}
	}
	return out
}

// Vals returns the top-level value declarations in order.
func (p *Program) Vals() []*ValDecl {
	var out []*ValDecl
	for _, d := range p.Decls {
		if v, ok := d.(*ValDecl); ok {
			out = append(out, v)
		}
	}
	return out
}
