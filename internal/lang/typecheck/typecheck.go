// Package typecheck implements the PLAN-P static checker.
//
// Beyond classic monomorphic type checking it performs the structural
// duties the engines rely on: resolving every variable to a frame slot or
// global index, resolving calls to primitive or user-function indices,
// validating packet-type signatures for channel dispatch, and enforcing
// the language restrictions that give PLAN-P its safety properties —
// no recursion, no loops, channels as the only packet-sending context,
// and one shared protocol-state type across all channels (§2, §2.1).
//
// The checker is bidirectional in a limited way: an expected type is
// pushed down through let bindings, if branches, sequence tails, and call
// arguments, which is what lets mkTable(256) and listNew() determine
// their element types exactly as in the paper's listings.
package typecheck

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/diag"
	"planp.dev/planp/internal/lang/prims"
	"planp.dev/planp/internal/lang/token"
)

// Error is the checker's report: every independent type error found in
// one run, each with its source span. Callers that only care about the
// first failure can use First; callers that render reports extract the
// full list through Diagnostics (or diag.Of on a wrapped chain).
type Error struct {
	Diags diag.List
}

// Error renders every diagnostic, one "line:col: type error: msg" per line.
func (e *Error) Error() string {
	parts := make([]string, len(e.Diags))
	for i, d := range e.Diags {
		parts[i] = fmt.Sprintf("%s: type error: %s", d.Pos, d.Msg)
	}
	return strings.Join(parts, "\n")
}

// Diagnostics implements diag.Provider.
func (e *Error) Diagnostics() diag.List { return e.Diags }

// First returns the first diagnostic (the one a pre-multi-error caller
// would have seen).
func (e *Error) First() diag.Diagnostic {
	if len(e.Diags) == 0 {
		return diag.Diagnostic{}
	}
	return e.Diags[0]
}

// Fun is a checked user function.
type Fun struct {
	Decl      *ast.FunDecl
	Index     int        // position in Info.Funs
	FrameSize int        // number of local slots (params + lets)
	params    []ast.Type // Decl's parameter types, which a call checks against
}

// Channel is a checked channel definition.
type Channel struct {
	Decl      *ast.ChannelDecl
	Index     int // position in Info.Channels
	FrameSize int
	// HandsOn reports that every path of the body that completes
	// forwards or delivers the packet (pathFacts, signature.go). The
	// verifier's delivery analysis consumes it.
	HandsOn bool
}

// Global is a checked top-level val binding.
type Global struct {
	Decl      *ast.ValDecl
	Index     int
	FrameSize int // scratch slots needed to evaluate the initializer
}

// Info is the result of checking a program: the typed program plus the
// resolution tables used by every engine and by the verifier.
type Info struct {
	Prog     *ast.Program
	Globals  []Global
	Funs     []Fun
	Channels []Channel

	// ProtoState is the protocol-state type shared by all channels.
	ProtoState ast.Type

	// Sig is the program's channel-interface signature, extracted by the
	// constraint pass once checking succeeds (see signature.go). It is
	// the artifact the runtime caches and the fleet compatibility gate
	// exchanges between nodes.
	Sig *Signature
	// sigDigest is Sig.Digest(), encoded and hashed by the first
	// SigDigest call; every compile-cache hit shares the Info, so each
	// compiled program is digested once.
	sigDigest atomic.Pointer[string]

	// byName maps a channel name to its (possibly overloaded)
	// definitions, in declaration order, as pointers into Channels;
	// packet dispatch reads it per packet.
	byName map[string][]*Channel
}

// SigDigest is Sig.Digest(), computed once per Info. Any number of
// goroutines may call it; racing first callers compute the same string.
func (in *Info) SigDigest() string {
	if d := in.sigDigest.Load(); d != nil {
		return *d
	}
	d := in.Sig.Digest()
	in.sigDigest.Store(&d)
	return d
}

// ChannelsByName returns all checked channels sharing name, in
// declaration order (overloaded channels, §2.3). The slice is the
// Info's own: read it, do not modify it.
func (in *Info) ChannelsByName(name string) []*Channel { return in.byName[name] }

// checker carries the state of one Check run. Its tables die with the
// run, so a finished checker goes back to checkers (release) and the
// next run reuses them; nothing the run returns points into them.
type checker struct {
	info *Info

	// globalIdx and funIdx map a top-level val's or fun's name to its
	// index in info.Globals or info.Funs.
	globalIdx map[string]int
	funIdx    map[string]int

	// diags accumulates every independent error across the staged
	// passes; checking continues past a failed declaration so one run
	// reports as much as possible.
	diags diag.List

	// Current declaration context. binds is the stack of local bindings
	// in scope, innermost last, and inScope the index of each name's
	// innermost one (a lookup is one probe however many names an
	// uploaded program declares); endScope unwinds both to where a let
	// began. A binding below floor is invisible: the floor sits above
	// the channel's parameters while its initstate, which sees globals
	// only, is checked. resetFrame keeps both for the next declaration.
	binds     []binding
	inScope   map[string]int
	floor     int
	nextSlot  int
	frameMax  int
	inChannel bool // OnRemote/OnNeighbor only legal inside channel bodies

	// sends collects a channel body's sends before extractSignature copies
	// them out at their length.
	sends []SendSig
}

// checkers holds the checkers of finished runs.
var checkers sync.Pool

// maxPooled bounds the entries a pooled checker's tables may have held:
// a checker that grew past it on a program far larger than any in-tree
// ASP is dropped, not pooled, since clearing a map costs its capacity
// and every later run would pay for the one huge upload.
const maxPooled = 1 << 10

// newChecker returns a pooled checker, or a new one, for info.
func newChecker(info *Info) *checker {
	c, _ := checkers.Get().(*checker)
	if c == nil {
		c = &checker{globalIdx: map[string]int{}, funIdx: map[string]int{}, inScope: map[string]int{}}
	}
	c.info = info
	return c
}

// release pools c with nothing of its run left in it. A name is in
// inScope only while a binding holds it, so cap(binds) bounds inScope.
func (c *checker) release() {
	if len(c.globalIdx) > maxPooled || len(c.funIdx) > maxPooled || cap(c.binds) > maxPooled || cap(c.sends) > maxPooled {
		return
	}
	clear(c.globalIdx)
	clear(c.funIdx)
	clear(c.inScope)
	clear(c.binds[:cap(c.binds)])
	clear(c.sends[:cap(c.sends)])
	*c = checker{globalIdx: c.globalIdx, funIdx: c.funIdx, inScope: c.inScope, binds: c.binds[:0], sends: c.sends[:0]}
	checkers.Put(c)
}

// report records a declaration-level failure and lets checking continue
// with the next declaration.
func (c *checker) report(err error) {
	if err == nil {
		return
	}
	if ds := diag.Of(err); ds != nil {
		c.diags = append(c.diags, ds...)
		return
	}
	c.diags = append(c.diags, diag.Diagnostic{Msg: err.Error()})
}

type binding struct {
	name string
	slot int
	typ  ast.Type
	prev int // index in binds of the binding this one shadows, or -1
}

func (c *checker) bind(name string, t ast.Type) int {
	slot := c.nextSlot
	c.nextSlot++
	if c.nextSlot > c.frameMax {
		c.frameMax = c.nextSlot
	}
	prev, shadows := c.inScope[name]
	if !shadows {
		prev = -1
	}
	c.inScope[name] = len(c.binds)
	c.binds = append(c.binds, binding{name: name, slot: slot, typ: t, prev: prev})
	return slot
}

func (c *checker) lookup(name string) (binding, bool) {
	if i, ok := c.inScope[name]; ok && i >= c.floor {
		return c.binds[i], true
	}
	return binding{}, false
}

// endScope takes the bindings made since mark (a len(c.binds)) out of
// scope, uncovering what they shadowed.
func (c *checker) endScope(mark int) {
	for i := len(c.binds) - 1; i >= mark; i-- {
		if b := c.binds[i]; b.prev < 0 {
			delete(c.inScope, b.name)
		} else {
			c.inScope[b.name] = b.prev
		}
	}
	c.binds = c.binds[:mark]
}

// bindParams starts a fun's or channel's frame with its parameters.
func (c *checker) bindParams(kind string, d ast.Decl, params []ast.Param) error {
	c.resetFrame()
	for _, p := range params {
		if _, dup := c.lookup(p.Name); dup {
			return errf(d.DeclPos(), "%s %s: duplicate parameter %s", kind, d.DeclName(), p.Name)
		}
		c.bind(p.Name, p.Type)
	}
	return nil
}

func errf(pos token.Pos, format string, args ...any) error {
	return &Error{Diags: diag.List{{Pos: pos, Msg: fmt.Sprintf(format, args...)}}}
}

// errSpan is errf carrying a full source span (pos up to, not
// including, end).
func errSpan(pos, end token.Pos, format string, args ...any) error {
	return &Error{Diags: diag.List{{Pos: pos, End: end, Msg: fmt.Sprintf(format, args...)}}}
}

// Check type-checks a parsed program and returns the resolution info.
// The input AST is annotated in place: slots, call indices, and every
// expression's static type (ast.Expr.Type).
//
// Checking runs in three staged passes:
//
//  1. Declarations — every channel header is registered (packet type
//     validated, overloads deduplicated, the shared protocol-state type
//     unified) so bodies can send to any channel, including the one
//     being defined (OnRemote is a recursive call on a remote machine,
//     §2.1) and channels declared later (the MPEG monitor forwards to
//     the client channel).
//
//  2. Inference — declarations are checked in order (vals and funs may
//     only reference names declared before them: no recursion — local
//     termination by construction). A failed declaration no longer
//     aborts the run: its error is recorded, its name stays bound at
//     the declared type to suppress cascading "undefined name" noise,
//     and checking proceeds with the next declaration.
//
//  3. Constraints — whole-program requirements (at least one channel)
//     and, on success, extraction of the channel-interface Signature.
//
// On failure the returned error is an *Error carrying every diagnostic
// found, in source order.
func Check(prog *ast.Program) (*Info, error) {
	// The tables are sized from the declarations, so they grow in place
	// and a pointer into Channels (byName's) stays valid.
	var vals, funs, chans int
	for _, d := range prog.Decls {
		switch d.(type) {
		case *ast.ValDecl:
			vals++
		case *ast.FunDecl:
			funs++
		case *ast.ChannelDecl:
			chans++
		}
	}
	info := &Info{
		Prog:     prog,
		Globals:  make([]Global, 0, vals),
		Funs:     make([]Fun, 0, funs),
		Channels: make([]Channel, 0, chans),
		byName:   make(map[string][]*Channel, chans),
	}
	c := newChecker(info)
	defer c.release()

	// Pass 1: declarations.
	for _, d := range prog.Decls {
		if ch, ok := d.(*ast.ChannelDecl); ok {
			c.report(c.registerChannel(ch))
		}
	}

	// Pass 2: inference.
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *ast.ValDecl:
			c.report(c.checkValDecl(d))
		case *ast.FunDecl:
			c.report(c.checkFunDecl(d))
		case *ast.ChannelDecl:
			c.report(c.checkChannelDecl(d))
		default:
			c.report(errf(d.DeclPos(), "unknown declaration kind"))
		}
	}

	// Pass 3: constraints.
	if len(info.Channels) == 0 && len(c.diags) == 0 {
		c.report(errf(prog.Decls[0].DeclPos(), "program defines no channels"))
	}
	if len(c.diags) > 0 {
		return nil, &Error{Diags: c.diags}
	}
	info.Sig = c.extractSignature()
	return info, nil
}

func (c *checker) declared(name string, pos token.Pos) error {
	if _, ok := c.globalIdx[name]; ok {
		return errf(pos, "%s redeclares a top-level val", name)
	}
	if _, ok := c.funIdx[name]; ok {
		return errf(pos, "%s redeclares a fun", name)
	}
	if prims.Lookup(name) >= 0 {
		return errf(pos, "%s shadows a primitive", name)
	}
	if len(c.info.byName[name]) > 0 {
		return errf(pos, "%s conflicts with a channel of the same name", name)
	}
	return nil
}

func (c *checker) checkValDecl(d *ast.ValDecl) error {
	if err := c.declared(d.Name, d.At); err != nil {
		return err
	}
	c.resetFrame()
	got, err := c.checkExpr(d.Init, d.Type)
	if err == nil && !ast.Equal(got, d.Type) {
		err = errSpan(d.Init.Pos(), d.Init.End(), "val %s declared %s but initializer has type %s", d.Name, d.Type, got)
	}
	// Register the name even when the initializer failed: the declared
	// type is still trustworthy, and keeping the binding suppresses
	// cascading "undefined name" errors in later declarations.
	c.globalIdx[d.Name] = len(c.info.Globals)
	c.info.Globals = append(c.info.Globals, Global{Decl: d, Index: len(c.info.Globals), FrameSize: c.frameMax})
	return err
}

func (c *checker) checkFunDecl(d *ast.FunDecl) error {
	if err := c.declared(d.Name, d.At); err != nil {
		return err
	}
	if err := c.bindParams("fun", d, d.Params); err != nil {
		return err
	}
	got, err := c.checkExpr(d.Body, d.Ret)
	if err == nil && !ast.Equal(got, d.Ret) {
		err = errSpan(d.Body.Pos(), d.Body.End(), "fun %s declared to return %s but body has type %s", d.Name, d.Ret, got)
	}
	// As with vals, a failed body does not unbind the fun: callers are
	// checked against the declared signature.
	params := make([]ast.Type, len(d.Params))
	for i, p := range d.Params {
		params[i] = p.Type
	}
	idx := len(c.info.Funs)
	c.funIdx[d.Name] = idx
	c.info.Funs = append(c.info.Funs, Fun{Decl: d, Index: idx, FrameSize: c.frameMax, params: params})
	return err
}

// registerChannel records a channel's signature (pass 1) so sends can
// resolve it before its body is checked.
func (c *checker) registerChannel(d *ast.ChannelDecl) error {
	if prims.Lookup(d.Name) >= 0 {
		return errf(d.At, "channel %s shadows a primitive", d.Name)
	}
	pktType := d.PacketType()
	if err := ValidatePacketType(pktType); err != nil {
		return errSpan(d.At, d.HeaderEnd, "channel %s: %v", d.Name, err)
	}
	// Overloads of the same channel name must have distinct packet types
	// (otherwise dispatch is ambiguous).
	for _, prev := range c.info.byName[d.Name] {
		if ast.Equal(prev.Decl.PacketType(), pktType) {
			return errSpan(d.At, d.HeaderEnd, "channel %s redefined with the same packet type %s", d.Name, pktType)
		}
	}
	// The protocol state is shared between all channels (§2): every
	// channel must declare the identical protocol-state type.
	if c.info.ProtoState == nil {
		c.info.ProtoState = d.ProtoState()
	} else if !ast.Equal(c.info.ProtoState, d.ProtoState()) {
		return errSpan(d.At, d.HeaderEnd, "channel %s declares protocol state %s but earlier channels declared %s (the protocol state is shared)",
			d.Name, d.ProtoState(), c.info.ProtoState)
	}
	idx := len(c.info.Channels)
	c.info.Channels = append(c.info.Channels, Channel{Decl: d, Index: idx})
	c.info.byName[d.Name] = append(c.info.byName[d.Name], &c.info.Channels[idx])
	return nil
}

func (c *checker) checkChannelDecl(d *ast.ChannelDecl) error {
	if _, ok := c.funIdx[d.Name]; ok {
		return errf(d.At, "channel %s conflicts with a fun of the same name", d.Name)
	}
	if err := c.bindParams("channel", d, d.Params); err != nil {
		return err
	}

	// initstate is evaluated outside the channel frame, but it may use
	// globals; it must produce the channel-state type.
	if d.InitState != nil {
		c.floor = len(c.binds)
		got, err := c.checkExpr(d.InitState, d.ChanState())
		c.floor = 0
		if err != nil {
			return err
		}
		if !ast.Equal(got, d.ChanState()) {
			return errf(d.At, "channel %s: initstate has type %s, want channel state type %s", d.Name, got, d.ChanState())
		}
	} else if _, isTable := d.ChanState().(ast.Table); isTable {
		return errf(d.At, "channel %s: hash_table channel state requires an initstate clause", d.Name)
	}

	want := ast.Tuple{Elems: []ast.Type{d.ProtoState(), d.ChanState()}}
	c.inChannel = true
	got, err := c.checkExpr(d.Body, want)
	c.inChannel = false
	if err != nil {
		return err
	}
	if !ast.Equal(got, want) {
		return errSpan(d.At, d.HeaderEnd, "channel %s: body has type %s, want %s (new protocol state, new channel state)", d.Name, got, want)
	}
	// Fill in the frame size on the entry registered in pass 1.
	for _, ch := range c.info.byName[d.Name] {
		if ch.Decl == d {
			ch.FrameSize = c.frameMax
			break
		}
	}
	return nil
}

func (c *checker) resetFrame() {
	c.binds = c.binds[:0]
	clear(c.inScope)
	c.floor = 0
	c.nextSlot = 0
	c.frameMax = 0
}

// ValidatePacketType checks that t is a legal channel packet type: a
// tuple beginning with an ip header, optionally followed by a tcp or udp
// header, followed by payload components — scalars decodable from bytes,
// with blob allowed only in the final position (it absorbs the rest of
// the payload).
func ValidatePacketType(t ast.Type) error {
	tup, ok := t.(ast.Tuple)
	if !ok {
		return fmt.Errorf("packet type must be a tuple starting with ip, got %s", t)
	}
	if !ast.Equal(tup.Elems[0], ast.IPT) {
		return fmt.Errorf("packet type must start with ip, got %s", t)
	}
	rest := tup.Elems[1:]
	if len(rest) > 0 && (ast.Equal(rest[0], ast.TCPT) || ast.Equal(rest[0], ast.UDPT)) {
		rest = rest[1:]
	}
	for i, e := range rest {
		switch e := e.(type) {
		case ast.Base:
			switch e.Kind {
			case ast.TBlob:
				if i != len(rest)-1 {
					return fmt.Errorf("blob may only appear as the final payload component in %s", t)
				}
			case ast.TChar, ast.TInt, ast.TBool, ast.THost, ast.TString:
				// decodable scalar
			default:
				return fmt.Errorf("%s is not a decodable payload component in packet type %s", e, t)
			}
		default:
			return fmt.Errorf("%s is not a decodable payload component in packet type %s", e, t)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Expressions

// checkExpr type-checks e, with expected as the (possibly nil) type
// required by context, records e's type on the node and returns it. This
// is the one place a type is written to the tree.
func (c *checker) checkExpr(e ast.Expr, expected ast.Type) (ast.Type, error) {
	t, err := c.infer(e, expected)
	if err == nil {
		e.SetType(t)
	}
	return t, err
}

func (c *checker) infer(e ast.Expr, expected ast.Type) (ast.Type, error) {
	switch e := e.(type) {
	case *ast.IntLit:
		return ast.IntT, nil
	case *ast.BoolLit:
		return ast.BoolT, nil
	case *ast.StringLit:
		return ast.StringT, nil
	case *ast.CharLit:
		return ast.CharT, nil
	case *ast.UnitLit:
		return ast.UnitT, nil
	case *ast.HostLit:
		return ast.HostT, nil

	case *ast.Var:
		if b, ok := c.lookup(e.Name); ok {
			e.Slot, e.Global = b.slot, -1
			return b.typ, nil
		}
		if gi, ok := c.globalIdx[e.Name]; ok {
			e.Slot, e.Global = -1, gi
			return c.info.Globals[gi].Decl.Type, nil
		}
		if _, ok := c.funIdx[e.Name]; ok {
			return nil, errf(e.At, "%s is a fun; funs are not first-class values", e.Name)
		}
		if len(c.info.byName[e.Name]) > 0 {
			return nil, errf(e.At, "%s is a channel; channels may only appear as the first argument of OnRemote/OnNeighbor", e.Name)
		}
		return nil, errSpan(e.At, e.End(), "undefined name %s", e.Name)

	case *ast.Proj:
		tt, err := c.checkExpr(e.Tuple, nil)
		if err != nil {
			return nil, err
		}
		tup, ok := tt.(ast.Tuple)
		if !ok {
			return nil, errf(e.At, "#%d applied to non-tuple type %s", e.Index, tt)
		}
		if e.Index > len(tup.Elems) {
			return nil, errf(e.At, "#%d out of range for %d-tuple %s", e.Index, len(tup.Elems), tup)
		}
		return tup.Elems[e.Index-1], nil

	case *ast.Let:
		// The names go out of scope after the body. (An error abandons
		// the declaration, and the next one starts from resetFrame.)
		mark := len(c.binds)
		for i := range e.Binds {
			b := &e.Binds[i]
			got, err := c.checkExpr(b.Init, b.Type)
			if err != nil {
				return nil, err
			}
			if !ast.Equal(got, b.Type) {
				return nil, errSpan(b.Init.Pos(), b.Init.End(), "val %s declared %s but initializer has type %s", b.Name, b.Type, got)
			}
			b.Slot = c.bind(b.Name, b.Type)
		}
		t, err := c.checkExpr(e.Body, expected)
		c.endScope(mark)
		return t, err

	case *ast.If:
		ct, err := c.checkExpr(e.Cond, ast.BoolT)
		if err != nil {
			return nil, err
		}
		if !ast.Equal(ct, ast.BoolT) {
			return nil, errf(e.At, "if condition has type %s, want bool", ct)
		}
		tt, err := c.checkExpr(e.Then, expected)
		if err != nil {
			return nil, err
		}
		et, err := c.checkExpr(e.Else, tt)
		if err != nil {
			return nil, err
		}
		if !ast.Equal(tt, et) {
			return nil, errf(e.At, "if branches have different types: %s vs %s", tt, et)
		}
		return tt, nil

	case *ast.Seq:
		for _, sub := range e.Exprs[:len(e.Exprs)-1] {
			if _, err := c.checkExpr(sub, nil); err != nil {
				return nil, err
			}
		}
		return c.checkExpr(e.Exprs[len(e.Exprs)-1], expected)

	case *ast.TupleExpr:
		var expectedElems []ast.Type
		if tup, ok := expected.(ast.Tuple); ok && len(tup.Elems) == len(e.Elems) {
			expectedElems = tup.Elems
		}
		elems := make([]ast.Type, len(e.Elems))
		for i, sub := range e.Elems {
			var exp ast.Type
			if expectedElems != nil {
				exp = expectedElems[i]
			}
			t, err := c.checkExpr(sub, exp)
			if err != nil {
				return nil, err
			}
			elems[i] = t
		}
		return ast.Tuple{Elems: elems}, nil

	case *ast.Unary:
		xt, err := c.checkExpr(e.X, nil)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "not":
			if !ast.Equal(xt, ast.BoolT) {
				return nil, errf(e.At, "not applied to %s, want bool", xt)
			}
			return ast.BoolT, nil
		case "-":
			if !ast.Equal(xt, ast.IntT) {
				return nil, errf(e.At, "unary - applied to %s, want int", xt)
			}
			return ast.IntT, nil
		default:
			return nil, errf(e.At, "unknown unary operator %s", e.Op)
		}

	case *ast.Binary:
		return c.checkBinary(e)

	case *ast.Try:
		bt, err := c.checkExpr(e.Body, expected)
		if err != nil {
			return nil, err
		}
		ht, err := c.checkExpr(e.Handler, bt)
		if err != nil {
			return nil, err
		}
		if !ast.Equal(bt, ht) {
			return nil, errf(e.At, "try body has type %s but handler has type %s", bt, ht)
		}
		return bt, nil

	case *ast.Raise:
		mt, err := c.checkExpr(e.Msg, ast.StringT)
		if err != nil {
			return nil, err
		}
		if !ast.Equal(mt, ast.StringT) {
			return nil, errf(e.At, "raise takes a string message, got %s", mt)
		}
		if expected != nil {
			return expected, nil
		}
		return ast.UnitT, nil

	case *ast.Call:
		return c.checkCall(e, expected)

	case *ast.ChanRef:
		return nil, errf(e.At, "channel reference %s outside OnRemote/OnNeighbor", e.Name)

	default:
		return nil, errf(e.Pos(), "unhandled expression kind %T", e)
	}
}

func (c *checker) checkBinary(e *ast.Binary) (ast.Type, error) {
	switch e.Op {
	case "andalso", "orelse":
		lt, err := c.checkExpr(e.L, ast.BoolT)
		if err != nil {
			return nil, err
		}
		rt, err := c.checkExpr(e.R, ast.BoolT)
		if err != nil {
			return nil, err
		}
		if !ast.Equal(lt, ast.BoolT) || !ast.Equal(rt, ast.BoolT) {
			return nil, errSpan(e.At, e.End(), "%s requires bool operands, got %s and %s", e.Op, lt, rt)
		}
		return ast.BoolT, nil

	case "+", "-", "*", "/", "mod":
		lt, err := c.checkExpr(e.L, ast.IntT)
		if err != nil {
			return nil, err
		}
		rt, err := c.checkExpr(e.R, ast.IntT)
		if err != nil {
			return nil, err
		}
		if !ast.Equal(lt, ast.IntT) || !ast.Equal(rt, ast.IntT) {
			return nil, errSpan(e.At, e.End(), "%s requires int operands, got %s and %s", e.Op, lt, rt)
		}
		return ast.IntT, nil

	case "^":
		lt, err := c.checkExpr(e.L, ast.StringT)
		if err != nil {
			return nil, err
		}
		rt, err := c.checkExpr(e.R, ast.StringT)
		if err != nil {
			return nil, err
		}
		if !ast.Equal(lt, ast.StringT) || !ast.Equal(rt, ast.StringT) {
			return nil, errSpan(e.At, e.End(), "^ requires string operands, got %s and %s", lt, rt)
		}
		return ast.StringT, nil

	case "<", "<=", ">", ">=":
		lt, err := c.checkExpr(e.L, nil)
		if err != nil {
			return nil, err
		}
		rt, err := c.checkExpr(e.R, lt)
		if err != nil {
			return nil, err
		}
		if !ast.Equal(lt, rt) {
			return nil, errSpan(e.At, e.End(), "%s requires operands of the same type, got %s and %s", e.Op, lt, rt)
		}
		if !ast.Equal(lt, ast.IntT) && !ast.Equal(lt, ast.StringT) && !ast.Equal(lt, ast.CharT) {
			return nil, errSpan(e.At, e.End(), "%s is not defined on %s", e.Op, lt)
		}
		return ast.BoolT, nil

	case "=", "<>":
		lt, err := c.checkExpr(e.L, nil)
		if err != nil {
			return nil, err
		}
		rt, err := c.checkExpr(e.R, lt)
		if err != nil {
			return nil, err
		}
		if !ast.Equal(lt, rt) {
			return nil, errSpan(e.At, e.End(), "%s compares operands of different types: %s vs %s", e.Op, lt, rt)
		}
		if _, isTable := lt.(ast.Table); isTable {
			return nil, errSpan(e.At, e.End(), "hash tables cannot be compared with %s", e.Op)
		}
		if !ast.IsEquality(lt) {
			return nil, errSpan(e.At, e.End(), "%s contains a hash table and cannot be compared with %s", lt, e.Op)
		}
		return ast.BoolT, nil

	default:
		return nil, errf(e.At, "unknown operator %s", e.Op)
	}
}

// sendPrims are the network-effecting pseudo-primitives handled directly
// by the checker and the engines.
var sendPrims = map[string]bool{"OnRemote": true, "OnNeighbor": true}

// checkCall checks a call to a fun or a primitive by one rule: arity,
// then each argument against its parameter, then the result. A type
// variable of a primitive's signature is bound by the first argument
// that meets it, and an argument is checked expecting its parameter as
// the bindings so far resolve it (cons(x, listNew()) types the list
// from x); a result variable no argument binds takes the expected type.
func (c *checker) checkCall(e *ast.Call, expected ast.Type) (ast.Type, error) {
	if sendPrims[e.Name] {
		return c.checkSend(e)
	}
	fi, pi := -1, prims.Lookup(e.Name)
	var params []ast.Type
	var ret ast.Type
	if i, ok := c.funIdx[e.Name]; ok {
		fi, params, ret = i, c.info.Funs[i].params, c.info.Funs[i].Decl.Ret
	} else if pi >= 0 {
		params, ret = prims.Get(pi).Params, prims.Get(pi).Ret
	} else if len(c.info.byName[e.Name]) > 0 {
		return nil, errf(e.At, "channel %s cannot be called directly; use OnRemote(%s, pkt)", e.Name, e.Name)
	} else {
		return nil, errf(e.At, "undefined function %s", e.Name)
	}
	if len(e.Args) != len(params) {
		return nil, errSpan(e.At, e.End(), "%s expects %d argument(s), got %d", e.Name, len(params), len(e.Args))
	}
	var vars typeVars
	for i, arg := range e.Args {
		got, err := c.checkExpr(arg, vars.subst(params[i]))
		if err != nil {
			return nil, err
		}
		if err = vars.match(params[i], got, i+1, "type"); err != nil {
			want := vars.subst(params[i])
			if want == nil {
				want = params[i]
			}
			var m mismatch
			if errors.As(err, &m) {
				err = fmt.Errorf("expected %s, got %s%s", want, got, m)
			}
			return nil, errSpan(e.At, e.End(), "%s argument %d: %v", e.Name, i+1, err)
		}
	}
	e.FunIndex, e.PrimIndex = fi, pi
	if t := vars.subst(ret); t != nil {
		return t, nil
	}
	if expected == nil || vars.match(ret, expected, 0, "") != nil {
		return nil, errSpan(e.At, e.End(), "cannot infer %s's result type %s here; call %s where that type is expected", e.Name, ret, e.Name)
	}
	return expected, nil
}

// typeVars are the variables one call has bound: a signature has at
// most two ('a and 'k), so they fit an array in the caller's frame.
type typeVars struct {
	n     int
	bound [2]typeBinding
}

// typeBinding binds v to t, the type (or element type: what says) of
// argument arg, from 1.
type typeBinding struct {
	v    ast.TypeVar
	t    ast.Type
	arg  int
	what string
}

// mismatch is match's refusal of a type that does not fit the parameter,
// with a note naming the binding it conflicts with, if it does.
type mismatch string

func (m mismatch) Error() string { return string(m) }

// find returns v's binding, whose t is nil while v is unbound.
func (vs *typeVars) find(v ast.TypeVar) typeBinding {
	for _, b := range vs.bound[:vs.n] {
		if b.v.Name == v.Name {
			return b
		}
	}
	return typeBinding{}
}

// subst returns t with its variables replaced by their bindings, or nil
// while one is unbound. A variable stands alone or as an element type
// (TestPrimitiveSignatures holds every signature to that).
func (vs *typeVars) subst(t ast.Type) ast.Type {
	switch t := t.(type) {
	case ast.TypeVar:
		return vs.find(t).t
	case ast.Table:
		if v, ok := t.Elem.(ast.TypeVar); ok {
			if e := vs.find(v).t; e != nil {
				return ast.Table{Elem: e}
			}
			return nil
		}
	case ast.List:
		if v, ok := t.Elem.(ast.TypeVar); ok {
			if e := vs.find(v).t; e != nil {
				return ast.List{Elem: e}
			}
			return nil
		}
	}
	return t
}

// match checks got, the type of argument arg, against param, binding a
// variable the first time it meets one; what names param's place in
// the argument. Its refusal is a mismatch, or why got is not in the
// variable's class.
func (vs *typeVars) match(param, got ast.Type, arg int, what string) error {
	switch p := param.(type) {
	case ast.TypeVar:
		if b := vs.find(p); b.t != nil {
			if ast.Equal(b.t, got) {
				return nil
			}
			return mismatch(fmt.Sprintf(" (%s is the %s of argument %d)", p, b.what, b.arg))
		}
		if err := inClass(p.Class, got); err != nil {
			return err
		}
		vs.bound[vs.n] = typeBinding{v: p, t: got, arg: arg, what: what}
		vs.n++
		return nil
	case ast.Table:
		if g, ok := got.(ast.Table); ok {
			return vs.match(p.Elem, g.Elem, arg, "element type")
		}
	case ast.List:
		if g, ok := got.(ast.List); ok {
			return vs.match(p.Elem, g.Elem, arg, "element type")
		}
	default:
		if ast.Equal(param, got) {
			return nil
		}
	}
	return mismatch("")
}

// inClass returns why t is not in class c, or nil.
func inClass(c ast.Class, t ast.Type) error {
	_, isTable := t.(ast.Table)
	switch {
	case c == ast.ClassEquality && !ast.IsEquality(t):
		return fmt.Errorf("%s is not an equality type", t)
	case c == ast.ClassPrintable && isTable:
		return fmt.Errorf("%s is not printable", t)
	case c == ast.ClassPacket:
		return ValidatePacketType(t)
	}
	return nil
}

// checkSend validates OnRemote(chan, pkt) / OnNeighbor(chan, pkt): the
// first argument must name a channel and the packet expression's type
// must match the packet type of (one of) the channel's definitions.
func (c *checker) checkSend(e *ast.Call) (ast.Type, error) {
	if !c.inChannel {
		return nil, errf(e.At, "%s may only be used inside a channel body", e.Name)
	}
	if len(e.Args) != 2 {
		return nil, errf(e.At, "%s expects (channel, packet)", e.Name)
	}
	v, ok := e.Args[0].(*ast.Var)
	var cref *ast.ChanRef
	if ok {
		cref = &ast.ChanRef{Node: ast.Node{At: v.At}, Name: v.Name}
	} else if r, isRef := e.Args[0].(*ast.ChanRef); isRef {
		cref = r
	} else {
		return nil, errf(e.At, "%s: first argument must be a channel name", e.Name)
	}
	cands := c.info.byName[cref.Name]
	if len(cands) == 0 {
		return nil, errf(e.At, "%s: %s is not a declared channel", e.Name, cref.Name)
	}
	e.Args[0] = cref

	pktT, err := c.checkExpr(e.Args[1], cands[0].Decl.PacketType())
	if err != nil {
		return nil, err
	}
	matched := false
	for _, ch := range cands {
		if ast.Equal(pktT, ch.Decl.PacketType()) {
			matched = true
			break
		}
	}
	if !matched {
		return nil, errSpan(e.At, e.End(), "%s: packet type %s matches no definition of channel %s", e.Name, pktT, cref.Name)
	}
	e.PrimIndex, e.FunIndex = -1, -1
	return ast.UnitT, nil
}
