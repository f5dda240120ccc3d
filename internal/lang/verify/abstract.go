// Abstract evaluation, and global termination on top of it.
//
// One abstract evaluator reads every body. It walks each channel body
// once, and each fun body once per distinct vector of abstract
// arguments: fun summaries are memoised, and funs call only earlier funs
// and cannot send, so a call is a lookup whose result is what inlining
// the body would compute. For every expression it learns three things
// (a fact): where the hosts it produces came from (global termination),
// whether it may raise an exception it does not handle (delivery), and
// whether it may delete a hash-table entry (which voids tmem guards).
//
// Global termination: exhaustive exploration of an abstract transition
// system, following §2.1's sketch (state space of order r·d^2d, with r
// the number of sends and d the number of destinations available to the
// program — typically just the packet's source and destination).
//
// Abstract hosts track where an address came from: the original packet's
// source (S0) or destination (D0), a program literal, the executing
// node, or unknown (e.g. a hash-table lookup). A send edge "makes
// progress" when the destination is provably the same concrete address
// as before — a pure forward, or a rewrite to the same literal — because
// under acyclic IP routing a packet heading to a fixed destination
// arrives in finitely many hops. A reachable cycle containing any
// non-progress edge means the program may route packets forever, so it
// is rejected.
package verify

import (
	"fmt"

	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/prims"
	"planp.dev/planp/internal/lang/typecheck"
	"planp.dev/planp/internal/lang/value"
)

// ahKind classifies an abstract host.
type ahKind uint8

const (
	ahPSrc    ahKind = iota + 1 // the incoming packet's source
	ahPDst                      // the incoming packet's destination
	ahLit                       // a program literal
	ahThis                      // the executing node's address
	ahUnknown                   // anything (table lookups, arithmetic, ...)
)

// ahost is an abstract host value.
type ahost struct {
	kind ahKind
	lit  value.Host // valid when kind == ahLit
}

// String names a state's address: S0, D0, a literal, or ?.
func (a ahost) String() string {
	switch a.kind {
	case ahPSrc:
		return "S0"
	case ahPDst:
		return "D0"
	case ahLit:
		return a.lit.String()
	default:
		return "?"
	}
}

// aIP abstracts an IP header: its source and destination.
type aIP struct{ src, dst ahost }

// aval is the abstract value lattice for expressions. Only hosts, IP
// headers, and tuples containing them are tracked; everything else is
// aOther.
type aval struct {
	kind  uint8 // 0 other, 1 host, 2 ip, 3 tuple
	host  ahost
	ip    aIP
	elems []aval
}

const (
	avOther = iota
	avHost
	avIP
	avTuple
)

var unknownHost = ahost{kind: ahUnknown}

func joinHost(a, b ahost) ahost {
	if a == b {
		return a
	}
	return unknownHost
}

func (ev *evaluator) joinVal(a, b aval) aval {
	if a.kind != b.kind {
		return aval{kind: avOther}
	}
	switch a.kind {
	case avHost:
		return aval{kind: avHost, host: joinHost(a.host, b.host)}
	case avIP:
		return aval{kind: avIP, ip: aIP{src: joinHost(a.ip.src, b.ip.src), dst: joinHost(a.ip.dst, b.ip.dst)}}
	case avTuple:
		if len(a.elems) != len(b.elems) {
			return aval{kind: avOther}
		}
		elems := ev.alloc(len(a.elems))
		for i := range elems {
			elems[i] = ev.joinVal(a.elems[i], b.elems[i])
		}
		return aval{kind: avTuple, elems: elems}
	default:
		return aval{kind: avOther}
	}
}

// equal reports whether v and w are the same abstract value: the fun
// summaries' memo key.
func (v aval) equal(w aval) bool {
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case avHost:
		return v.host == w.host
	case avIP:
		return v.ip == w.ip
	case avTuple:
		return avalsEqual(v.elems, w.elems)
	}
	return true
}

func avalsEqual(a, b []aval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].equal(b[i]) {
			return false
		}
	}
	return true
}

func hostVal(h ahost) aval { return aval{kind: avHost, host: h} }

func hostOf(v aval) ahost {
	if v.kind == avHost {
		return v.host
	}
	return unknownHost
}

// send records one abstract OnRemote/OnNeighbor site found in a channel.
type send struct {
	targetName string
	ip         aIP // in terms of the incoming packet (pre-substitution)
}

// abstractPacket builds the abstract value of an incoming packet: a
// tuple whose ip component carries the S0/D0 markers.
func (ev *evaluator) abstractPacket(t ast.Type) aval {
	tup, ok := t.(ast.Tuple)
	if !ok {
		return aval{kind: avOther}
	}
	elems := ev.alloc(len(tup.Elems))
	elems[0] = aval{kind: avIP, ip: aIP{src: ahost{kind: ahPSrc}, dst: ahost{kind: ahPDst}}}
	return aval{kind: avTuple, elems: elems}
}

// ---------------------------------------------------------------------------
// The evaluator

// fact is what abstract evaluation learns about one expression.
type fact struct {
	val     aval
	raises  bool // may raise an exception it does not handle
	deletes bool // may delete a hash-table entry, directly or in a fun

	// guard is 1 + the stack index of the outermost tmem guard that a
	// tget in the expression relies on not to raise, or 0. That guard's
	// if settles the reliance. Recording the outermost is enough: a
	// deletion that voids an inner guard lies in the then-branch of every
	// guard around it, so it voids those too.
	guard int
}

// then is f followed by g: both effects, g's value.
func (f fact) then(g fact) fact {
	g.raises = g.raises || f.raises
	g.deletes = g.deletes || f.deletes
	if f.guard != 0 && (g.guard == 0 || f.guard < g.guard) {
		g.guard = f.guard
	}
	return g
}

// guard records a membership fact established by an enclosing
// "if tmem(tbl, key) then ..." test: tget(tbl, key) in the then-branch
// cannot raise. This is the one flow-sensitive refinement the analysis
// needs to accept the paper's own table idiom (figure 2's getSetS).
type guard struct{ tbl, key ast.Expr }

// channelFacts is what evaluating one channel body yields.
type channelFacts struct {
	sends  []send // every send site; both branches of an if are reported
	raises bool
}

// evaluator is the abstract evaluator's state, all of which dies with
// the run: it lives in a pooled workspace (verify.go).
type evaluator struct {
	info      *typecheck.Info
	fun       int     // the fun being summarised; len(info.Funs) in a channel
	frame     []aval  // the body's slots, in avals
	guards    []guard // tmem facts of the enclosing then-branches, outermost first
	guardBase int     // the first of guards the body being evaluated sees
	args      []aval  // a stack of evaluated call arguments
	sends     []send  // every channel's send sites, channel after channel
	chans     []channelFacts
	memo      []summary
	latest    []int // per fun, 1 + the index in memo of its latest summary, or 0
	summaries []int // per fun, its number of summaries

	// avals is the run's arena: frames, tuple elements and memoised
	// arguments are cut from it and never freed before the run ends, so
	// no value's elements are overwritten while something holds them.
	avals []aval
}

// summary is a fun evaluated at one vector of abstract arguments.
type summary struct {
	args []aval
	f    fact
	prev int // index in memo of the same fun's previous summary, or -1
}

// alloc returns n zeroed values from the arena.
func (ev *evaluator) alloc(n int) []aval {
	lo := len(ev.avals)
	ev.avals = append(ev.avals, make([]aval, n)...)
	return ev.avals[lo:len(ev.avals):len(ev.avals)]
}

// evalChannels evaluates every channel body once, sharing fun summaries.
func (ev *evaluator) evalChannels(info *typecheck.Info) []channelFacts {
	ev.info, ev.fun = info, len(info.Funs)
	ev.latest = append(ev.latest[:0], make([]int, len(info.Funs))...)
	ev.summaries = append(ev.summaries[:0], make([]int, len(info.Funs))...)
	ev.chans = append(ev.chans[:0], make([]channelFacts, len(info.Channels))...)
	for i := range info.Channels {
		ch := &info.Channels[i]
		// Parameters: protocol state (other), channel state (other), packet.
		ev.frame = ev.alloc(ch.FrameSize)
		ev.frame[2] = ev.abstractPacket(ch.Decl.PacketType())
		lo := len(ev.sends)
		ev.chans[i].raises = ev.eval(ch.Decl.Body).raises
		ev.chans[i].sends = ev.sends[lo:]
	}
	return ev.chans
}

func (ev *evaluator) eval(e ast.Expr) fact {
	switch e := e.(type) {
	case *ast.HostLit:
		return fact{val: hostVal(ahost{kind: ahLit, lit: e.Addr})}

	case *ast.Var:
		if e.Slot >= 0 {
			return fact{val: ev.frame[e.Slot]}
		}
		// Top-level host literals flow through globals.
		if hl, ok := ev.info.Globals[e.Global].Decl.Init.(*ast.HostLit); ok {
			return fact{val: hostVal(ahost{kind: ahLit, lit: hl.Addr})}
		}
		return fact{}

	case *ast.Proj:
		f := ev.eval(e.Tuple)
		if f.val.kind == avTuple && e.Index-1 < len(f.val.elems) {
			f.val = f.val.elems[e.Index-1]
		} else {
			f.val = aval{}
		}
		return f

	case *ast.Let:
		// Slots are unique within a declaration and written once, so the
		// frame needs no copy or join at branches.
		var f fact
		for i := range e.Binds {
			b := &e.Binds[i]
			init := ev.eval(b.Init)
			ev.frame[b.Slot] = init.val
			f = f.then(init)
		}
		return f.then(ev.eval(e.Body))

	case *ast.If:
		return ev.evalIf(e)

	case *ast.Seq:
		var f fact
		for _, sub := range e.Exprs {
			f = f.then(ev.eval(sub))
		}
		return f

	case *ast.TupleExpr:
		var f fact
		elems := ev.alloc(len(e.Elems))
		for i, sub := range e.Elems {
			s := ev.eval(sub)
			elems[i] = s.val
			f = f.then(s)
		}
		f.val = aval{kind: avTuple, elems: elems}
		return f

	case *ast.Unary:
		return ev.eval(e.X).then(fact{})

	case *ast.Binary:
		// Division raises unless the divisor is a non-zero literal.
		lit, ok := e.R.(*ast.IntLit)
		div := (e.Op == "/" || e.Op == "mod") && (!ok || lit.Value == 0)
		return ev.eval(e.L).then(ev.eval(e.R)).then(fact{raises: div})

	case *ast.Try:
		// The body's exceptions are handled; the handler's are not.
		body := ev.eval(e.Body)
		h := ev.eval(e.Handler)
		h.val = ev.joinVal(body.val, h.val)
		h.deletes = h.deletes || body.deletes
		return h

	case *ast.Raise:
		return ev.eval(e.Msg).then(fact{raises: true})

	case *ast.Call:
		return ev.evalCall(e)

	default:
		return fact{}
	}
}

// evalIf joins the branches. A tmem test in the condition guards the
// then-branch's tgets on the same table and key unless something may
// delete a table entry after the test: in the condition or anywhere in
// the then-branch, directly or through a fun.
func (ev *evaluator) evalIf(e *ast.If) fact {
	cond := ev.eval(e.Cond)
	g, guarded := tmemGuard(e.Cond)
	if guarded {
		ev.guards = append(ev.guards, g)
	}
	then := ev.eval(e.Then)
	if guarded {
		ev.guards = ev.guards[:len(ev.guards)-1]
		if then.guard == len(ev.guards)+1 {
			then.raises = then.raises || cond.deletes || then.deletes
			then.guard = 0
		}
	}
	els := ev.eval(e.Else)
	branches := then.then(els)
	branches.val = ev.joinVal(then.val, els.val)
	return cond.then(branches)
}

func (ev *evaluator) evalCall(e *ast.Call) fact {
	// Sends: record the packet's abstract IP.
	if e.Name == "OnRemote" || e.Name == "OnNeighbor" {
		f := ev.eval(e.Args[1])
		ip := aIP{src: unknownHost, dst: unknownHost}
		if pv := f.val; pv.kind == avTuple && len(pv.elems) > 0 && pv.elems[0].kind == avIP {
			ip = pv.elems[0].ip
		}
		if e.Name == "OnNeighbor" {
			// Link-local flood: the destination header is not used for
			// routing, each neighbor processes it once; treat as a
			// rewrite to unknown so cycles through floods are caught.
			ip.dst = unknownHost
		}
		ev.sends = append(ev.sends, send{targetName: e.Args[0].(*ast.ChanRef).Name, ip: ip})
		return f.then(fact{})
	}

	var f fact
	base := len(ev.args)
	for _, a := range e.Args {
		af := ev.eval(a)
		ev.args = append(ev.args, af.val)
		f = f.then(af)
	}
	args := ev.args[base:]
	switch {
	case e.FunIndex >= 0:
		f = f.then(ev.call(e.FunIndex, args))
	case e.Name == "tdel":
		f.deletes = true
	case e.Name == "tget":
		g := ev.guarding(e)
		f = f.then(fact{raises: g == 0, guard: g})
	case prims.CanRaise(e.PrimIndex) && !safeArgs(ev.info, e):
		f.raises = true
	}
	if e.FunIndex < 0 {
		f.val = primVal(e.Name, args)
	}
	ev.args = ev.args[:base]
	return f
}

// maxSummaries bounds the argument vectors one fun is evaluated at.
// Past it, calls read the fun at all-unknown arguments (aval{}, the
// lattice's top): sound, and verification stays linear in program size
// however many vectors the calls could generate.
const maxSummaries = 16

// call returns the summary of fun fi applied to args, evaluating its
// body the first time it meets this argument vector. A fun that is not
// summarised before the body being evaluated (only a later fun, which
// the checker forbids) reads as unknown, raising and deleting: never as
// recursion.
func (ev *evaluator) call(fi int, args []aval) fact {
	if fi >= ev.fun {
		return fact{raises: true, deletes: true}
	}
	if ev.summaries[fi] >= maxSummaries {
		args = nil
	}
	for i := ev.latest[fi] - 1; i >= 0; i = ev.memo[i].prev {
		if avalsEqual(ev.memo[i].args, args) {
			return ev.memo[i].f
		}
	}
	fun := &ev.info.Funs[fi]
	frame, guardBase, cur := ev.frame, ev.guardBase, ev.fun
	ev.frame, ev.guardBase, ev.fun = ev.alloc(fun.FrameSize), len(ev.guards), fi
	copy(ev.frame, args)
	f := ev.eval(fun.Decl.Body)
	ev.frame, ev.guardBase, ev.fun = frame, guardBase, cur
	kept := ev.alloc(len(args))
	copy(kept, args)
	ev.memo = append(ev.memo, summary{args: kept, f: f, prev: ev.latest[fi] - 1})
	ev.latest[fi] = len(ev.memo)
	ev.summaries[fi]++
	return f
}

// primVal is a primitive's abstract result: header-flow primitives carry
// hosts through, and every other result is unknown.
func primVal(name string, args []aval) aval {
	switch name {
	case "ipSrc":
		if args[0].kind == avIP {
			return hostVal(args[0].ip.src)
		}
	case "ipDst":
		if args[0].kind == avIP {
			return hostVal(args[0].ip.dst)
		}
	case "ipSrcSet":
		if args[0].kind == avIP {
			ip := args[0].ip
			ip.src = hostOf(args[1])
			return aval{kind: avIP, ip: ip}
		}
	case "ipDestSet":
		if args[0].kind == avIP {
			ip := args[0].ip
			ip.dst = hostOf(args[1])
			return aval{kind: avIP, ip: ip}
		}
	case "ipTTLSet", "ipLenSet":
		return args[0] // header otherwise unchanged
	case "mkIP":
		return aval{kind: avIP, ip: aIP{src: hostOf(args[0]), dst: hostOf(args[1])}}
	case "thisHost":
		return hostVal(ahost{kind: ahThis})
	}
	return aval{kind: avOther}
}

// guarding returns 1 + the stack index of the innermost tmem guard over
// tget call e's table and key, or 0.
func (ev *evaluator) guarding(e *ast.Call) int {
	for i := len(ev.guards) - 1; i >= ev.guardBase; i-- {
		if g := ev.guards[i]; exprEqual(g.tbl, e.Args[0]) && exprEqual(g.key, e.Args[1]) {
			return i + 1
		}
	}
	return 0
}

// safeArgs proves that a raising primitive's arguments keep it from
// raising: a non-negative literal capacity, ports and bytes in range.
func safeArgs(info *typecheck.Info, e *ast.Call) bool {
	switch e.Name {
	case "mkTable":
		return inRange(info, e.Args[0], 0, 1<<62)
	case "rand":
		return inRange(info, e.Args[0], 1, 1<<62)
	case "mkUDP":
		return inRange(info, e.Args[0], 0, 65535) && inRange(info, e.Args[1], 0, 65535)
	case "tcpSrcSet", "tcpDstSet", "udpSrcSet", "udpDstSet":
		return inRange(info, e.Args[1], 0, 65535)
	case "mkIP":
		return inRange(info, e.Args[2], 0, 255)
	case "ipTTLSet", "itoc":
		return inRange(info, e.Args[len(e.Args)-1], 0, 255)
	case "intToHost":
		return inRange(info, e.Args[0], 0, 0xFFFFFFFF)
	}
	return false
}

// inRange proves, where syntactically possible, that an int expression
// always evaluates within [lo, hi]: integer literals, top-level vals
// bound to literals, and port accessors (whose results are 16-bit by
// construction). This tiny range analysis is what lets the paper's
// header-building idioms (mkUDP(queryPort, udpSrc(...))) pass the
// guaranteed-delivery check without spurious try wrappers.
func inRange(info *typecheck.Info, e ast.Expr, lo, hi int64) bool {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Value >= lo && e.Value <= hi
	case *ast.Var:
		if e.Global >= 0 && e.Global < len(info.Globals) {
			if lit, ok := info.Globals[e.Global].Decl.Init.(*ast.IntLit); ok {
				return lit.Value >= lo && lit.Value <= hi
			}
		}
		return false
	case *ast.Call:
		switch e.Name {
		case "tcpSrc", "tcpDst", "udpSrc", "udpDst":
			return lo <= 0 && hi >= 65535
		case "ipTTL", "blobByte", "ctoi", "charPos":
			return lo <= 0 && hi >= 255
		}
		return false
	default:
		return false
	}
}

// tmemGuard extracts the membership fact from an if condition: either a
// bare tmem(tbl, key) call or the left conjunct of an andalso chain.
func tmemGuard(cond ast.Expr) (guard, bool) {
	switch cond := cond.(type) {
	case *ast.Call:
		if cond.Name == "tmem" && len(cond.Args) == 2 {
			return guard{tbl: cond.Args[0], key: cond.Args[1]}, true
		}
	case *ast.Binary:
		if cond.Op == "andalso" {
			if g, ok := tmemGuard(cond.L); ok {
				return g, true
			}
			return tmemGuard(cond.R)
		}
	}
	return guard{}, false
}

// exprEqual is syntactic expression equality, used to match guarded
// table/key expressions. Variables match by binding (slot or global,
// unique within a declaration and written once), so a shadowing let
// never matches. Structurally different expressions that denote the
// same value compare unequal. A call matches only when it is a pure
// primitive's (prims.Pure): a fun's body, or a stateful primitive, may
// return another value the second time it is called.
func exprEqual(a, b ast.Expr) bool {
	switch a := a.(type) {
	case *ast.Var:
		b, ok := b.(*ast.Var)
		return ok && a.Slot == b.Slot && a.Global == b.Global
	case *ast.IntLit:
		b, ok := b.(*ast.IntLit)
		return ok && a.Value == b.Value
	case *ast.BoolLit:
		b, ok := b.(*ast.BoolLit)
		return ok && a.Value == b.Value
	case *ast.StringLit:
		b, ok := b.(*ast.StringLit)
		return ok && a.Value == b.Value
	case *ast.CharLit:
		b, ok := b.(*ast.CharLit)
		return ok && a.Value == b.Value
	case *ast.HostLit:
		b, ok := b.(*ast.HostLit)
		return ok && a.Addr == b.Addr
	case *ast.Proj:
		b, ok := b.(*ast.Proj)
		return ok && a.Index == b.Index && exprEqual(a.Tuple, b.Tuple)
	case *ast.TupleExpr:
		b, ok := b.(*ast.TupleExpr)
		return ok && exprsEqual(a.Elems, b.Elems)
	case *ast.Call:
		b, ok := b.(*ast.Call)
		return ok && a.PrimIndex >= 0 && a.PrimIndex == b.PrimIndex && prims.Pure(a.PrimIndex) && exprsEqual(a.Args, b.Args)
	case *ast.Unary:
		b, ok := b.(*ast.Unary)
		return ok && a.Op == b.Op && exprEqual(a.X, b.X)
	case *ast.Binary:
		b, ok := b.(*ast.Binary)
		return ok && a.Op == b.Op && exprEqual(a.L, b.L) && exprEqual(a.R, b.R)
	default:
		return false
	}
}

func exprsEqual(a, b []ast.Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !exprEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// State exploration

// state is one node of the abstract transition system. Its addresses
// are ahosts resolved against the journey so far: S0 and D0 are the
// original packet's, and ahThis never occurs.
type state struct {
	chanIdx  int
	src, dst ahost
}

// substitute resolves an abstract host (in terms of the incoming packet)
// against the current state, and reports whether the result is a local
// delivery (dst == this node) rather than a transmission.
func substitute(a ahost, st state) (ahost, bool) {
	switch a.kind {
	case ahPSrc:
		return st.src, false
	case ahPDst:
		return st.dst, false
	case ahThis:
		// A destination equal to the sending node is delivered locally
		// and never transmitted; as a source it is an address the
		// exploration cannot name.
		return unknownHost, true
	default:
		return a, false // a literal, or unknown
	}
}

// exploreStates builds and explores the transition system from each
// channel's abstract send sites. It returns the number of states visited
// and, when a fatal cycle exists, a human-readable description (empty
// string means proven cycle-free).
func (ws *workspace) exploreStates(info *typecheck.Info, chans []channelFacts) (int, string) {
	g := &ws.graph
	g.reset()
	ws.states, ws.work = ws.states[:0], ws.work[:0]

	// Initial states: every channel can receive a fresh packet whose
	// source and destination are the opaque originals.
	for ci := range info.Channels {
		ws.work = append(ws.work, ws.intern(state{chanIdx: ci, src: ahost{kind: ahPSrc}, dst: ahost{kind: ahPDst}}))
	}

	for len(ws.work) > 0 {
		si := ws.work[len(ws.work)-1]
		ws.work = ws.work[:len(ws.work)-1]
		st := ws.states[si]
		if g.out[si].lo >= 0 {
			continue // already expanded
		}
		// A state's edges are appended together: no other state is
		// expanded meanwhile.
		lo := len(g.edges)
		for _, s := range chans[st.chanIdx].sends {
			dstTok, dstIsLocal := substitute(s.ip.dst, st)
			if dstIsLocal {
				continue // delivered to self, journey ends
			}
			srcTok, _ := substitute(s.ip.src, st)
			// Progress: a pure forward (destination component flows
			// from the incoming destination unchanged), or a rewrite
			// that provably produces the same concrete address.
			progress := s.ip.dst.kind == ahPDst ||
				(dstTok == st.dst && dstTok.kind != ahUnknown)
			for _, target := range info.ChannelsByName(s.targetName) {
				next := state{chanIdx: target.Index, src: srcTok, dst: dstTok}
				ni := ws.intern(next)
				g.edges = append(g.edges, edge{to: ni, changing: !progress})
				if g.out[ni].lo < 0 {
					ws.work = append(ws.work, ni)
				}
			}
		}
		g.out[si] = span{lo, len(g.edges)}
	}

	// A changing edge inside a strongly connected component (including
	// a self-loop) is a potential infinite journey.
	comp := ws.components(g)
	for v, out := range g.out {
		for _, e := range g.edges[out.lo:out.hi] {
			if comp[v] != comp[e.to] || !e.changing {
				continue
			}
			from, to := ws.states[v], ws.states[e.to]
			return len(ws.states), fmt.Sprintf(
				"packet may cycle: channel %s (dst=%s) re-sends via channel %s with rewritten destination %s inside a loop",
				info.Channels[from.chanIdx].Decl.Name, from.dst,
				info.Channels[to.chanIdx].Decl.Name, to.dst)
		}
	}
	return len(ws.states), ""
}

// intern returns st's index, adding it unexpanded if it is new.
func (ws *workspace) intern(st state) int {
	if i, ok := ws.index[st]; ok {
		return i
	}
	i := len(ws.states)
	ws.index[st] = i
	ws.states = append(ws.states, st)
	ws.graph.out = append(ws.graph.out, span{lo: -1})
	return i
}
