// Package verify implements the PLAN-P safety analyses of §2.1:
//
//   - Local termination — guaranteed by construction (no recursion, no
//     loops); the verifier re-validates the construction invariants.
//   - Global termination — packets do not cycle in the network, proven
//     by exhaustive exploration of an abstract transition system over
//     (channel, abstract source, abstract destination) states, under the
//     paper's assumption that IP routing tables are acyclic.
//   - Guaranteed delivery — every packet is delivered: the program does
//     not cycle, handles all exceptions, and forwards or delivers on
//     every execution path.
//   - Safe (linear) duplication — packets are not duplicated
//     exponentially: no channel that copies packets sits on a cycle of
//     the channel send graph (a fix-point computation, as in the paper).
//
// All analyses are conservative: they may reject a correct protocol
// (the paper gives mobile-host forwarding and multicast as examples)
// but never accept one that violates the property.
package verify

import (
	"fmt"
	"strings"

	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/diag"
	"planp.dev/planp/internal/lang/prims"
	"planp.dev/planp/internal/lang/token"
	"planp.dev/planp/internal/lang/typecheck"
)

// Check is the outcome of one analysis.
type Check struct {
	Name   string
	OK     bool
	Detail string // reason when !OK; short confirmation when OK

	// Pos..End anchors a failure at the offending construct (usually a
	// channel header); both are zero when the failure has no single
	// source location (e.g. a cycle through several channels).
	Pos token.Pos
	End token.Pos
}

// Error is a failed verification: the subset of checks that did not
// pass, with their source anchors.
type Error struct {
	Fails []Check
}

// Error keeps the historical "verification failed: name: detail; ..."
// rendering.
func (e *Error) Error() string {
	parts := make([]string, len(e.Fails))
	for i, c := range e.Fails {
		parts[i] = fmt.Sprintf("%s: %s", c.Name, c.Detail)
	}
	return "verification failed: " + strings.Join(parts, "; ")
}

// Diagnostics implements diag.Provider.
func (e *Error) Diagnostics() diag.List {
	out := make(diag.List, len(e.Fails))
	for i, c := range e.Fails {
		out[i] = diag.Diagnostic{Pos: c.Pos, End: c.End, Msg: fmt.Sprintf("%s: %s", c.Name, c.Detail)}
	}
	return out
}

// Result bundles the four safety analyses.
type Result struct {
	LocalTermination  Check
	GlobalTermination Check
	Delivery          Check
	Duplication       Check
}

// AllOK reports whether every analysis passed.
func (r *Result) AllOK() bool {
	return r.LocalTermination.OK && r.GlobalTermination.OK && r.Delivery.OK && r.Duplication.OK
}

// Err returns nil if all checks passed, or an error naming the failed
// analyses. Runtimes use this for the paper's late-checking step: a
// downloaded protocol that fails verification is rejected unless the
// download is authenticated as privileged.
func (r *Result) Err() error {
	if r.AllOK() {
		return nil
	}
	var fails []Check
	for _, c := range []Check{r.LocalTermination, r.GlobalTermination, r.Delivery, r.Duplication} {
		if !c.OK {
			fails = append(fails, c)
		}
	}
	return &Error{Fails: fails}
}

// String renders a verification report.
func (r *Result) String() string {
	var sb strings.Builder
	for _, c := range []Check{r.LocalTermination, r.GlobalTermination, r.Delivery, r.Duplication} {
		status := "PASS"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(&sb, "%-20s %s  %s\n", c.Name, status, c.Detail)
	}
	return sb.String()
}

// Options configure verification for the intended deployment.
type Options struct {
	// SingleNode declares that the protocol will be downloaded onto a
	// single node (e.g. the HTTP cluster gateway of §3.2) rather than
	// spread across routers. Packets it sends are then never
	// reprocessed by the same program, so global termination holds
	// trivially. The runtime enforces the declaration by refusing to
	// install single-node-verified protocols on more than one node.
	SingleNode bool
}

// Verify runs all four analyses on a checked program under the default
// network-wide deployment assumption.
func Verify(info *typecheck.Info) *Result { return VerifyWith(info, Options{}) }

// VerifyWith runs the analyses under explicit deployment options.
func VerifyWith(info *typecheck.Info, opts Options) *Result {
	r := &Result{}
	r.LocalTermination = localTermination(info)
	if opts.SingleNode {
		r.GlobalTermination = Check{Name: "global-termination", OK: true,
			Detail: "single-node deployment: each packet is processed by this program at most once"}
	} else {
		states, cycleDetail := exploreStates(info)
		if cycleDetail == "" {
			r.GlobalTermination = Check{Name: "global-termination", OK: true,
				Detail: fmt.Sprintf("no cycle in %d abstract states", states)}
		} else {
			r.GlobalTermination = Check{Name: "global-termination", OK: false, Detail: cycleDetail}
		}
	}
	r.Delivery = delivery(info, r.GlobalTermination.OK)
	r.Duplication = duplication(info)
	return r
}

// ---------------------------------------------------------------------------
// Local termination

// localTermination re-validates the construction invariants the checker
// enforces: the fun call graph references strictly earlier funs (no
// recursion) and the AST contains no looping construct (there is none in
// the grammar; this guards against future extensions violating it).
func localTermination(info *typecheck.Info) Check {
	for i := range info.Funs {
		f := &info.Funs[i]
		bad := false
		ast.Walk(f.Decl.Body, func(e ast.Expr) {
			if call, ok := e.(*ast.Call); ok && call.FunIndex >= f.Index {
				bad = true
			}
		})
		if bad {
			return Check{Name: "local-termination", OK: false,
				Detail: fmt.Sprintf("fun %s calls itself or a later fun", f.Decl.Name),
				Pos:    f.Decl.At, End: f.Decl.DeclEnd()}
		}
	}
	return Check{Name: "local-termination", OK: true, Detail: "no recursion, no loops (by construction)"}
}

// ---------------------------------------------------------------------------
// Guaranteed delivery

// delivery checks the three conditions of §2.1: no cycling (from the
// global-termination analysis), all exceptions handled, and a forward or
// deliver on every execution path (typecheck.Channel.HandsOn, from the
// same path walk that counts the duplication analysis's sends).
func delivery(info *typecheck.Info, noCycle bool) Check {
	if !noCycle {
		return Check{Name: "delivery", OK: false, Detail: "program may cycle (see global-termination)"}
	}
	for i := range info.Channels {
		ch := &info.Channels[i]
		if mayRaise(info, ch.Decl.Body, nil) {
			return Check{Name: "delivery", OK: false,
				Detail: fmt.Sprintf("channel %s may terminate with an unhandled exception", ch.Decl.Name),
				Pos:    ch.Decl.At, End: ch.Decl.HeaderEnd}
		}
		if !ch.HandsOn {
			return Check{Name: "delivery", OK: false,
				Detail: fmt.Sprintf("channel %s drops the packet on some execution path (no OnRemote/OnNeighbor/deliver)", ch.Decl.Name),
				Pos:    ch.Decl.At, End: ch.Decl.HeaderEnd}
		}
	}
	return Check{Name: "delivery", OK: true, Detail: "all exceptions handled, all paths forward or deliver"}
}

// guard records a membership fact established by an enclosing
// "if tmem(tbl, key) then ..." test: tget(tbl, key) in the then-branch
// cannot raise. This is the one flow-sensitive refinement the analysis
// needs to accept the paper's own table idiom (figure 2's getSetS).
type guard struct{ tbl, key ast.Expr }

// mayRaise conservatively reports whether evaluating e can raise a
// PLAN-P exception that is not handled within e, given membership facts
// from enclosing tmem guards.
func mayRaise(info *typecheck.Info, e ast.Expr, guards []guard) bool {
	switch e := e.(type) {
	case *ast.Raise:
		return true
	case *ast.Try:
		// The body's exceptions are handled; the handler's are not.
		return mayRaise(info, e.Handler, guards)
	case *ast.Binary:
		if e.Op == "/" || e.Op == "mod" {
			// Division raises unless the divisor is a non-zero literal.
			if lit, ok := e.R.(*ast.IntLit); !ok || lit.Value == 0 {
				return true
			}
		}
		return mayRaise(info, e.L, guards) || mayRaise(info, e.R, guards)
	case *ast.Call:
		for _, a := range e.Args {
			if mayRaise(info, a, guards) {
				return true
			}
		}
		if e.PrimIndex >= 0 {
			if !prims.CanRaise(e.PrimIndex) {
				return false
			}
			switch e.Name {
			case "mkTable":
				// A non-negative literal capacity cannot raise.
				if inRange(info, e.Args[0], 0, 1<<62) {
					return false
				}
			case "rand":
				if inRange(info, e.Args[0], 1, 1<<62) {
					return false
				}
			case "tget":
				for _, g := range guards {
					if exprEqual(g.tbl, e.Args[0]) && exprEqual(g.key, e.Args[1]) {
						return false
					}
				}
			case "mkUDP":
				if inRange(info, e.Args[0], 0, 65535) && inRange(info, e.Args[1], 0, 65535) {
					return false
				}
			case "tcpSrcSet", "tcpDstSet", "udpSrcSet", "udpDstSet":
				if inRange(info, e.Args[1], 0, 65535) {
					return false
				}
			case "mkIP":
				if inRange(info, e.Args[2], 0, 255) {
					return false
				}
			case "ipTTLSet", "itoc":
				if inRange(info, e.Args[len(e.Args)-1], 0, 255) {
					return false
				}
			case "intToHost":
				if inRange(info, e.Args[0], 0, 0xFFFFFFFF) {
					return false
				}
			}
			return true
		}
		if e.FunIndex >= 0 {
			return mayRaise(info, info.Funs[e.FunIndex].Decl.Body, nil)
		}
		return false // OnRemote/OnNeighbor
	case *ast.Proj:
		return mayRaise(info, e.Tuple, guards)
	case *ast.Let:
		for _, b := range e.Binds {
			if mayRaise(info, b.Init, guards) {
				return true
			}
		}
		return mayRaise(info, e.Body, guards)
	case *ast.If:
		if mayRaise(info, e.Cond, guards) {
			return true
		}
		thenGuards := guards
		if g, ok := tmemGuard(e.Cond); ok && guardStable(g, e.Then) {
			thenGuards = append(append([]guard{}, guards...), g)
		}
		return mayRaise(info, e.Then, thenGuards) || mayRaise(info, e.Else, guards)
	case *ast.Seq:
		for _, sub := range e.Exprs {
			if mayRaise(info, sub, guards) {
				return true
			}
		}
		return false
	case *ast.TupleExpr:
		for _, sub := range e.Elems {
			if mayRaise(info, sub, guards) {
				return true
			}
		}
		return false
	case *ast.Unary:
		return mayRaise(info, e.X, guards)
	default:
		return false
	}
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

// guardStable reports whether the membership fact g remains valid
// throughout branch: the branch must not delete table entries (tdel) and
// must not shadow any variable mentioned by the guard expressions with a
// let binding (which would make syntactic matching unsound).
func guardStable(g guard, branch ast.Expr) bool {
	names := map[string]bool{}
	collectVars(g.tbl, names)
	collectVars(g.key, names)
	stable := true
	ast.Walk(branch, func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.Call:
			if e.Name == "tdel" {
				stable = false
			}
		case *ast.Let:
			for _, b := range e.Binds {
				if names[b.Name] {
					stable = false
				}
			}
		}
	})
	return stable
}

func collectVars(e ast.Expr, out map[string]bool) {
	ast.Walk(e, func(e ast.Expr) {
		if v, ok := e.(*ast.Var); ok {
			out[v.Name] = true
		}
	})
}

// exprEqual is syntactic expression equality, used to match guarded
// table/key expressions. It is conservative: structurally different
// expressions that denote the same value compare unequal. It is also
// only sound for pure expressions, which table and key positions are
// (the checker confines effects to send/print primitives, all of which
// return unit and so cannot appear as a table or key argument usefully;
// a false positive here would only arise from pathological code and
// errs toward rejecting).
func exprEqual(a, b ast.Expr) bool {
	switch a := a.(type) {
	case *ast.Var:
		b, ok := b.(*ast.Var)
		return ok && a.Name == b.Name
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
		if !ok || len(a.Elems) != len(b.Elems) {
			return false
		}
		for i := range a.Elems {
			if !exprEqual(a.Elems[i], b.Elems[i]) {
				return false
			}
		}
		return true
	case *ast.Call:
		b, ok := b.(*ast.Call)
		if !ok || a.Name != b.Name || len(a.Args) != len(b.Args) {
			return false
		}
		for i := range a.Args {
			if !exprEqual(a.Args[i], b.Args[i]) {
				return false
			}
		}
		return true
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

// ---------------------------------------------------------------------------
// Safe duplication

// duplication runs the fix-point analysis: a program can duplicate
// packets exponentially iff a channel that emits more than one packet on
// some execution path lies on a cycle of the channel send graph.
//
// Both inputs — per-channel send multiplicity and the send graph — come
// from the channel-interface signature the typechecker extracted; the
// analysis walks no channel body.
func duplication(info *typecheck.Info) Check {
	sig := info.Sig
	n := len(info.Channels)
	// copies[i]: maximum sends on any execution path of channel i
	// (saturated at 2). edges[i]: channel indices i can send to.
	copies := make([]int, n)
	edges := make([][]int, n)
	for i, ch := range sig.Channels {
		copies[i] = ch.MaxSendsPerPath
		seen := map[int]bool{}
		for _, snd := range ch.Sends {
			for _, target := range info.ChannelsByName(snd.Channel) {
				if !seen[target.Index] {
					seen[target.Index] = true
					edges[i] = append(edges[i], target.Index)
				}
			}
		}
	}

	// reaches[i][j]: transitive closure of the send graph (fix-point).
	reaches := make([][]bool, n)
	for i := range reaches {
		reaches[i] = make([]bool, n)
		for _, j := range edges[i] {
			reaches[i][j] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !reaches[i][j] {
					continue
				}
				for k := 0; k < n; k++ {
					if reaches[j][k] && !reaches[i][k] {
						reaches[i][k] = true
						changed = true
					}
				}
			}
		}
	}

	for i := 0; i < n; i++ {
		if copies[i] >= 2 && reaches[i][i] {
			return Check{Name: "duplication", OK: false,
				Detail: fmt.Sprintf("channel %s copies packets (%d+ sends on one path) and lies on a send cycle: duplication may be exponential",
					info.Channels[i].Decl.Name, copies[i]),
				Pos: info.Channels[i].Decl.At, End: info.Channels[i].Decl.HeaderEnd}
		}
	}
	return Check{Name: "duplication", OK: true, Detail: "packet duplication is linear"}
}
