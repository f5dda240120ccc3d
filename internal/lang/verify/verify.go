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
//     the channel send graph.
//
// One abstract evaluator (abstract.go) reads the code for global
// termination and delivery: where each send's addresses come from, and
// whether a channel may raise an exception it does not handle. It walks
// each channel body once and each fun body once per distinct abstract
// argument vector (at most maxSummaries of them), so verification costs
// time linear in declarations × distinct abstract arguments. Whether
// every path hands the packet on and how many times one path can
// transmit come from the type checker's path walk. Global termination
// and duplication find cycles with one routine (components).
//
// All analyses are conservative: they may reject a correct protocol
// (the paper gives mobile-host forwarding and multicast as examples)
// but never accept one that violates the property.
package verify

import (
	"fmt"
	"strings"
	"sync"

	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/diag"
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
	ws := newWorkspace()
	defer ws.release()
	chans := ws.evalChannels(info)
	r := &Result{}
	r.LocalTermination = localTermination(info)
	if opts.SingleNode {
		r.GlobalTermination = Check{Name: "global-termination", OK: true,
			Detail: "single-node deployment: each packet is processed by this program at most once"}
	} else {
		states, cycleDetail := ws.exploreStates(info, chans)
		if cycleDetail == "" {
			r.GlobalTermination = Check{Name: "global-termination", OK: true,
				Detail: fmt.Sprintf("no cycle in %d abstract states", states)}
		} else {
			r.GlobalTermination = Check{Name: "global-termination", OK: false, Detail: cycleDetail}
		}
	}
	r.Delivery = delivery(info, r.GlobalTermination.OK, chans)
	r.Duplication = ws.duplication(info)
	return r
}

// workspace is everything one VerifyWith run builds and drops: the
// evaluator's frames, stacks, memo and arena, the channels' send lists,
// the state graph and Tarjan's arrays. A finished run pools it
// (release); nothing a Result holds points into it.
type workspace struct {
	evaluator
	states []state
	index  map[state]int
	work   []int
	graph  graph
	tarjan tarjan
}

// workspaces holds the workspaces of finished runs.
var workspaces sync.Pool

// maxPooled bounds the entries a pooled workspace's slices and map may
// have held: one that grew past it on a program far larger than any
// in-tree ASP is dropped, not pooled, since clearing a map costs its
// capacity and every later run would pay for the one huge upload.
const maxPooled = 1 << 10

func newWorkspace() *workspace {
	if ws, _ := workspaces.Get().(*workspace); ws != nil {
		return ws
	}
	return &workspace{index: map[state]int{}}
}

// release pools ws with nothing of its run left in it: the slices that
// hold pointers into the tree are cleared to their capacity, and the
// others are overwritten before they are read.
func (ws *workspace) release() {
	ev := &ws.evaluator
	if max(cap(ev.avals), cap(ev.guards), cap(ev.args), cap(ev.sends), cap(ev.chans), cap(ev.memo),
		cap(ev.latest), len(ws.index), cap(ws.states), cap(ws.work), cap(ws.graph.out), cap(ws.graph.edges),
		cap(ws.tarjan.comp), cap(ws.tarjan.stack)) > maxPooled {
		return
	}
	clear(ev.avals[:cap(ev.avals)])
	clear(ev.guards[:cap(ev.guards)])
	clear(ev.args[:cap(ev.args)])
	clear(ev.sends[:cap(ev.sends)])
	clear(ev.chans[:cap(ev.chans)])
	clear(ev.memo[:cap(ev.memo)])
	*ev = evaluator{avals: ev.avals[:0], guards: ev.guards[:0], args: ev.args[:0], sends: ev.sends[:0],
		chans: ev.chans[:0], memo: ev.memo[:0], latest: ev.latest[:0], summaries: ev.summaries[:0]}
	clear(ws.index)
	workspaces.Put(ws)
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
// global-termination analysis), all exceptions handled (the abstract
// evaluator's verdict on each channel body), and a forward or deliver on
// every execution path (typecheck.Channel.HandsOn, from the same path
// walk that counts the duplication analysis's sends).
func delivery(info *typecheck.Info, noCycle bool, chans []channelFacts) Check {
	if !noCycle {
		return Check{Name: "delivery", OK: false, Detail: "program may cycle (see global-termination)"}
	}
	for i := range info.Channels {
		ch := &info.Channels[i]
		if chans[i].raises {
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

// ---------------------------------------------------------------------------
// Safe duplication

// duplication checks that packet duplication is linear: a program can
// duplicate packets exponentially iff a channel that emits more than one
// packet on some execution path lies on a cycle of the channel send
// graph. The paper computes the cycles as a fix-point; the strongly
// connected components of the send graph are the same answer.
//
// Both inputs — per-channel send multiplicity and the send graph — come
// from the channel-interface signature the typechecker extracted; the
// analysis walks no channel body.
func (ws *workspace) duplication(info *typecheck.Info) Check {
	sig := info.Sig
	// The edges out of channel i go to the channels it can send to.
	g := &ws.graph
	g.reset()
	for _, ch := range sig.Channels {
		lo := len(g.edges)
		for _, snd := range ch.Sends {
			for _, target := range info.ChannelsByName(snd.Channel) {
				g.edges = append(g.edges, edge{to: target.Index})
			}
		}
		g.out = append(g.out, span{lo, len(g.edges)})
	}
	comp := ws.components(g)
	for i, ch := range sig.Channels {
		if ch.MaxSendsPerPath < 2 {
			continue
		}
		for _, e := range g.edges[g.out[i].lo:g.out[i].hi] {
			if comp[e.to] == comp[i] {
				return Check{Name: "duplication", OK: false,
					Detail: fmt.Sprintf("channel %s copies packets (%d+ sends on one path) and lies on a send cycle: duplication may be exponential",
						info.Channels[i].Decl.Name, ch.MaxSendsPerPath),
					Pos: info.Channels[i].Decl.At, End: info.Channels[i].Decl.HeaderEnd}
			}
		}
	}
	return Check{Name: "duplication", OK: true, Detail: "packet duplication is linear"}
}

// graph is a directed graph in one flat edge list: the edges out of
// vertex v are edges[out[v].lo:out[v].hi].
type graph struct {
	out   []span
	edges []edge
}

// span locates a vertex's edges; lo < 0 marks a state not yet expanded.
type span struct{ lo, hi int }

// edge is a send-graph edge or a transition between abstract states,
// which changing marks when it rewrites the destination without
// progress.
type edge struct {
	to       int
	changing bool
}

func (g *graph) reset() { g.out, g.edges = g.out[:0], g.edges[:0] }

// tarjan holds the arrays of Tarjan's algorithm across runs.
type tarjan struct {
	comp  []int // 1 + component number; 0 while on the stack
	index []int // 1 + visit order; 0 before the visit
	low   []int
	stack []int

	visited, found int
}

// components labels the strongly connected components of g (Tarjan's
// algorithm), so that an edge u→v lies on a cycle iff comp[u] ==
// comp[v]. Duplication runs it on the channel send graph and global
// termination on the explored state space. The labels are the
// workspace's, valid until its next run.
func (ws *workspace) components(g *graph) []int {
	t := &ws.tarjan
	n := len(g.out)
	t.comp = append(t.comp[:0], make([]int, n)...)
	t.index = append(t.index[:0], make([]int, n)...)
	t.low = append(t.low[:0], make([]int, n)...)
	t.stack = t.stack[:0]
	t.visited, t.found = 0, 0
	for v := range g.out {
		if t.index[v] == 0 {
			t.visit(g, v)
		}
	}
	return t.comp
}

func (t *tarjan) visit(g *graph, v int) {
	t.visited++
	t.index[v], t.low[v] = t.visited, t.visited
	t.stack = append(t.stack, v)
	for _, e := range g.edges[g.out[v].lo:g.out[v].hi] {
		w := e.to
		if t.index[w] == 0 {
			t.visit(g, w)
			t.low[v] = min(t.low[v], t.low[w])
		} else if t.comp[w] == 0 {
			t.low[v] = min(t.low[v], t.index[w])
		}
	}
	if t.low[v] == t.index[v] {
		t.found++
		for {
			w := t.stack[len(t.stack)-1]
			t.stack = t.stack[:len(t.stack)-1]
			t.comp[w] = t.found
			if w == v {
				break
			}
		}
	}
}
