// Package prims defines the PLAN-P primitive library: the built-in
// functions available to protocols. The paper extends the original
// routing-oriented primitive set with data-manipulation primitives
// (audio degradation, payload access, hash tables) that make ASPs
// possible (§2.3); this package contains both generations.
//
// Primitives are registered in a global, immutable registry built at
// package init. The type checker resolves calls to registry indices;
// engines invoke primitives through those indices, so adding a primitive
// is exactly the two-step process the paper describes: one function for
// the computation, one signature for its typing. A signature is
// parameter and result types; a polymorphic one (mkTable, tget, cons,
// print, deliver, ...) writes ast.TypeVars where the type varies, and
// the checker binds them at each call.
package prims

import (
	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/value"
)

// Context is the runtime environment a primitive executes in. The ASP
// runtime (internal/planprt) provides the real implementation; tests use
// lightweight fakes.
//
// A packet value passed to OnRemote, OnNeighbor or Deliver is borrowed
// for the call, headers too: compiled code builds the tuple, and a header
// returned straight into it, in per-instance memory that the send's next
// run overwrites. An implementation that keeps it must value.Clone it.
type Context interface {
	// OnRemote enqueues pkt for transmission, routed by the IP
	// destination in its header tuple, to be processed by channel
	// chanName at the next PLAN-P hop.
	OnRemote(chanName string, pkt value.Value)
	// OnNeighbor transmits pkt one hop to every directly connected
	// neighbor (link-local flooding), processed by chanName there.
	OnNeighbor(chanName string, pkt value.Value)
	// Deliver passes pkt up to the local application, terminating
	// PLAN-P processing for it.
	Deliver(pkt value.Value)
	// Print emits program output (the print/println primitives).
	Print(s string)
	// ThisHost is the address of the executing node.
	ThisHost() value.Host
	// Now is the current virtual time in milliseconds.
	Now() int64
	// Rand returns a deterministic pseudo-random integer in [0, n).
	Rand(n int64) int64
	// LinkLoadTo returns the utilization (percent, 0-100) of the
	// outgoing link toward dst, averaged over the monitor window.
	LinkLoadTo(dst value.Host) int64
	// LinkBandwidthTo returns the capacity in bits/s of the outgoing
	// link toward dst.
	LinkBandwidthTo(dst value.Host) int64
}

// Prim is one primitive: its signature and implementation.
type Prim struct {
	Name string

	// Params/Ret are the signature, type variables included.
	Params []ast.Type
	Ret    ast.Type

	// Fn executes the primitive. It may raise a PLAN-P exception via
	// value.Raise.
	Fn func(ctx Context, args []value.Value) value.Value

	// Word, on a header reader, is Fn's result word read off h in place.
	Word func(h *value.Value) int64
	// Into, on a primitive returning a header, is Fn reusing *mem's (or making it).
	Into func(args []value.Value, mem *value.Value) value.Value

	// Borrows lists the argument positions the primitive reads during
	// the call and never keeps: a compiler may pass a tuple built in
	// memory it is about to reuse.
	Borrows []int
}

var (
	registry []Prim
	byName   = map[string]int{}
)

// register appends a primitive at package init. Duplicate names are a
// programming error and panic immediately.
func register(p Prim) {
	if _, dup := byName[p.Name]; dup {
		panic("planp/prims: duplicate primitive " + p.Name)
	}
	byName[p.Name] = len(registry)
	registry = append(registry, p)
}

// Lookup returns the registry index for name, or -1.
func Lookup(name string) int {
	if i, ok := byName[name]; ok {
		return i
	}
	return -1
}

// Get returns the primitive at index i.
func Get(i int) *Prim { return &registry[i] }

// Count returns the number of registered primitives.
func Count() int { return len(registry) }

// def registers a primitive with its signature.
func def(name string, params []ast.Type, ret ast.Type, fn func(ctx Context, args []value.Value) value.Value) {
	register(Prim{Name: name, Params: params, Ret: ret, Fn: fn})
}

// borrows records that the named primitives only borrow argument arg.
func borrows(arg int, names ...string) {
	for _, name := range names {
		p := &registry[byName[name]]
		p.Borrows = append(p.Borrows, arg)
	}
}

func types(ts ...ast.Type) []ast.Type { return ts }
