// Package engine defines the common execution interface implemented by
// the PLAN-P execution engines — the portable tree-walking interpreter
// (internal/lang/interp) and the closure-specializing JIT
// (internal/lang/jit), plus the benchmark's register-VM ablation — and
// the shared state model for downloaded protocols.
//
// The paper's run-time system pairs a portable interpreter with a JIT
// generated from it by partial evaluation (§2.2); keeping all engines
// behind one interface is what lets the benchmarks swap them under an
// unchanged runtime, and lets new primitives be debugged in the
// interpreter before "regenerating the specializer" (here: keeping the
// JIT's closure compiler in sync).
package engine

import (
	"fmt"

	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/prims"
	"planp.dev/planp/internal/lang/typecheck"
	"planp.dev/planp/internal/lang/value"
)

// Machine is what an engine runs an instance's channels on: the
// compiled program and the per-instance memory its code writes.
type Machine interface {
	// Compiled returns the program the machine runs.
	Compiled() Compiled
	// Packet returns channel ci's packet slot, the packet value the
	// channel's next invocation reads (the JIT's is the channel frame's
	// slot 2). The caller stores the decoded packet there once, and the
	// machine reads it in place.
	Packet(ci int) *value.Value
	// Invoke executes channel ci on the protocol state *ps, the channel
	// state *ss and the packet in its slot, and on success stores the
	// new states through ps and ss. A PLAN-P exception that escapes the
	// channel body is returned as an error of type value.Exception,
	// with *ps and *ss untouched. Nothing travels by value: a Value is
	// twelve words, and each has a home — the states in the Instance,
	// the packet in its slot. The machine keeps neither state pointer.
	Invoke(ci int, ctx prims.Context, ps, ss *value.Value) error
}

// Compiled is a protocol prepared for execution by some engine. It is
// immutable after Compile: any number of instances, on any number of
// goroutines (the shards of one simulation, the nodes of an rtnet
// network, every Load that hits the program cache), may share one
// artifact. Whatever generated code mutates lives in the Instance; each
// instance is single-goroutine.
type Compiled interface {
	// EngineName identifies the engine ("interp", "jit", or the
	// ablation's name).
	EngineName() string
	// Info returns the checked program this was compiled from.
	Info() *typecheck.Info
	// NewInstance evaluates the top-level vals and every channel's
	// initstate, returning the mutable per-download state. Each
	// download of a protocol onto a node gets its own instance.
	NewInstance(ctx prims.Context) (*Instance, error)
}

// Instance is a downloaded protocol's mutable state: the shared protocol
// state plus one channel state per channel definition, and the machine
// that runs the channels. Instances are not safe for concurrent use; the
// runtime serializes packet processing per node.
type Instance struct {
	m Machine

	// Proto is the protocol state shared by all channels (§2).
	Proto value.Value
	// Chans holds one channel state per channel, indexed like
	// Info().Channels.
	Chans []value.Value
}

// NewInstance assembles an instance; used by engine implementations.
func NewInstance(m Machine, proto value.Value, chans []value.Value) *Instance {
	return &Instance{m: m, Proto: proto, Chans: chans}
}

// Compiled returns the program this instance was created from.
func (in *Instance) Compiled() Compiled { return in.m.Compiled() }

// Packet returns channel ci's packet slot (Machine.Packet); ci must be a
// channel index.
func (in *Instance) Packet(ci int) *value.Value { return in.m.Packet(ci) }

// Run runs channel ci on the packet in its slot: on success the
// protocol and channel states are replaced by the channel's result; on
// an unhandled PLAN-P exception the states are left unchanged and the
// error is returned (matching the paper's model where the verifier, not
// the runtime, guards against state corruption). ci must be a channel
// index.
func (in *Instance) Run(ci int, ctx prims.Context) error {
	return in.m.Invoke(ci, ctx, &in.Proto, &in.Chans[ci])
}

// Invoke runs channel ci on pkt: it stores pkt in the channel's packet
// slot and runs the channel there (Run).
func (in *Instance) Invoke(ci int, ctx prims.Context, pkt value.Value) error {
	if ci < 0 || ci >= len(in.Chans) {
		return fmt.Errorf("planp/engine: channel index %d out of range", ci)
	}
	*in.Packet(ci) = pkt
	return in.Run(ci, ctx)
}

// ZeroValue returns the canonical initial value of a PLAN-P type: the
// value a protocol state starts from before the first packet. Tables
// have no zero value — channel states of table type must declare an
// initstate (enforced by the checker); table-typed protocol states are
// rejected here.
func ZeroValue(t ast.Type) (value.Value, error) {
	switch t := t.(type) {
	case ast.Base:
		switch t.Kind {
		case ast.TInt:
			return value.Int(0), nil
		case ast.TBool:
			return value.Bool(false), nil
		case ast.TString:
			return value.Str(""), nil
		case ast.TChar:
			return value.Char(0), nil
		case ast.TUnit:
			return value.Unit, nil
		case ast.THost:
			return value.HostV(0), nil
		case ast.TBlob:
			return value.Blob(nil), nil
		case ast.TIP:
			h := new(value.IPHeader)
			h.TTL = 64
			return value.IP(h), nil
		case ast.TTCP:
			return value.TCP(&value.TCPHeader{}), nil
		case ast.TUDP:
			return value.UDP(&value.UDPHeader{}), nil
		}
	case ast.Tuple:
		elems := make([]value.Value, len(t.Elems))
		for i, et := range t.Elems {
			v, err := ZeroValue(et)
			if err != nil {
				return value.Unit, err
			}
			elems[i] = v
		}
		return value.TupleV(elems...), nil
	case ast.List:
		return value.ListV(nil), nil
	case ast.Table:
		return value.Unit, fmt.Errorf("type %s has no zero value; use an initstate clause", t)
	}
	return value.Unit, fmt.Errorf("type %s has no zero value", t)
}

// DefaultProtoState returns the initial protocol state for a type.
// Unlike channel states (which use initstate clauses), the protocol
// state has no initializer syntax, so table-typed protocol states start
// as empty tables — which is what lets channels of one protocol share a
// table (the MPEG monitor's connection registry, §3.3).
func DefaultProtoState(t ast.Type) (value.Value, error) {
	switch t := t.(type) {
	case ast.Table:
		return value.TableV(value.NewTable(64)), nil
	case ast.Tuple:
		elems := make([]value.Value, len(t.Elems))
		for i, et := range t.Elems {
			v, err := DefaultProtoState(et)
			if err != nil {
				return value.Unit, err
			}
			elems[i] = v
		}
		return value.TupleV(elems...), nil
	default:
		return ZeroValue(t)
	}
}

// Recover is every engine's exception boundary, deferred where PLAN-P
// evaluation returns to Go (`defer engine.Recover(&err)`): a PLAN-P
// exception unwinding as a panic becomes *err; any other panic is an
// engine bug and keeps propagating.
func Recover(err *error) {
	if r := recover(); r != nil {
		ex, ok := r.(value.Exception)
		if !ok {
			panic(r)
		}
		*err = ex
	}
}

// InitStates runs a download's one-time initialization in language
// order: top-level val gi (declaration order) through evalGlobal into
// globals[gi], then the initial protocol state and every channel's
// state, channel ci's initstate through evalInit. The engine allocates
// globals (len(info.Globals)) and reads it while later vals evaluate —
// a val refers to earlier ones only. A failing declaration is reported
// by name here, once for all engines.
func InitStates(info *typecheck.Info, globals []value.Value, evalGlobal, evalInit func(i int) (value.Value, error)) (value.Value, []value.Value, error) {
	for gi, g := range info.Globals {
		v, err := evalGlobal(gi)
		if err != nil {
			return value.Unit, nil, fmt.Errorf("val %s: %w", g.Decl.Name, err)
		}
		globals[gi] = v
	}
	proto, err := DefaultProtoState(info.ProtoState)
	if err != nil {
		return value.Unit, nil, fmt.Errorf("protocol state: %w", err)
	}
	chans := make([]value.Value, len(info.Channels))
	for i, ch := range info.Channels {
		if ch.Decl.InitState != nil {
			v, err := evalInit(i)
			if err != nil {
				return value.Unit, nil, fmt.Errorf("channel %s initstate: %w", ch.Decl.Name, err)
			}
			chans[i] = v
			continue
		}
		v, err := ZeroValue(ch.Decl.ChanState())
		if err != nil {
			return value.Unit, nil, fmt.Errorf("channel %s state: %w", ch.Decl.Name, err)
		}
		chans[i] = v
	}
	return proto, chans, nil
}
