// Package planprt is the ASP runtime: the IP/PLAN-P layer of figure 1,
// implemented against the abstract execution substrate
// (internal/substrate), so the same runtime drives the deterministic
// simulator (internal/netsim) and the real-time concurrent backend
// (internal/rtnet).
//
// A Program is a protocol that has been parsed, type-checked, verified
// (late checking, §2.1), and compiled by one of the engines; Download
// installs it on a node, where it intercepts the node's packet
// processing. The runtime provides the primitive context — OnRemote /
// OnNeighbor routing, local delivery, link-load measurement, substrate
// time — and dispatches incoming packets to channel definitions by tag
// and packet-type decoding.
//
// The runtime deliberately knows nothing about any concrete backend: it
// talks to substrate.Node/Iface/Env only (enforced by a test), which is
// what lets an ASP verified and compiled once run unchanged on the
// simulator or on live traffic.
package planprt

import (
	"fmt"
	"io"
	"slices"
	"time"

	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/bytecode"
	"planp.dev/planp/internal/lang/engine"
	"planp.dev/planp/internal/lang/interp"
	"planp.dev/planp/internal/lang/jit"
	"planp.dev/planp/internal/lang/parser"
	"planp.dev/planp/internal/lang/prims"
	"planp.dev/planp/internal/lang/typecheck"
	"planp.dev/planp/internal/lang/value"
	"planp.dev/planp/internal/lang/verify"
	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/substrate"
)

// EngineKind selects an execution engine.
type EngineKind string

// Engine kinds.
const (
	EngineInterp   EngineKind = "interp"
	EngineBytecode EngineKind = "bytecode"
	EngineJIT      EngineKind = "jit"
)

// VerifyPolicy controls late checking at download time.
type VerifyPolicy int

const (
	// VerifyNetwork requires the full network-wide analyses (protocols
	// that may be installed on any number of nodes).
	VerifyNetwork VerifyPolicy = iota
	// VerifySingleNode verifies under the single-node deployment
	// assumption; the runtime then refuses to install the program on
	// more than one node.
	VerifySingleNode
	// VerifyPrivileged skips rejection (the paper's authenticated
	// download path for protocols like multicast that legitimately fail
	// the conservative analyses). The analyses still run; results are
	// recorded on the Program.
	VerifyPrivileged
)

// Config configures compilation and installation.
type Config struct {
	Engine EngineKind   // default EngineJIT
	Verify VerifyPolicy // default VerifyNetwork
	Output io.Writer    // print/println destination; default io.Discard

	// NoCache bypasses the compiled-program cache (see cache.go). Set it
	// when the point of the Load is to MEASURE the pipeline (figure 3's
	// code-generation timings); leave it unset everywhere else.
	NoCache bool
}

// ParseConfig maps the control plane's engine/verify vocabulary — the
// planpd query parameters and the fleet Spec fields — onto a Config:
// engine ""|"jit"|"bytecode"|"interp", verify ""|"network"|"single"|
// "privileged"; empty means the default. The error names the unknown
// value.
func ParseConfig(engine, verify string) (Config, error) {
	var cfg Config
	switch engine {
	case "", "jit":
		cfg.Engine = EngineJIT
	case "bytecode":
		cfg.Engine = EngineBytecode
	case "interp":
		cfg.Engine = EngineInterp
	default:
		return cfg, fmt.Errorf("unknown engine %q", engine)
	}
	switch verify {
	case "", "network":
		cfg.Verify = VerifyNetwork
	case "single":
		cfg.Verify = VerifySingleNode
	case "privileged":
		cfg.Verify = VerifyPrivileged
	default:
		return cfg, fmt.Errorf("unknown verify policy %q", verify)
	}
	return cfg, nil
}

func (c *Config) fill() {
	if c.Engine == "" {
		c.Engine = EngineJIT
	}
	if c.Output == nil {
		c.Output = io.Discard
	}
}

// Program is a protocol ready for download: checked, verified, and
// compiled.
type Program struct {
	Source   string
	Info     *typecheck.Info
	Compiled engine.Compiled
	Verify   *verify.Result
	Policy   VerifyPolicy

	// CodegenTime is the wall-clock time the engine spent compiling
	// (the paper's figure-3 measurement).
	CodegenTime time.Duration

	installs int // nodes running this program: Install counts, Runtime.Uninstall releases
}

// Signature returns the program's channel-interface signature, as
// extracted by the typechecker. Because the signature lives on the
// shared Info, cache hits return the very same artifact — exposing it
// here costs nothing beyond the compile that already happened.
func (p *Program) Signature() *typecheck.Signature { return p.Info.Sig }

// compileWith returns the engine's compile function.
func compileWith(kind EngineKind) (func(*typecheck.Info) (engine.Compiled, error), error) {
	switch kind {
	case EngineInterp:
		return interp.Compile, nil
	case EngineBytecode:
		return bytecode.Compile, nil
	case EngineJIT, "":
		return jit.Compile, nil
	default:
		return nil, fmt.Errorf("planprt: unknown engine %q", kind)
	}
}

// Load parses, checks, verifies, and compiles a protocol source text.
// Successful results are memoized by (source text, engine, verify
// policy) — see cache.go — unless cfg.NoCache is set; each call still
// returns a fresh *Program, so install accounting starts at zero.
//
// Load is the compile-without-activate half of the download pipeline:
// the returned Program has passed late checking but touches no node
// until Install places it. The staged phase of a fleet rollout
// (internal/fleet, planpd's POST /asp/stage) is exactly a Load whose
// Install is deferred to the activate phase.
func Load(src string, cfg Config) (*Program, error) {
	cfg.fill()
	key := cacheKey{src: src, engine: cfg.Engine, policy: cfg.Verify}
	if !cfg.NoCache {
		if e := cacheGet(key); e != nil {
			return e.program(src, cfg.Verify), nil
		}
	}
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := typecheck.Check(prog)
	if err != nil {
		return nil, err
	}
	var vres *verify.Result
	switch cfg.Verify {
	case VerifySingleNode:
		vres = verify.VerifyWith(info, verify.Options{SingleNode: true})
	default:
		vres = verify.Verify(info)
	}
	if cfg.Verify != VerifyPrivileged {
		if err := vres.Err(); err != nil {
			return nil, fmt.Errorf("planprt: program rejected by late checking: %w", err)
		}
	}
	compile, err := compileWith(cfg.Engine)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	compiled, err := compile(info)
	if err != nil {
		return nil, err
	}
	e := &cacheEntry{info: info, compiled: compiled, vres: vres, codegenTime: time.Since(start)}
	if !cfg.NoCache {
		cachePut(key, e)
	}
	return e.program(src, cfg.Verify), nil
}

// Download loads src and installs it on node in one step.
func Download(node substrate.Node, src string, cfg Config) (*Runtime, error) {
	cfg.fill()
	p, err := Load(src, cfg)
	if err != nil {
		return nil, err
	}
	return Install(node, p, cfg.Output)
}

// Install places a loaded program onto a node, replacing the node's
// standard packet processing (figure 1). Each installation gets its own
// protocol/channel state instance and fresh "asp.<node>.*" counters in
// the simulation's metrics registry.
func Install(node substrate.Node, p *Program, output io.Writer) (*Runtime, error) {
	env := node.Env()
	if p.Policy == VerifySingleNode && p.installs >= 1 {
		if bus := env.Events(); bus.Active() {
			bus.Publish(obs.Event{
				Kind: obs.KindVerifyReject, At: env.Now(),
				Node: node.Hostname(), Detail: "single-node-limit",
			})
		}
		return nil, fmt.Errorf("planprt: program was verified for single-node deployment and is already installed")
	}
	if output == nil {
		output = io.Discard
	}
	rt := &Runtime{node: node, env: env, name: node.Hostname(), addr: node.Address(),
		prog: p, out: output,
		ct: newRuntimeCounters(env.Metrics(), node.Hostname())}
	inst, err := p.Compiled.NewInstance(rt)
	if err != nil {
		return nil, err
	}
	rt.inst = inst
	keeps := holdsHeader(p.Info.ProtoState)
	for _, ch := range p.Info.Channels {
		keeps = keeps || holdsHeader(ch.Decl.ChanState())
		tup, _ := ch.Decl.PacketType().(ast.Tuple)
		rt.width = max(rt.width, len(tup.Elems))
	}
	if keeps {
		rt.width = 0
	}
	node.SetProcessor(rt)
	p.installs++
	return rt, nil
}

// holdsHeader reports whether a value of type t can hold an ip, tcp or
// udp header. A program none of whose states can has no place to keep a
// decoded header past the invocation that received it.
func holdsHeader(t ast.Type) bool {
	switch t := t.(type) {
	case ast.Tuple:
		return slices.ContainsFunc(t.Elems, holdsHeader)
	case ast.Table:
		return holdsHeader(t.Elem)
	case ast.List:
		return holdsHeader(t.Elem)
	}
	return ast.Equal(t, ast.IPT) || ast.Equal(t, ast.TCPT) || ast.Equal(t, ast.UDPT)
}

// Uninstall removes this runtime from its node, restoring standard
// packet processing, and releases its install slot. Idempotent: the
// slot is released once, and the node's processor is cleared only while
// it is still this runtime — a crash or a later install may have
// replaced it.
func (rt *Runtime) Uninstall() {
	if rt.released {
		return
	}
	rt.released = true
	rt.prog.installs--
	if rt.node.CurrentProcessor() == substrate.Processor(rt) {
		rt.node.SetProcessor(nil)
	}
}

// Stats is a point-in-time snapshot of runtime activity on one node,
// returned by Runtime.Stats(). The live counters reside in the
// simulation's metrics registry under "asp.<node>.*"; each installation
// starts from fresh counters.
type Stats struct {
	Processed  int64 // packets handled by a channel
	Unmatched  int64 // packets that matched no channel (default path)
	Errors     int64 // channel invocations ending in an exception
	SentRemote int64
	SentLocal  int64 // OnRemote to self (local delivery)
	SentFlood  int64 // OnNeighbor transmissions
	Delivered  int64 // deliver primitive
	// InvokeTime estimates the time spent inside channel invocations:
	// one invoke in invokeSample is timed and counted invokeSample
	// times, so it reads 0 until that many have run. The sample is
	// strictly periodic: on traffic whose cycle divides invokeSample it
	// times the same kind of packet every time.
	InvokeTime time.Duration
}

// invokeSample is how many invocations share one timing: two clock
// reads cost 4–5 % of a gateway packet, and the counter they feed is
// only ever read as a sum.
const invokeSample = 64

// runtimeCounters are the per-installation registry instruments,
// resolved once at install time (no name lookups per packet).
type runtimeCounters struct {
	processed  *obs.Counter
	unmatched  *obs.Counter
	errors     *obs.Counter
	sentRemote *obs.Counter
	sentLocal  *obs.Counter
	sentFlood  *obs.Counter
	delivered  *obs.Counter
	invokeNs   *obs.Counter
}

func newRuntimeCounters(reg *obs.Registry, node string) runtimeCounters {
	pre := "asp." + node + "."
	return runtimeCounters{
		processed:  reg.ResetCounter(pre + "processed"),
		unmatched:  reg.ResetCounter(pre + "unmatched"),
		errors:     reg.ResetCounter(pre + "errors"),
		sentRemote: reg.ResetCounter(pre + "sent_remote"),
		sentLocal:  reg.ResetCounter(pre + "sent_local"),
		sentFlood:  reg.ResetCounter(pre + "sent_flood"),
		delivered:  reg.ResetCounter(pre + "delivered"),
		invokeNs:   reg.ResetCounter(pre + "invoke_ns"),
	}
}

// Runtime is one installed protocol on one node. It implements both the
// substrate's Processor hook and the language's primitive context.
type Runtime struct {
	node substrate.Node
	env  substrate.Env  // node.Env(), resolved once at install time
	name string         // node.Hostname(), ditto (event hot path)
	addr substrate.Addr // node.Address(), ditto (OnRemote self-check)
	prog *Program
	inst *engine.Instance
	out  io.Writer

	released bool // Uninstall has given back the install slot

	// curIn is the interface the packet being processed arrived on and
	// curDst its original destination (split-horizon for OnRemote
	// pass-through forwarding).
	curIn  substrate.Iface
	curDst substrate.Addr

	// The two lending rules of a packet's trip (DESIGN.md). scratch backs
	// the packet value of the invocation in progress, which holds it
	// while busy. It is made at the first packet (most installs of a
	// rollout never see one) for width elements, the program's widest
	// packet type; width is 0 if a state of the program can hold a
	// header, and then every decode allocates. reuse is the inbound
	// packet if it came in owned, until the invocation's first OnRemote
	// or Deliver sends it back out re-encoded.
	scratch *scratch
	width   int
	busy    bool
	reuse   *substrate.Packet

	invokes uint64 // channel invocations so far (which one to time)
	ct      runtimeCounters
}

// Stats returns a snapshot of this installation's activity counters.
func (rt *Runtime) Stats() Stats {
	return Stats{
		Processed:  rt.ct.processed.Value(),
		Unmatched:  rt.ct.unmatched.Value(),
		Errors:     rt.ct.errors.Value(),
		SentRemote: rt.ct.sentRemote.Value(),
		SentLocal:  rt.ct.sentLocal.Value(),
		SentFlood:  rt.ct.sentFlood.Value(),
		Delivered:  rt.ct.delivered.Value(),
		InvokeTime: time.Duration(rt.ct.invokeNs.Value()),
	}
}

// Events returns the event bus of the substrate this runtime is
// installed in (protocol-level subscribers: ASP invokes, rejects).
func (rt *Runtime) Events() *obs.Bus { return rt.env.Events() }

var (
	_ substrate.Processor = (*Runtime)(nil)
	_ prims.Context       = (*Runtime)(nil)
)

// Node returns the node this runtime is installed on.
func (rt *Runtime) Node() substrate.Node { return rt.node }

// Program returns the installed program.
func (rt *Runtime) Program() *Program { return rt.prog }

// Instance exposes the protocol state (tests and monitoring tools).
func (rt *Runtime) Instance() *engine.Instance { return rt.inst }

// Process implements netsim.Processor: dispatch the packet to the first
// matching channel. Untagged packets go to "network" channels; tagged
// packets to channels with the tag's name (§2).
func (rt *Runtime) Process(pkt *substrate.Packet, in substrate.Iface) bool {
	name := pkt.ChanTag
	if name == "" {
		name = "network"
	}
	outer, mem := rt.busy, rt.scratch
	if outer || rt.width == 0 {
		mem = nil // re-entered through a local app, or a header may be kept
	} else if mem == nil {
		mem = &scratch{elems: make([]value.Value, 0, rt.width)}
		rt.scratch = mem
	}
	for _, ch := range rt.prog.Info.ChannelsByName(name) {
		v, ok := decode(pkt, ch.Decl.PacketType(), mem)
		if !ok {
			continue
		}
		if bus := rt.env.Events(); bus.Active() {
			bus.Publish(substrate.PacketEvent(obs.KindASPInvoke, rt.env.Now(), rt.name, pkt, ch.Decl.Name))
		}
		rt.curIn, rt.curDst, rt.reuse, rt.busy = in, pkt.IP.Dst, nil, true
		if pkt.Owned() {
			rt.reuse = pkt
		}
		rt.invokes++
		timed := rt.invokes%invokeSample == 0
		var start time.Time
		if timed {
			start = time.Now()
		}
		err := rt.inst.Invoke(ch.Index, rt, v)
		if timed {
			rt.ct.invokeNs.Add(invokeSample * int64(time.Since(start)))
		}
		rt.curIn, rt.curDst, rt.reuse, rt.busy = nil, 0, nil, outer
		if err != nil {
			// An unhandled exception drops the packet (the verifier
			// exists to prevent this for checked programs).
			rt.ct.errors.Inc()
			return true
		}
		rt.ct.processed.Inc()
		return true
	}
	rt.ct.unmatched.Inc()
	return false
}

// ---------------------------------------------------------------------------
// prims.Context

// encode builds the packet OnRemote or Deliver sends: in the inbound
// packet if it was owned and this is the invocation's first such send
// (nothing else refers to it, and the packet value does not: its headers
// are copies and a payload is never written), in a fresh one otherwise.
func (rt *Runtime) encode(prim string, pktVal value.Value) *substrate.Packet {
	pkt, err := encode(pktVal, rt.reuse)
	rt.reuse = nil
	if err != nil {
		value.Raise("%s: %v", prim, err)
	}
	return pkt
}

// OnRemote implements the send primitive: the packet is routed by its
// (possibly rewritten) destination. Sends addressed to this node are
// delivered locally — the IP rule that a packet addressed to yourself
// does not hit the wire — which is also what makes self-forwarding
// protocols terminate.
func (rt *Runtime) OnRemote(chanName string, pktVal value.Value) {
	pkt := rt.encode("OnRemote", pktVal)
	if chanName != "network" {
		pkt.ChanTag = chanName
	}
	if pkt.IP.Dst == rt.addr {
		rt.ct.sentLocal.Inc()
		rt.node.DeliverLocal(pkt)
		return
	}
	if pkt.IP.TTL <= 1 {
		return // resource backstop, mirrors IP
	}
	pkt.IP.TTL--
	if pkt.IP.ID == 0 {
		pkt.IP.ID = rt.node.NextIPID()
	}
	rt.ct.sentRemote.Inc()
	// Split horizon applies to pass-through forwarding (unchanged
	// destination): never re-transmit a packet onto the segment it
	// arrived from. A program that REWROTE the destination started a
	// new journey, which may legitimately leave the way it came (the
	// MPEG monitor answering queries on its own segment, §3.3).
	in := rt.curIn
	if pkt.IP.Dst != rt.curDst {
		in = nil
	}
	rt.node.TransmitFrom(pkt, in)
}

// OnNeighbor implements link-local flooding: one copy out every
// interface except the one the packet arrived on.
func (rt *Runtime) OnNeighbor(chanName string, pktVal value.Value) {
	pkt, err := Encode(pktVal)
	if err != nil {
		value.Raise("OnNeighbor: %v", err)
	}
	if chanName != "network" {
		pkt.ChanTag = chanName
	}
	if pkt.IP.TTL <= 1 {
		return
	}
	pkt.IP.TTL--
	ifaces := rt.node.Interfaces()
	outs := 0
	for _, ifc := range ifaces {
		if ifc != rt.curIn {
			outs++
		}
	}
	if outs > 1 {
		// Flooding shares one packet pointer across media; it cannot be
		// exclusively owned by any receiver.
		pkt.Disown()
	}
	for _, ifc := range ifaces {
		if ifc == rt.curIn {
			continue
		}
		rt.ct.sentFlood.Inc()
		ifc.Send(pkt)
	}
}

// Deliver implements the deliver primitive.
func (rt *Runtime) Deliver(pktVal value.Value) {
	pkt := rt.encode("deliver", pktVal)
	rt.ct.delivered.Inc()
	rt.node.DeliverLocal(pkt)
}

// Print implements program output.
func (rt *Runtime) Print(s string) { io.WriteString(rt.out, s) }

// ThisHost returns the node address.
func (rt *Runtime) ThisHost() value.Host { return value.Host(rt.addr) }

// Now returns substrate time (virtual on the simulator, wall-clock on
// real-time backends) in milliseconds.
func (rt *Runtime) Now() int64 { return rt.env.Now().Milliseconds() }

// Rand draws from the substrate's seeded random stream.
func (rt *Runtime) Rand(n int64) int64 { return rt.env.Int63n(n) }

// LinkLoadTo reports the utilization of the interface a packet to dst
// would leave through.
func (rt *Runtime) LinkLoadTo(dst value.Host) int64 {
	ifc := rt.node.Route(substrate.Addr(dst))
	if ifc == nil {
		return 0
	}
	return ifc.Load()
}

// LinkBandwidthTo reports the capacity of the route to dst.
func (rt *Runtime) LinkBandwidthTo(dst value.Host) int64 {
	ifc := rt.node.Route(substrate.Addr(dst))
	if ifc == nil {
		return 0
	}
	return ifc.Bandwidth()
}
