// Package chaos is the deterministic fault-injection and scenario
// engine for both substrate backends. It degrades a running network —
// packet loss, corruption, duplication, reordering jitter, fixed
// latency, link down/up/flap, partitions, asymmetric (per-direction)
// faults, node crash/restart, clock skew — through the backend-neutral
// hooks internal/substrate defines (substrate.FaultPort,
// substrate.Crasher, substrate.ClockSkewer), so the same scenario runs
// unchanged on internal/netsim and internal/rtnet.
//
// # Determinism
//
// Every per-packet decision draws from one seeded RNG owned by the
// Engine. On netsim the event loop is single-threaded and packet order
// is reproducible, so a fixed seed replays the exact same faults on the
// exact same packets — chaos experiments are byte-identical across
// runs, like every other netsim experiment. On rtnet the same engine
// runs race-clean (the RNG is mutex-guarded) but concurrent senders
// interleave nondeterministically, so runs are statistically similar,
// not identical — the backend's own contract.
//
// # Wiring
//
// An engine is born wired to a network substrate.Build made: New names
// every element by the name its Topology already gives it. A link
// "a-b" is duplex, its fwd direction a→b and its rev b→a, each wired
// where that end is built; a segment is one medium under its own name;
// every built node is adopted. A site that builds part of a topology
// wires the part it built, so two daemons' engines compose into one
// duplex link across them.
//
// # Two forms
//
// A fault that applies now is a method on a handle: the *Link that
// LookupLink returns, the *NodeHandle that LookupNode returns. A fault
// on a schedule is a Timeline — plain data that Compile binds to those
// handles and Play runs through substrate.Env.After: virtual time on
// netsim (a 10-minute scenario replays in milliseconds), wall-clock
// timers on rtnet.
//
// # Observability
//
// State transitions publish obs.KindFault / obs.KindHeal events
// (Node is the link or node name, Detail says what changed), and the
// engine counts its interventions in the environment's registry under
// chaos.* — so experiments can correlate injected faults with
// bandwidth gaps and recovery.
package chaos

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/substrate"
)

// Engine owns the fault state for one substrate environment: the seeded
// RNG, the wired links, the adopted nodes, and the chaos.* counters.
// The links and nodes are fixed by New; all fault state goes through
// the engine's mutex, so scenario steps may fire from rtnet timer
// goroutines while node goroutines transmit.
type Engine struct {
	env   substrate.Env
	links map[string]*Link
	nodes map[string]*NodeHandle

	mu  sync.Mutex
	rng *rand.Rand

	ct counters
}

// counters are the engine's registry-backed instruments, resolved once.
type counters struct {
	drops, corrupted, duplicated, delayed *obs.Counter
	linkDown, linkUp                      *obs.Counter
	crashes, restarts, skews              *obs.Counter
}

// New returns an engine wired to b, the network substrate.Build made
// of t on env, whose every random decision flows from seed: each link
// of t with an end in b, each segment with a member in b, each node b
// built (see Wiring). Use a fresh engine (and a fresh seed) per
// experiment cell. Panics on an element name a reference cannot spell
// (one containing ':'), on two elements under one name, and on a built
// interface or node that cannot take faults — author errors.
func New[N substrate.Host](env substrate.Env, t *substrate.Topology, b *substrate.Built[N], seed int64) *Engine {
	reg := env.Metrics()
	e := &Engine{
		env:   env,
		rng:   rand.New(rand.NewSource(seed)),
		links: map[string]*Link{},
		nodes: map[string]*NodeHandle{},
		ct: counters{
			drops:      reg.Counter("chaos.fault_drops"),
			corrupted:  reg.Counter("chaos.corrupted_pkts"),
			duplicated: reg.Counter("chaos.duplicated_pkts"),
			delayed:    reg.Counter("chaos.delayed_pkts"),
			linkDown:   reg.Counter("chaos.link_down"),
			linkUp:     reg.Counter("chaos.link_up"),
			crashes:    reg.Counter("chaos.node_crashes"),
			restarts:   reg.Counter("chaos.node_restarts"),
			skews:      reg.Counter("chaos.clock_skews"),
		},
	}
	for _, n := range t.Nodes {
		if b.Hosted(n.Name) {
			node := any(b.Node(n.Name))
			sk, _ := node.(substrate.ClockSkewer) // optional: rtnet only
			e.nodes[n.Name] = &NodeHandle{e: e, name: n.Name, cr: node.(substrate.Crasher), sk: sk}
		}
	}
	for _, l := range t.Links {
		e.wire(l.Name(), true, b.Iface(l.A, l.B), b.Iface(l.B, l.A))
	}
	for _, s := range t.Segments {
		ports := make([]substrate.Iface, len(s.Members))
		for i, m := range s.Members {
			ports[i] = b.Iface(m, s.Name)
		}
		e.wire(s.Name, false, ports...)
	}
	return e
}

// emit publishes one chaos state-transition event. Called outside the
// engine mutex (subscribers are arbitrary code).
func (e *Engine) emit(kind obs.Kind, name, detail string) {
	if bus := e.env.Events(); bus.Active() {
		bus.Publish(obs.Event{Kind: kind, At: e.env.Now(), Node: name, Detail: detail})
	}
}

// ---------------------------------------------------------------------------
// Links

// Directions of a link. For a link named "a-b", dirFwd is a→b and
// dirRev is b→a.
const (
	dirFwd = 0
	dirRev = 1
)

// dirNames spell the directions in link references ("a-b:rev") and in
// event details ("link-down:rev").
var dirNames = [2]string{dirFwd: "fwd", dirRev: "rev"}

// dirFaults is the fault state of one direction of a link.
type dirFaults struct {
	down    bool
	loss    float64       // P(drop) per packet
	corrupt float64       // P(one payload bit flips) per packet
	dup     float64       // P(one extra copy) per packet
	delay   time.Duration // fixed extra latency per packet
	jitter  time.Duration // uniform [0, jitter) extra latency — reorders
}

// Link is the engine's handle on one faultable link or segment, or on
// one direction of a link: every method below writes the directions the
// handle addresses. A link keeps per-direction state: the whole-link
// handle addresses both directions at once, and LookupLink("a-b:fwd") /
// ("a-b:rev") returns a handle narrowed to one — the asymmetric-fault
// grain (a path congested one way, a half-broken transceiver, a
// cross-host link whose far half lives in another process). Events
// from a narrowed handle carry a ":fwd"/":rev" suffix. A segment is
// one medium, so every member's attachment shares one state and its
// handle cannot be narrowed.
type Link struct {
	e      *Engine
	name   string
	duplex bool // a link; false for a segment

	// state is shared by every handle on the link and guarded by e.mu;
	// this handle addresses state[lo:hi]. A segment's ports read only
	// state[dirFwd]; its one handle writes both.
	state  *[2]dirFaults
	lo, hi int
	suffix string // "" for the whole link, ":fwd" / ":rev" when narrowed
}

// wire registers the element name and points its ports, the ones
// built here (non-nil), at its fault state: a link's two ports at its
// a→b and b→a directions, every port of a segment at the one state.
func (e *Engine) wire(name string, duplex bool, ports ...substrate.Iface) {
	if !slices.ContainsFunc(ports, func(p substrate.Iface) bool { return p != nil }) {
		return
	}
	if strings.Contains(name, ":") {
		panic(fmt.Sprintf("chaos: link name %q contains ':'", name))
	}
	if e.links[name] != nil {
		panic(fmt.Sprintf("chaos: link %q wired twice", name))
	}
	l := &Link{e: e, name: name, duplex: duplex, state: new([2]dirFaults), hi: len(dirNames)}
	e.links[name] = l
	for i, p := range ports {
		dir := dirFwd
		if duplex {
			dir = i
		}
		if p != nil {
			p.(substrate.FaultPort).SetFault(func(*substrate.Packet) substrate.FaultAction { return l.fault(dir) })
		}
	}
}

// LookupLink resolves a link reference — "<name>" for a whole link or
// segment, "<name>:fwd" or "<name>:rev" for one direction of a link —
// to its handle. It is the one resolver of link references: Compile
// calls it once per reference and binds the step to the handle it
// returns.
func (e *Engine) LookupLink(ref string) (*Link, error) {
	name, dir, narrowed := strings.Cut(ref, ":")
	if name == "" {
		return nil, fmt.Errorf("missing link")
	}
	l := e.links[name]
	if l == nil {
		return nil, fmt.Errorf("unknown link %q (wired: %v)", name, e.LinkNames())
	}
	if !narrowed {
		return l, nil
	}
	for i, n := range dirNames {
		if dir == n {
			return l.narrow(i)
		}
	}
	return nil, fmt.Errorf("direction %q of link %q (want \"fwd\" or \"rev\")", dir, name)
}

// LinkNames returns the names of every wired link and segment, sorted:
// they are part of the error a daemon answers a bad timeline with.
func (e *Engine) LinkNames() []string { return sortedKeys(e.links) }

// LookupNode resolves an adopted node by name — LookupLink's
// counterpart, which Compile calls once per node a step names.
func (e *Engine) LookupNode(name string) (*NodeHandle, error) {
	if name == "" {
		return nil, fmt.Errorf("missing node")
	}
	h := e.nodes[name]
	if h == nil {
		return nil, fmt.Errorf("unknown node %q (adopted: %v)", name, e.NodeNames())
	}
	return h, nil
}

// NodeNames returns the names of every adopted node, sorted.
func (e *Engine) NodeNames() []string { return sortedKeys(e.nodes) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// fault is the substrate.FaultFunc every wired port runs: one verdict
// per transmission, every random draw from the engine's seeded RNG.
func (l *Link) fault(dir int) substrate.FaultAction {
	e := l.e
	e.mu.Lock()
	defer e.mu.Unlock()
	st := &l.state[dir]
	var act substrate.FaultAction
	if st.down {
		e.ct.drops.Inc()
		act.Drop = true
		return act
	}
	if st.loss > 0 && e.rng.Float64() < st.loss {
		e.ct.drops.Inc()
		act.Drop = true
		return act
	}
	if st.corrupt > 0 && e.rng.Float64() < st.corrupt {
		act.Corrupt = true
		act.CorruptBit = int(e.rng.Int63n(1 << 30))
		e.ct.corrupted.Inc()
	}
	if st.dup > 0 && e.rng.Float64() < st.dup {
		act.Dup = 1
		e.ct.duplicated.Inc()
	}
	act.Delay = st.delay
	if st.jitter > 0 {
		// Uniform extra latency: packets drawn different jitter values
		// overtake each other — this is the reordering primitive.
		act.Delay += time.Duration(e.rng.Int63n(int64(st.jitter)))
	}
	if act.Delay > 0 {
		e.ct.delayed.Inc()
	}
	return act
}

// Name returns the handle's scenario reference: the link's name, plus
// ":fwd"/":rev" when narrowed to one direction.
func (l *Link) Name() string { return l.name + l.suffix }

func (l *Link) narrow(dir int) (*Link, error) {
	if !l.duplex {
		return nil, fmt.Errorf("segment %q is one symmetric medium; it has no direction %q", l.name, dirNames[dir])
	}
	d := *l
	d.lo, d.hi, d.suffix = dir, dir+1, ":"+dirNames[dir]
	return &d, nil
}

// each applies fn to every addressed direction's state under the
// engine lock.
func (l *Link) each(fn func(st *dirFaults)) {
	l.e.mu.Lock()
	defer l.e.mu.Unlock()
	for i := l.lo; i < l.hi; i++ {
		fn(&l.state[i])
	}
}

// set is every fault setter: write the addressed directions, publish.
func (l *Link) set(kind obs.Kind, detail string, fn func(st *dirFaults)) {
	l.each(fn)
	l.e.emit(kind, l.name, detail+l.suffix)
}

// cut is Down and Up: idempotent, so only a call that changes some
// addressed direction counts and publishes.
func (l *Link) cut(down bool, ct *obs.Counter, kind obs.Kind, detail string) {
	changed := false
	l.each(func(st *dirFaults) {
		changed = changed || st.down != down
		st.down = down
	})
	if changed {
		ct.Inc()
		l.e.emit(kind, l.name, detail+l.suffix)
	}
}

// Down cuts every addressed direction: each transmission drops until
// Up. Narrowed to one direction it is the half-broken-link fault — the
// opposite direction still carries traffic.
func (l *Link) Down() { l.cut(true, l.e.ct.linkDown, obs.KindFault, "link-down") }

// Up restores the addressed directions.
func (l *Link) Up() { l.cut(false, l.e.ct.linkUp, obs.KindHeal, "link-up") }

// IsDown reports whether any addressed direction is cut.
func (l *Link) IsDown() (down bool) {
	l.each(func(st *dirFaults) { down = down || st.down })
	return down
}

// SetLoss sets the per-packet drop probability.
func (l *Link) SetLoss(p float64) {
	l.set(obs.KindFault, fmt.Sprintf("loss=%.2f", p), func(st *dirFaults) { st.loss = p })
}

// SetCorrupt sets the per-packet probability of flipping one payload
// bit.
func (l *Link) SetCorrupt(p float64) {
	l.set(obs.KindFault, fmt.Sprintf("corrupt=%.2f", p), func(st *dirFaults) { st.corrupt = p })
}

// SetDup sets the per-packet probability of transmitting one extra
// copy.
func (l *Link) SetDup(p float64) {
	l.set(obs.KindFault, fmt.Sprintf("dup=%.2f", p), func(st *dirFaults) { st.dup = p })
}

// SetDelay sets the fixed extra latency added to every packet.
func (l *Link) SetDelay(d time.Duration) {
	l.set(obs.KindFault, fmt.Sprintf("delay=%s", d), func(st *dirFaults) { st.delay = d })
}

// SetJitter sets the bound of the uniform [0, d) extra latency drawn
// per packet — the reordering primitive.
func (l *Link) SetJitter(d time.Duration) {
	l.set(obs.KindFault, fmt.Sprintf("jitter=%s", d), func(st *dirFaults) { st.jitter = d })
}

// Clear resets every fault (including down) on the addressed
// directions and emits KindHeal.
func (l *Link) Clear() {
	l.set(obs.KindHeal, "clear", func(st *dirFaults) { *st = dirFaults{} })
}

// ClearAll resets every fault the engine has injected: all link state
// (both directions), and clock skew on every adopted node that
// supports it. Crashed nodes stay crashed — recovering a node is a
// deliberate Restart, not a side effect of stopping a timeline.
func (e *Engine) ClearAll() {
	for _, name := range e.LinkNames() {
		e.links[name].Clear()
	}
	for _, name := range e.NodeNames() {
		if h := e.nodes[name]; h.CanSkew() && h.sk.ClockSkew() != 0 {
			h.SetClockSkew(0)
		}
	}
}

// ---------------------------------------------------------------------------
// Nodes

// NodeHandle is the engine's handle on one built node: crashable
// (substrate.Crasher, both backends) and, where the backend supports
// it, clock-skewable.
type NodeHandle struct {
	e    *Engine
	name string
	cr   substrate.Crasher
	sk   substrate.ClockSkewer // nil when the backend can't skew
}

// Name returns the node's scenario name, its topology name.
func (h *NodeHandle) Name() string { return h.name }

// Crash takes the node down: traffic through it blackholes and its
// installed PLAN-P processor is gone (see substrate.Crasher).
func (h *NodeHandle) Crash() {
	h.cr.Crash()
	h.e.ct.crashes.Inc()
	h.e.emit(obs.KindFault, h.name, "crash")
}

// Restart brings the node back up, bare — reinstalling the protocol is
// the fleet's job, which is exactly what the crash-redeploy scenarios
// exercise.
func (h *NodeHandle) Restart() {
	h.cr.Restart()
	h.e.ct.restarts.Inc()
	h.e.emit(obs.KindHeal, h.name, "restart")
}

// CanSkew reports whether the node's backend supports clock skew
// (substrate.ClockSkewer — rtnet yes, netsim no).
func (h *NodeHandle) CanSkew() bool { return h.sk != nil }

// SetClockSkew shifts the node's host clock by d — observations drift,
// timers do not (see substrate.ClockSkewer). d = 0 heals. Panics on
// backends without clock-skew support (see CanSkew); Compile refuses a
// clockskew step for such a node up front.
func (h *NodeHandle) SetClockSkew(d time.Duration) {
	if h.sk == nil {
		panic(fmt.Sprintf("chaos: node %q does not support clock skew (rtnet only)", h.name))
	}
	h.sk.SetClockSkew(d)
	h.e.ct.skews.Inc()
	if d == 0 {
		h.e.emit(obs.KindHeal, h.name, "clockskew=0s")
	} else {
		h.e.emit(obs.KindFault, h.name, fmt.Sprintf("clockskew=%s", d))
	}
}
