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
// # Two forms
//
// A fault that applies now is a method on a handle: the *Link that
// Wire, WireDuplex or LookupLink returns, the *NodeHandle that Adopt or
// LookupNode returns. A fault on a schedule is a Timeline — plain data
// that Compile binds to those handles and Play runs through
// substrate.Env.After: virtual time on netsim (a 10-minute scenario
// replays in milliseconds), wall-clock timers on rtnet.
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
	"sort"
	"strings"
	"sync"
	"time"

	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/substrate"
)

// Engine owns the fault state for one substrate environment: the seeded
// RNG, the wired links, the adopted nodes, and the chaos.* counters.
// All mutation goes through the engine's mutex, so scenario steps may
// fire from rtnet timer goroutines while node goroutines transmit.
type Engine struct {
	env substrate.Env

	mu    sync.Mutex
	rng   *rand.Rand
	links map[string]*Link
	nodes map[string]*NodeHandle

	ct counters
}

// counters are the engine's registry-backed instruments, resolved once.
type counters struct {
	drops, corrupted, duplicated, delayed *obs.Counter
	linkDown, linkUp                      *obs.Counter
	crashes, restarts, skews              *obs.Counter
}

// New returns an engine for env whose every random decision flows from
// seed. Use a fresh engine (and a fresh seed) per experiment cell.
func New(env substrate.Env, seed int64) *Engine {
	reg := env.Metrics()
	return &Engine{
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

// Directions of a duplex link (WireDuplex). For a link named "a-b",
// dirFwd is a→b and dirRev is b→a.
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

// Link is the engine's handle on one faultable link, or on one
// direction of it: every method below writes the directions the handle
// addresses. A link wired with Wire is symmetric — both directions
// degrade together, which is what cable damage and congested paths look
// like. A link wired with WireDuplex keeps per-direction state: the
// handle WireDuplex returns still addresses both directions at once, and
// LookupLink("a-b:fwd") / ("a-b:rev") returns a handle narrowed to one —
// the asymmetric-fault grain (a path congested one way, a half-broken
// transceiver, a cross-host link whose far half lives in another
// process). Events from a narrowed handle carry a ":fwd"/":rev" suffix.
type Link struct {
	e      *Engine
	name   string
	duplex bool

	// state is shared by every handle on the link and guarded by e.mu;
	// this handle addresses state[lo:hi]. The ports of a symmetric link
	// read only state[dirFwd]; its one handle writes both.
	state  *[2]dirFaults
	lo, hi int
	suffix string // "" for the whole link, ":fwd" / ":rev" when narrowed
}

// Wire attaches the engine to a named link: every given port consults
// (and shares) the link's fault state on each transmission — symmetric
// faults. Pass a duplex link's two directional interfaces; for
// independent per-direction state use WireDuplex. Panics on a
// duplicate name — scenarios address links by name, so collisions are
// author errors — and on a name containing ':', which is how a
// reference names a direction.
func (e *Engine) Wire(name string, ports ...substrate.FaultPort) *Link {
	return e.wire(name, false, ports, nil)
}

// WireDuplex attaches the engine to a named link with independent
// per-direction fault state: fwd ports carry the a→b direction of a
// link named "a-b", rev ports b→a. Either side may be empty when only
// one direction is locally owned — the cross-host case, where each
// daemon wires its outbound half and the peer daemon wires the other.
func (e *Engine) WireDuplex(name string, fwd, rev []substrate.FaultPort) *Link {
	return e.wire(name, true, fwd, rev)
}

func (e *Engine) wire(name string, duplex bool, fwd, rev []substrate.FaultPort) *Link {
	if len(fwd)+len(rev) == 0 {
		panic(fmt.Sprintf("chaos: link %q needs at least one port", name))
	}
	if strings.Contains(name, ":") {
		panic(fmt.Sprintf("chaos: link name %q contains ':'", name))
	}
	l := &Link{e: e, name: name, duplex: duplex, state: new([2]dirFaults), hi: len(dirNames)}
	e.mu.Lock()
	if e.links[name] != nil {
		e.mu.Unlock()
		panic(fmt.Sprintf("chaos: link %q wired twice", name))
	}
	e.links[name] = l
	e.mu.Unlock()
	for dir, side := range [...][]substrate.FaultPort{dirFwd: fwd, dirRev: rev} {
		for _, p := range side {
			p.SetFault(func(*substrate.Packet) substrate.FaultAction { return l.fault(dir) })
		}
	}
	return l
}

// LookupLink resolves a link reference — "<name>" for the whole link,
// "<name>:fwd" or "<name>:rev" for one direction of a duplex-wired one
// — to its handle. It is the one resolver of link references: Compile
// calls it once per reference and binds the step to the handle it
// returns.
func (e *Engine) LookupLink(ref string) (*Link, error) {
	name, dir, narrowed := strings.Cut(ref, ":")
	if name == "" {
		return nil, fmt.Errorf("missing link")
	}
	e.mu.Lock()
	l := e.links[name]
	e.mu.Unlock()
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

// LinkNames returns the names of every wired link, sorted: they are
// part of the error a daemon answers a bad timeline with.
func (e *Engine) LinkNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.links))
	for name := range e.links {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// LookupNode resolves an adopted node by name — LookupLink's
// counterpart, which Compile calls once per node a step names.
func (e *Engine) LookupNode(name string) (*NodeHandle, error) {
	if name == "" {
		return nil, fmt.Errorf("missing node")
	}
	e.mu.Lock()
	h := e.nodes[name]
	e.mu.Unlock()
	if h == nil {
		return nil, fmt.Errorf("unknown node %q (adopted: %v)", name, e.NodeNames())
	}
	return h, nil
}

// NodeNames returns the names of every adopted node, sorted.
func (e *Engine) NodeNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.nodes))
	for name := range e.nodes {
		out = append(out, name)
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
		return nil, fmt.Errorf("link %q is symmetric; per-direction faults need WireDuplex", l.name)
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
		l, _ := e.LookupLink(name) // a wired name always resolves
		l.Clear()
	}
	for _, name := range e.NodeNames() {
		if h, _ := e.LookupNode(name); h.CanSkew() && h.sk.ClockSkew() != 0 {
			h.SetClockSkew(0)
		}
	}
}

// ---------------------------------------------------------------------------
// Nodes

// NodeHandle is the engine's handle on one crashable (and possibly
// clock-skewable) node.
type NodeHandle struct {
	e    *Engine
	name string
	cr   substrate.Crasher
	sk   substrate.ClockSkewer // nil when the backend can't skew
}

// Adopt registers a node for crash/restart (and, where the backend
// supports it, clock-skew) scenarios. The node must implement
// substrate.Crasher (both backends do); substrate.ClockSkewer is
// optional (rtnet only). Panics on a duplicate name.
func (e *Engine) Adopt(n substrate.Node) *NodeHandle {
	cr, ok := n.(substrate.Crasher)
	if !ok {
		panic(fmt.Sprintf("chaos: node %q does not support crash/restart", n.Hostname()))
	}
	sk, _ := n.(substrate.ClockSkewer)
	h := &NodeHandle{e: e, name: n.Hostname(), cr: cr, sk: sk}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.nodes[h.name] != nil {
		panic(fmt.Sprintf("chaos: node %q adopted twice", h.name))
	}
	e.nodes[h.name] = h
	return h
}

// Name returns the node's scenario name (its hostname).
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
