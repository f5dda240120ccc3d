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
// # Time
//
// Scenario timelines execute through substrate.Env.After: virtual time
// on netsim (a 10-minute scenario replays in milliseconds), wall-clock
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
	"sort"
	"sync"
	"time"

	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/substrate"
)

// Engine owns the fault state for one substrate environment: the seeded
// RNG, the wired links, the adopted nodes, and the chaos.* counters.
// All mutation goes through the engine's mutex, so scenario actions may
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
// DirFwd is a→b and DirRev is b→a.
const (
	DirFwd = 0
	DirRev = 1
)

// dirFaults is the fault state of one direction of a link.
type dirFaults struct {
	down    bool
	loss    float64       // P(drop) per packet
	corrupt float64       // P(one payload bit flips) per packet
	dup     float64       // P(one extra copy) per packet
	delay   time.Duration // fixed extra latency per packet
	jitter  time.Duration // uniform [0, jitter) extra latency — reorders
}

// Link is the engine's handle on one faultable link: a named set of
// fault ports sharing the link's fault state. A link wired with Wire
// is symmetric — both directions degrade together, which is what cable
// damage and congested paths look like. A link wired with WireDuplex
// keeps per-direction state: the whole-link methods below still apply
// to both directions at once, and Fwd/Rev address one direction — the
// asymmetric-fault grain (a path congested one way, a half-broken
// transceiver, a cross-host link whose far half lives in another
// process).
type Link struct {
	e      *Engine
	name   string
	duplex bool
	ports  [2][]substrate.FaultPort

	// Per-direction fault state, guarded by e.mu. Symmetric links use
	// only state[DirFwd]; the whole-link setters write both so a link
	// upgraded to duplex behaves identically.
	state [2]dirFaults
}

// Wire attaches the engine to a named link: every given port consults
// (and shares) the link's fault state on each transmission — symmetric
// faults. Pass a duplex link's two directional interfaces; for
// independent per-direction state use WireDuplex. Panics on a
// duplicate name — scenarios address links by name, so collisions are
// author errors.
func (e *Engine) Wire(name string, ports ...substrate.FaultPort) *Link {
	if len(ports) == 0 {
		panic("chaos: Wire needs at least one port")
	}
	l := &Link{e: e, name: name}
	l.ports[DirFwd] = ports
	e.addLink(l)
	for _, p := range ports {
		p.SetFault(func(pkt *substrate.Packet) substrate.FaultAction {
			return l.fault(DirFwd, pkt)
		})
	}
	return l
}

// WireDuplex attaches the engine to a named link with independent
// per-direction fault state: fwd ports carry the a→b direction of a
// link named "a-b", rev ports b→a. Either side may be empty when only
// one direction is locally owned — the cross-host case, where each
// daemon wires its outbound half and the peer daemon wires the other.
func (e *Engine) WireDuplex(name string, fwd, rev []substrate.FaultPort) *Link {
	if len(fwd)+len(rev) == 0 {
		panic("chaos: WireDuplex needs at least one port")
	}
	l := &Link{e: e, name: name, duplex: true}
	l.ports[DirFwd], l.ports[DirRev] = fwd, rev
	e.addLink(l)
	for dir, ports := range l.ports {
		dir := dir
		for _, p := range ports {
			p.SetFault(func(pkt *substrate.Packet) substrate.FaultAction {
				return l.fault(dir, pkt)
			})
		}
	}
	return l
}

func (e *Engine) addLink(l *Link) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.links[l.name] != nil {
		panic(fmt.Sprintf("chaos: link %q wired twice", l.name))
	}
	e.links[l.name] = l
}

// link resolves a wired link by name; scenarios that reference unknown
// links fail fast.
func (e *Engine) link(name string) *Link {
	l, ok := e.LookupLink(name)
	if !ok {
		panic(fmt.Sprintf("chaos: no link wired as %q", name))
	}
	return l
}

// LookupLink resolves a wired link by name without panicking — the
// control-plane (remote /chaos API) validation path.
func (e *Engine) LookupLink(name string) (*Link, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	l := e.links[name]
	return l, l != nil
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

// node resolves an adopted node by name.
func (e *Engine) node(name string) *NodeHandle {
	h, ok := e.LookupNode(name)
	if !ok {
		panic(fmt.Sprintf("chaos: no node adopted as %q", name))
	}
	return h
}

// LookupNode resolves an adopted node by name without panicking.
func (e *Engine) LookupNode(name string) (*NodeHandle, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	h := e.nodes[name]
	return h, h != nil
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
func (l *Link) fault(dir int, _ *substrate.Packet) substrate.FaultAction {
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

// Name returns the link's scenario name.
func (l *Link) Name() string { return l.name }

// Duplex reports whether the link was wired with per-direction state.
func (l *Link) Duplex() bool { return l.duplex }

// Fwd returns the handle on the link's forward (a→b) direction.
// Panics unless the link was wired with WireDuplex — a symmetric link
// has no directions to address.
func (l *Link) Fwd() *LinkDir { return l.dirHandle(DirFwd) }

// Rev returns the handle on the link's reverse (b→a) direction.
func (l *Link) Rev() *LinkDir { return l.dirHandle(DirRev) }

func (l *Link) dirHandle(dir int) *LinkDir {
	if !l.duplex {
		panic(fmt.Sprintf("chaos: link %q is symmetric (use WireDuplex for per-direction faults)", l.name))
	}
	return &LinkDir{l: l, dir: dir}
}

// eachDir applies fn to every direction's state under the engine lock.
func (l *Link) eachDir(fn func(st *dirFaults)) {
	l.e.mu.Lock()
	fn(&l.state[DirFwd])
	fn(&l.state[DirRev])
	l.e.mu.Unlock()
}

// Down cuts the link — both directions: every transmission drops until
// Up. Idempotent; only the transition emits KindFault and counts.
func (l *Link) Down() {
	var was bool
	l.eachDir(func(st *dirFaults) { was = was || st.down; st.down = true })
	if !was {
		l.e.ct.linkDown.Inc()
		l.e.emit(obs.KindFault, l.name, "link-down")
	}
}

// Up restores a downed link (both directions). Idempotent.
func (l *Link) Up() {
	var was bool
	l.eachDir(func(st *dirFaults) { was = was || st.down; st.down = false })
	if was {
		l.e.ct.linkUp.Inc()
		l.e.emit(obs.KindHeal, l.name, "link-up")
	}
}

// IsDown reports whether any direction of the link is cut.
func (l *Link) IsDown() bool {
	l.e.mu.Lock()
	defer l.e.mu.Unlock()
	return l.state[DirFwd].down || l.state[DirRev].down
}

// SetLoss sets the per-packet drop probability (both directions).
func (l *Link) SetLoss(p float64) {
	l.eachDir(func(st *dirFaults) { st.loss = p })
	l.e.emit(obs.KindFault, l.name, fmt.Sprintf("loss=%.2f", p))
}

// SetCorrupt sets the per-packet probability of flipping one payload
// bit (both directions).
func (l *Link) SetCorrupt(p float64) {
	l.eachDir(func(st *dirFaults) { st.corrupt = p })
	l.e.emit(obs.KindFault, l.name, fmt.Sprintf("corrupt=%.2f", p))
}

// SetDup sets the per-packet probability of transmitting one extra
// copy (both directions).
func (l *Link) SetDup(p float64) {
	l.eachDir(func(st *dirFaults) { st.dup = p })
	l.e.emit(obs.KindFault, l.name, fmt.Sprintf("dup=%.2f", p))
}

// SetDelay sets the fixed extra latency added to every packet (both
// directions).
func (l *Link) SetDelay(d time.Duration) {
	l.eachDir(func(st *dirFaults) { st.delay = d })
	l.e.emit(obs.KindFault, l.name, fmt.Sprintf("delay=%s", d))
}

// SetJitter sets the bound of the uniform [0, d) extra latency drawn
// per packet — the reordering primitive (both directions).
func (l *Link) SetJitter(d time.Duration) {
	l.eachDir(func(st *dirFaults) { st.jitter = d })
	l.e.emit(obs.KindFault, l.name, fmt.Sprintf("jitter=%s", d))
}

// Clear resets every fault on the link (including down, in both
// directions) and emits KindHeal.
func (l *Link) Clear() {
	l.eachDir(func(st *dirFaults) { *st = dirFaults{} })
	l.e.emit(obs.KindHeal, l.name, "clear")
}

// LinkDir is the handle on one direction of a duplex-wired link — the
// asymmetric-fault surface. It mirrors Link's fault setters, scoped to
// its direction; events carry a ":fwd"/":rev" suffix.
type LinkDir struct {
	l   *Link
	dir int
}

// Name returns the direction's scenario name ("<link>:fwd").
func (d *LinkDir) Name() string { return d.l.name + ":" + d.label() }

func (d *LinkDir) label() string {
	if d.dir == DirFwd {
		return "fwd"
	}
	return "rev"
}

func (d *LinkDir) set(fn func(st *dirFaults), kind obs.Kind, detail string) {
	d.l.e.mu.Lock()
	fn(&d.l.state[d.dir])
	d.l.e.mu.Unlock()
	d.l.e.emit(kind, d.l.name, detail+":"+d.label())
}

// Down cuts this direction only; the opposite direction still carries
// traffic — the half-broken-link fault.
func (d *LinkDir) Down() {
	var was bool
	d.l.e.mu.Lock()
	st := &d.l.state[d.dir]
	was, st.down = st.down, true
	d.l.e.mu.Unlock()
	if !was {
		d.l.e.ct.linkDown.Inc()
		d.l.e.emit(obs.KindFault, d.l.name, "link-down:"+d.label())
	}
}

// Up restores this direction. Idempotent.
func (d *LinkDir) Up() {
	var was bool
	d.l.e.mu.Lock()
	st := &d.l.state[d.dir]
	was, st.down = st.down, false
	d.l.e.mu.Unlock()
	if was {
		d.l.e.ct.linkUp.Inc()
		d.l.e.emit(obs.KindHeal, d.l.name, "link-up:"+d.label())
	}
}

// IsDown reports whether this direction is cut.
func (d *LinkDir) IsDown() bool {
	d.l.e.mu.Lock()
	defer d.l.e.mu.Unlock()
	return d.l.state[d.dir].down
}

// SetLoss sets this direction's per-packet drop probability.
func (d *LinkDir) SetLoss(p float64) {
	d.set(func(st *dirFaults) { st.loss = p }, obs.KindFault, fmt.Sprintf("loss=%.2f", p))
}

// SetCorrupt sets this direction's per-packet bit-flip probability.
func (d *LinkDir) SetCorrupt(p float64) {
	d.set(func(st *dirFaults) { st.corrupt = p }, obs.KindFault, fmt.Sprintf("corrupt=%.2f", p))
}

// SetDup sets this direction's per-packet duplication probability.
func (d *LinkDir) SetDup(p float64) {
	d.set(func(st *dirFaults) { st.dup = p }, obs.KindFault, fmt.Sprintf("dup=%.2f", p))
}

// SetDelay sets this direction's fixed extra latency.
func (d *LinkDir) SetDelay(dur time.Duration) {
	d.set(func(st *dirFaults) { st.delay = dur }, obs.KindFault, fmt.Sprintf("delay=%s", dur))
}

// SetJitter sets this direction's reordering jitter bound.
func (d *LinkDir) SetJitter(dur time.Duration) {
	d.set(func(st *dirFaults) { st.jitter = dur }, obs.KindFault, fmt.Sprintf("jitter=%s", dur))
}

// Clear resets every fault on this direction.
func (d *LinkDir) Clear() {
	d.set(func(st *dirFaults) { *st = dirFaults{} }, obs.KindHeal, "clear")
}

// faultSurface is the setter surface shared by a whole link and one
// direction of it — what scenario actions and the timeline codec
// address.
type faultSurface interface {
	Down()
	Up()
	SetLoss(p float64)
	SetCorrupt(p float64)
	SetDup(p float64)
	SetDelay(d time.Duration)
	SetJitter(d time.Duration)
	Clear()
}

var (
	_ faultSurface = (*Link)(nil)
	_ faultSurface = (*LinkDir)(nil)
)

// surface resolves a link (dir == "") or one direction of it (dir
// "fwd"/"rev") to its fault surface. Panics on unknown links, unknown
// directions, and directions of symmetric links — the fail-fast
// scenario contract; the timeline codec validates first.
func (e *Engine) surface(link, dir string) faultSurface {
	l := e.link(link)
	switch dir {
	case "":
		return l
	case "fwd":
		return l.Fwd()
	case "rev":
		return l.Rev()
	default:
		panic(fmt.Sprintf("chaos: link direction %q (want \"fwd\", \"rev\", or empty)", dir))
	}
}

// PartitionLinks cuts the named set of links at once — the partition
// primitive (a partition IS a set of downed links).
func (e *Engine) PartitionLinks(names ...string) {
	for _, name := range names {
		e.link(name).Down()
	}
}

// HealLinks restores the named links, or every wired link when called
// with no names.
func (e *Engine) HealLinks(names ...string) {
	if len(names) == 0 {
		names = e.LinkNames()
	}
	for _, name := range names {
		e.link(name).Up()
	}
}

// ClearAll resets every fault the engine has injected: all link state
// (both directions), and clock skew on every adopted node that
// supports it. Crashed nodes stay crashed — recovering a node is a
// deliberate Restart, not a side effect of stopping a timeline.
func (e *Engine) ClearAll() {
	for _, name := range e.LinkNames() {
		e.link(name).Clear()
	}
	for _, name := range e.NodeNames() {
		if h := e.node(name); h.CanSkew() && h.sk.ClockSkew() != 0 {
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
// backends without clock-skew support; scenarios targeting netsim must
// not schedule skew, and the timeline codec rejects them up front.
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
