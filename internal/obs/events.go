// Package obs is the observability substrate shared by the simulator,
// the ASP runtime, the experiment drivers, and the benchmark harness:
// a typed event bus published to at packet granularity, and a metrics
// registry (counters, gauges, histograms, time series) that is the one
// source experiments and tests read measurements from.
//
// Design constraints, in order:
//
//  1. Determinism. Everything here is driven by virtual time supplied
//     by the caller; subscribers fire in subscription order; nothing
//     reads wall clocks. Two runs with the same seed produce the same
//     event stream and the same metric values.
//  2. A free no-op path. A Bus with no subscribers must cost nothing on
//     the packet hot path: callers guard event construction with
//     Bus.Active(), which inlines to a nil/len check, so an unobserved
//     simulation does not even build the Event value.
//  3. Allocation-light. Event is a small value struct of scalars and
//     static strings; the built-in subscribers (Ring, CountingSink) do
//     not allocate per event.
package obs

import (
	"fmt"
	"io"
	"time"
)

// Kind classifies an Event. The taxonomy is packet-granular: one event
// per decision the network substrate or the ASP layer makes about a
// packet.
type Kind uint8

// Event kinds.
const (
	// KindEnqueue: a link's medium took one copy of a packet (it is now
	// occupying link or segment capacity, or waiting out a fault
	// delay). Node is the link endpoint's name.
	KindEnqueue Kind = iota
	// KindDrop: a packet was discarded. Detail is the reason, one of a
	// closed set. A wire drop has the link endpoint as Node and counts
	// in its link's loss counters:
	//   - "queue": a drop-tail queue or a node's inbox was full;
	//   - "fault": the fault layer dropped it (counted apart);
	//   - "oversize": it does not fit one datagram;
	//   - "socket": the datagram write failed;
	//   - "link-down": a cross-host link is not up;
	//   - "codec-reject": a received datagram did not parse (no packet
	//     fields);
	//   - "no-handshake": data arrived on a cross-host link before its
	//     handshake (no packet fields).
	// A node drop has the node as Node and counts in its dropped_pkts:
	//   - "ttl": the TTL would expire;
	//   - "no-route": no interface it may leave by;
	//   - "no-binding": delivered locally with no application bound;
	//   - "crashed": the node is down.
	KindDrop
	// KindForward: a router forwarded a packet (TTL decremented).
	KindForward
	// KindDeliver: a packet was delivered to a local application.
	KindDeliver
	// KindASPInvoke: an installed PLAN-P protocol handled a packet
	// (Detail is the channel name).
	KindASPInvoke
	// KindVerifyReject: a protocol download was refused by late
	// checking or the single-node deployment limit.
	KindVerifyReject
	// KindDeploy: a fleet rollout step completed on a node (Node is the
	// fleet target name; Detail is "<phase>:<outcome>", e.g.
	// "stage:ok", "activate:failed").
	KindDeploy
	// KindRollback: a fleet rollout reverted a node to the previously
	// active protocol version (Detail is the restored version, or the
	// abort reason for staged-only nodes).
	KindRollback
	// KindFault: the chaos engine degraded the network (Node is the
	// link or node name; Detail says how: "link-down", "crash",
	// "loss=0.10", ...).
	KindFault
	// KindHeal: the chaos engine restored what a KindFault degraded
	// (Detail "link-up", "restart", "clear").
	KindHeal
	// KindCanary: the adaptation controller moved a canary rollout
	// through its lifecycle (Node is the deployment's version label;
	// Detail is "active", "window:<n>:ok", "window:<n>:violation",
	// "promoted", "rolled-back", "unobservable").
	KindCanary
	// KindAdapt: the adaptation policy engine made a protocol-selection
	// decision (Detail is "switch:<from>-><to>" on a redeploy, or
	// "hold:<candidate>" when hysteresis/cooldown suppressed one).
	KindAdapt
	// KindLink: a cross-host rtnet link changed state (Node is the
	// "<local>:<peer>" link name; Detail is "up", "up:reconnect",
	// "down:<reason>" — goodbye, probe-timeout — or
	// "rejected:<reason>" when the handshake refused the peer).
	KindLink

	numKinds
)

// NumKinds is the number of event kinds (sizing per-kind tables).
const NumKinds = int(numKinds)

var kindNames = [numKinds]string{
	"enqueue", "drop", "forward", "deliver", "asp-invoke", "verify-reject",
	"deploy", "rollback", "fault", "heal", "canary", "adapt", "link",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one observed occurrence. It is a plain value: publishing one
// does not allocate, and subscribers may retain copies freely.
//
// Src and Dst are packed big-endian IPv4-style addresses (the
// simulator's Addr representation); Node is the name of the node or
// medium where the event happened; Detail is a static refinement string
// (drop reason, channel name) — empty on most events.
type Event struct {
	Kind   Kind
	At     time.Duration // virtual time
	Node   string
	Src    uint32
	Dst    uint32
	Size   int // packet size in bytes on the wire
	Detail string
}

// AppendAddr appends a packed big-endian IPv4-style address to dst as a
// dotted quad. Hand-rolled (no fmt) because address rendering sits on
// the per-event String path; substrate.Addr.String shares it.
func AppendAddr(dst []byte, a uint32) []byte {
	for shift := 24; shift >= 0; shift -= 8 {
		dst = appendOctet(dst, byte(a>>shift))
		if shift > 0 {
			dst = append(dst, '.')
		}
	}
	return dst
}

func appendOctet(dst []byte, o byte) []byte {
	if o >= 100 {
		dst = append(dst, '0'+o/100)
	}
	if o >= 10 {
		dst = append(dst, '0'+o/10%10)
	}
	return append(dst, '0'+o%10)
}

// String renders the event as one pcap-style text line (no newline).
func (e Event) String() string {
	var src, dst [15]byte
	s := fmt.Sprintf("%10.6f %-13s %-10s %s->%s %dB",
		e.At.Seconds(), e.Kind, e.Node, AppendAddr(src[:0], e.Src), AppendAddr(dst[:0], e.Dst), e.Size)
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// Subscriber consumes events. OnEvent is called synchronously from the
// publishing site, in subscription order, under the simulator's
// single-threaded event loop — implementations need no locking of their
// own unless they are shared across simulations.
type Subscriber interface {
	OnEvent(Event)
}

// Func adapts a function to the Subscriber interface.
type Func func(Event)

// OnEvent implements Subscriber.
func (f Func) OnEvent(ev Event) { f(ev) }

// Bus fans events out to subscribers. The zero value is a valid, inert
// bus. Publishing with no subscribers does nothing; callers on hot
// paths should guard with Active() so the Event value is never built:
//
//	if bus.Active() {
//		bus.Publish(obs.Event{...})
//	}
//
// Bus is not safe for concurrent use; it belongs to a single
// simulation's event loop.
type Bus struct {
	subs []Subscriber
}

// Active reports whether anyone is listening. It is safe on a nil bus
// and cheap enough to guard per-packet call sites.
func (b *Bus) Active() bool { return b != nil && len(b.subs) > 0 }

// Subscribe adds s to the fan-out. Subscribers are invoked in
// subscription order.
func (b *Bus) Subscribe(s Subscriber) { b.subs = append(b.subs, s) }

// Unsubscribe removes the first occurrence of s.
func (b *Bus) Unsubscribe(s Subscriber) {
	for i, cur := range b.subs {
		if cur == s {
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			return
		}
	}
}

// Publish delivers ev to every subscriber in order.
func (b *Bus) Publish(ev Event) {
	for _, s := range b.subs {
		s.OnEvent(ev)
	}
}

// ---------------------------------------------------------------------------
// Built-in subscribers

// Ring keeps the last N events in a fixed ring buffer ("flight
// recorder"): attach it for a whole run and read the tail after a
// failure without paying for unbounded growth.
type Ring struct {
	buf   []Event
	next  int
	count int
}

// NewRing returns a ring holding the most recent n events.
func NewRing(n int) *Ring {
	if n <= 0 {
		n = 1
	}
	return &Ring{buf: make([]Event, n)}
}

// OnEvent implements Subscriber.
func (r *Ring) OnEvent(ev Event) {
	r.buf[r.next] = ev
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
}

// Len returns the number of buffered events.
func (r *Ring) Len() int { return r.count }

// Events returns the buffered events oldest-first (a copy).
func (r *Ring) Events() []Event {
	out := make([]Event, 0, r.count)
	start := r.next - r.count
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.count; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// CountingSink tallies events by kind — the cheapest way to assert on
// aggregate behavior in tests and ablations.
type CountingSink struct {
	counts [numKinds]int64
}

// OnEvent implements Subscriber.
func (c *CountingSink) OnEvent(ev Event) {
	if int(ev.Kind) < len(c.counts) {
		c.counts[ev.Kind]++
	}
}

// Count returns the number of events seen of kind k.
func (c *CountingSink) Count(k Kind) int64 {
	if int(k) < len(c.counts) {
		return c.counts[k]
	}
	return 0
}

// Total returns the number of events seen of any kind.
func (c *CountingSink) Total() int64 {
	var t int64
	for _, n := range c.counts {
		t += n
	}
	return t
}

// TextLog writes one line per event — the pcap-style text trace behind
// planp.WithTraceWriter.
type TextLog struct {
	w io.Writer
}

// NewTextLog returns a subscriber logging to w.
func NewTextLog(w io.Writer) *TextLog { return &TextLog{w: w} }

// OnEvent implements Subscriber.
func (l *TextLog) OnEvent(ev Event) {
	fmt.Fprintln(l.w, ev.String())
}
