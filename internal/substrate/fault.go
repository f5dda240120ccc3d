// Fault injection: the backend-neutral vocabulary internal/chaos uses
// to degrade a substrate. A backend exposes two capabilities:
//
//   - interfaces that can consult a FaultFunc at transmission time and
//     apply its verdict (FaultPort) — this is where packet loss,
//     corruption, duplication, and delay happen, "on the wire";
//   - nodes that can crash and restart (Crasher) — a crashed node
//     blackholes traffic and loses its installed PLAN-P layer, exactly
//     the state loss a daemon restart causes.
//
// The substrate defines only the hook shapes; all policy (probabilities,
// schedules, seeding) lives in internal/chaos. A nil FaultFunc is the
// permanent fast path: backends must not pay anything for faults that
// are not installed.
package substrate

import "time"

// FaultAction is one transmission's verdict from the fault layer. The
// zero value means "transmit normally". Backends apply the fields in
// this order: Drop wins outright; otherwise Corrupt rewrites the
// payload, Dup extra copies are transmitted alongside the original, and
// Delay is added to the delivery latency of every copy.
type FaultAction struct {
	// Drop discards the packet. The backend counts it separately from
	// queue-overflow drops and publishes obs.KindDrop with Detail
	// "fault".
	Drop bool
	// Corrupt flips one payload bit (chosen by CorruptBit) before
	// transmission. Packets with empty payloads pass unchanged —
	// header corruption would break routing invariants rather than
	// model line noise.
	Corrupt bool
	// CorruptBit selects which payload bit Corrupt flips, reduced
	// modulo the payload's bit length.
	CorruptBit int
	// Dup is the number of extra copies to transmit (0 = none). Copies
	// are clones: independent headers, shared immutable payload.
	Dup int
	// Delay is added to the delivery latency: virtual arrival time on
	// deterministic backends, a real timer on wall-clock ones.
	Delay time.Duration
}

// FaultFunc decides the fate of one transmission. It is consulted once
// per packet before queueing; the same verdict governs the original and
// any duplicates (duplicates are not re-faulted). On concurrent
// backends it is called from whatever goroutine is sending, so
// implementations synchronize internally.
type FaultFunc func(pkt *Packet) FaultAction

// FaultPort is an interface that supports fault injection at
// transmission time. Both netsim interfaces (link and segment
// attachments) and every rtnet link kind (one port type serves channel,
// loopback-UDP and cross-host links) implement it.
type FaultPort interface {
	Iface
	// SetFault installs f as the interface's fault layer (nil removes
	// it). On concurrent backends SetFault is safe while traffic flows.
	SetFault(f FaultFunc)
}

// ClockSkewer is a node whose clock the chaos engine can skew: after
// SetClockSkew(d), every Env.Now reading the node's host makes is
// shifted by d. On rtnet each daemon owns its network, so skewing a
// node skews its whole host's clock — exactly the distributed-testbed
// failure mode (drifting mono_ns stamps distort windowed rates, event
// timestamps disagree across hosts). The deterministic simulator's one
// shared virtual clock cannot drift per node, so netsim nodes do not
// implement this; clock-skew scenarios are rtnet-only and fail fast
// elsewhere.
type ClockSkewer interface {
	// SetClockSkew shifts the node's clock by d (negative skews run it
	// behind). Idempotent set, not cumulative. Safe while traffic flows.
	SetClockSkew(d time.Duration)
	// ClockSkew returns the current skew.
	ClockSkew() time.Duration
}

// Crasher is a node that supports chaos crash/restart. Both backend
// node types implement it.
type Crasher interface {
	// Crash takes the node down: received and originated packets are
	// discarded (counted as drops with Detail "crashed") and the
	// installed PLAN-P processor is removed — the state loss of a
	// killed daemon. Idempotent.
	Crash()
	// Restart brings the node back up, bare: routes and bindings
	// survive (they are configuration), the processor does not (it was
	// downloaded state). A fleet redeploy reinstalls it.
	Restart()
}

// CorruptPayload returns pkt with one payload bit flipped, as a fresh
// deep copy (transmitted payload bytes are immutable, so corruption may
// never write through the original). bit is reduced modulo the
// payload's bit length; packets with no payload are returned unchanged.
func CorruptPayload(pkt *Packet, bit int) *Packet {
	n := len(pkt.Payload) * 8
	if n == 0 {
		return pkt
	}
	bit %= n
	if bit < 0 {
		bit += n
	}
	c := pkt.CloneMut()
	c.Payload[bit/8] ^= 1 << (bit % 8)
	return c
}
