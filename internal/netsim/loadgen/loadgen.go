// Package loadgen generates background traffic: the "load generator" of
// figure 5 that contends with audio traffic on the client segment, and
// the stepped-load schedule that drives figure 6.
package loadgen

import (
	"time"

	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/substrate"
)

// Step is one phase of a load schedule.
type Step struct {
	At   time.Duration // phase start
	Bps  int64         // offered load in bits/s (0 = silence)
	Size int           // packet payload size (default 1000 bytes)
}

// Generator emits UDP background traffic from a node toward a
// destination according to a stepped schedule.
type Generator struct {
	Node    *netsim.Node
	Dst     netsim.Addr
	DstPort uint16
	Steps   []Step

	sent      int64
	sentBytes int64
	stopped   bool
}

// Start schedules the generator's traffic until end. Packets within each
// phase are evenly spaced at the phase's offered rate.
func (g *Generator) Start(sim *netsim.Simulator, end time.Duration) {
	for i, step := range g.Steps {
		phaseEnd := end
		if i+1 < len(g.Steps) {
			phaseEnd = g.Steps[i+1].At
		}
		if step.Bps <= 0 {
			continue
		}
		size := step.Size
		if size <= 0 {
			size = 1000
		}
		wire := size + substrate.IPHeaderLen + substrate.UDPHeaderLen
		interval := time.Duration(int64(wire) * 8 * int64(time.Second) / step.Bps)
		if interval <= 0 {
			interval = time.Microsecond
		}
		// One zero payload serves the whole phase: transmitted payloads
		// are immutable, and a rewriter copies with CloneMut.
		payload := make([]byte, size)
		for at := step.At; at < phaseEnd; at += interval {
			t := at
			sim.At(t, func() {
				if g.stopped {
					return
				}
				pkt := netsim.NewUDP(g.Node.Addr, g.Dst, 40000, g.DstPort, payload)
				g.sent++
				g.sentBytes += int64(pkt.Size())
				g.Node.Send(pkt.Own())
			})
		}
	}
}

// Stop silences the generator (pending events become no-ops).
func (g *Generator) Stop() { g.stopped = true }

// Sent returns packets and bytes emitted so far.
func (g *Generator) Sent() (pkts, bytes int64) { return g.sent, g.sentBytes }

// Poisson calls Emit at exponentially distributed intervals with the
// given mean rate: the background load of the audio testbed
// (audio.Testbed.StartPoissonLoad, figure 7).
type Poisson struct {
	Rate float64 // arrivals per second
	Emit func()  // called per arrival

	stopped bool
}

// Start begins the arrival process at virtual time start, running until
// end.
func (p *Poisson) Start(sim *netsim.Simulator, start, end time.Duration) {
	if p.Rate <= 0 {
		return
	}
	var schedule func(at time.Duration)
	schedule = func(at time.Duration) {
		if at >= end {
			return
		}
		sim.At(at, func() {
			if p.stopped {
				return
			}
			p.Emit()
			gap := time.Duration(sim.ExpFloat64() / p.Rate * float64(time.Second))
			if gap <= 0 {
				gap = time.Microsecond
			}
			schedule(sim.Now() + gap)
		})
	}
	first := start + time.Duration(sim.ExpFloat64()/p.Rate*float64(time.Second))
	schedule(first)
}

// Stop halts the arrival process.
func (p *Poisson) Stop() { p.stopped = true }
