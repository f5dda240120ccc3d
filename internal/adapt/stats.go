// Metric snapshots and windows: the adaptation controller's eyes.
//
// planpd's GET /stats stamps every counter snapshot with mono_ns — a
// monotonic timestamp taken on the node at snapshot time. A Window is
// two such snapshots from the same node; its rates divide counter
// deltas by the *node's* elapsed time, so a rate is internally
// consistent no matter how long the poll responses spent in flight or
// how the controller's own clock drifts. All decision logic downstream
// (guards, policies) consumes Windows, never raw timestamps.
package adapt

import (
	"time"

	"planp.dev/planp/internal/planpd"
)

// maxStatsBody bounds a /stats answer, read through the one
// control-plane client (planpd.Exchange).
const maxStatsBody = 1 << 20

// Snapshot is one node's counter registry at one instant, as served by
// planpd's GET /stats.
type Snapshot = planpd.Stats

// Window is two snapshots of the same node's registry, Before taken
// earlier than After. The zero value is empty (all deltas and rates 0).
type Window struct {
	Before, After Snapshot
}

// Duration is the node-measured time between the snapshots.
func (w Window) Duration() time.Duration {
	return time.Duration(w.After.MonoNS - w.Before.MonoNS)
}

// Delta returns how much the named counter grew across the window
// (missing counters count as 0 — registries only ever add names).
func (w Window) Delta(name string) int64 {
	return w.After.Stats[name] - w.Before.Stats[name]
}

// Rate returns the counter's growth in events per second, computed
// entirely from node-side measurements. A degenerate window (zero or
// negative duration — e.g. the daemon restarted between polls and
// mono_ns went backwards) rates as 0.
func (w Window) Rate(name string) float64 {
	d := w.Duration()
	if d <= 0 {
		return 0
	}
	return float64(w.Delta(name)) / d.Seconds()
}
