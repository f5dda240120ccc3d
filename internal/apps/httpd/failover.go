// Failover experiment (§5's fault-tolerance extension): server A
// crashes mid-run, the administrator marks it down with one datagram to
// the gateway, and service continues on server B — clients keep talking
// to the virtual address throughout.
package httpd

import (
	"time"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/substrate"
)

// AdminPort receives administrator reconfiguration datagrams (matches
// asp/http_gateway_failover.planp).
const AdminPort = 9999

// MarkServer sends the administrator datagram taking a server out of
// ('D') or back into ('U') rotation. from may be any host that can
// reach the gateway.
func MarkServer(from substrate.Node, gateway, server substrate.Addr, down bool) {
	tag := byte('U')
	if down {
		tag = 'D'
	}
	payload := []byte{tag,
		byte(server >> 24), byte(server >> 16), byte(server >> 8), byte(server)}
	from.Send(substrate.NewUDP(from.Address(), gateway, AdminPort, AdminPort, payload).Own())
}

// FailoverResult summarizes the failover timeline.
type FailoverResult struct {
	CompletedBefore int64 // completions before the crash
	LostDuring      int64 // requests issued in the blackout window that never completed
	CompletedAfter  int64 // completions after the admin marked A down
	ServedByA       int64
	ServedByB       int64
}

// RunFailover drives the timeline: steady load against the virtual
// address; A crashes at crashAt; the administrator reacts at adminAt;
// the run ends at end. The variant and gateway source are fixed by the
// scenario and overwritten in cfg; Engine and Seed pass through to
// the testbed.
func RunFailover(cfg Config) (*FailoverResult, error) {
	const (
		crashAt = 8 * time.Second
		adminAt = 10 * time.Second
		end     = 20 * time.Second
		rate    = 100 // req/s, comfortably under one server's capacity
	)
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	cfg.Variant, cfg.GatewaySource = VariantASPGW, asp.HTTPGatewayFailover
	tb, err := NewTestbed(cfg)
	if err != nil {
		return nil, err
	}
	tr := NewTrace(TraceConfig{Accesses: 10000, Documents: 1000, ZipfS: 1.2, MeanSize: 6000, Seed: cfg.Seed})
	client := NewClient(tb.Clients[0], VirtualAddr, rate, tr)
	client.Start(end, 0)

	res := &FailoverResult{}
	tb.Sim.At(crashAt, func() {
		res.CompletedBefore = client.Completed
		tb.ServerA.Fail()
	})
	tb.Sim.At(adminAt, func() {
		MarkServer(tb.Clients[1], tb.Gateway.Addr, Server0Addr, true)
	})
	var completedAtAdmin int64
	tb.Sim.At(adminAt+50*time.Millisecond, func() { completedAtAdmin = client.Completed })
	tb.Sim.RunUntil(end + 2*time.Second)

	res.CompletedAfter = client.Completed - completedAtAdmin
	// Requests lost: issued during the blackout on connections stuck to
	// the dead server — whatever never completed by the end of the run.
	res.LostDuring = int64(len(client.inFlight))
	res.ServedByA = tb.ServerA.Served
	res.ServedByB = tb.ServerB.Served
	return res, nil
}
