// Ablation experiments: design choices DESIGN.md calls out.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/apps/audio"
	"planp.dev/planp/internal/apps/httpd"
	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/par"
)

// runAblationLocus compares in-router adaptation against end-to-end
// feedback: §3.1's argument that router-local measurement reacts
// immediately while feedback waits for a distributed computation.
func runAblationLocus(w io.Writer, opts Options) error {
	mechs := []string{"router", "feedback"}
	results := make([]*audio.LocusResult, len(mechs))
	errs := make([]error, len(mechs))
	par.ForEach(runtime.GOMAXPROCS(0), len(mechs), func(i int) {
		results[i], errs[i] = audio.RunLocus(mechs[i], audio.Options{Seed: 5})
	})
	if err := firstErr(errs); err != nil {
		return err
	}
	tbl := &obs.Table{
		Title:   "Adaptation locus: reaction to a heavy load step",
		Headers: []string{"mechanism", "reaction time", "gaps in transition", "segment drops after step"},
	}
	for _, res := range results {
		reaction := "never"
		if res.ReactionTime > 0 {
			reaction = res.ReactionTime.Round(time.Millisecond).String()
		}
		tbl.AddRow(res.Mechanism, reaction, res.GapsDuringTransition, res.DropsDuringTransition)
	}
	fmt.Fprint(w, tbl)
	fmt.Fprintln(w, "shape check: the router reacts within its load-measurement window")
	fmt.Fprintln(w, "(~250 ms). Feedback waits out its 2 s reporting interval — and its loss")
	fmt.Fprintln(w, "reports themselves cross the congested segment, so reaction stretches")
	fmt.Fprintln(w, "to multiple intervals. This is §3.1's case for in-router adaptation.")
	return nil
}

// runFailover demonstrates §5's fault-tolerance extension: a server
// crash followed by administrator removal, with service continuing on
// the survivor.
func runFailover(w io.Writer, opts Options) error {
	res, err := httpd.RunFailover(httpd.Config{Seed: 3})
	if err != nil {
		return err
	}
	tbl := &obs.Table{
		Title:   "Gateway failover: A crashes at t=8s, admin removes it at t=10s",
		Headers: []string{"metric", "value"},
	}
	tbl.AddRow("completed before crash", res.CompletedBefore)
	tbl.AddRow("lost in the 2s blackout", res.LostDuring)
	tbl.AddRow("completed after admin action", res.CompletedAfter)
	tbl.AddRow("served by A (total)", res.ServedByA)
	tbl.AddRow("served by B (total)", res.ServedByB)
	fmt.Fprint(w, tbl)
	fmt.Fprintln(w, "shape check: losses are confined to connections stuck to the dead")
	fmt.Fprintln(w, "server during the blackout; one admin datagram restores full service.")
	return nil
}

// runAblationPolicy swaps the gateway ASP between balancing policies on
// a heterogeneous cluster (server B at half capacity): §5's proposal
// that strategies are evaluated by editing the ASP.
func runAblationPolicy(w io.Writer, opts Options) error {
	policies := []struct {
		name string
		src  string
	}{
		{"modulo", asp.HTTPGateway},
		{"random", asp.HTTPGatewayRandom},
		{"least-conn", asp.HTTPGatewayLeastConn},
	}

	type policyRow struct {
		served  float64
		servedA int64
		servedB int64
		lat     time.Duration
	}
	rows := make([]policyRow, len(policies))
	errs := make([]error, len(policies))
	par.ForEach(runtime.GOMAXPROCS(0), len(policies), func(i int) {
		slowB := httpd.Apache
		slowB.Workers = 4 // half the workers of server A
		cfg := httpd.Config{
			Variant:       httpd.VariantASPGW,
			ServerB:       &slowB,
			GatewaySource: policies[i].src,
		}
		tb, err := httpd.NewTestbed(cfg)
		if err != nil {
			errs[i] = err
			return
		}
		tr1 := httpd.NewTrace(httpd.TraceConfig{Accesses: 20000, Documents: 2000, ZipfS: 1.2, MeanSize: 6000, Seed: 5})
		tr2 := httpd.NewTrace(httpd.TraceConfig{Accesses: 20000, Documents: 2000, ZipfS: 1.2, MeanSize: 6000, Seed: 6})
		c1 := httpd.NewClient(tb.Clients[0], httpd.VirtualAddr, 200, tr1)
		c2 := httpd.NewClient(tb.Clients[1], httpd.VirtualAddr, 200, tr2)
		const dur, warmup = 20 * time.Second, 5 * time.Second
		c1.Start(dur, warmup)
		c2.Start(dur, warmup)
		tb.Sim.RunUntil(dur + 2*time.Second)

		rows[i] = policyRow{
			served:  float64(c1.WarmedCompleted+c2.WarmedCompleted) / (dur - warmup).Seconds(),
			servedA: tb.ServerA.Served,
			servedB: tb.ServerB.Served,
			lat:     (c1.Latency + c2.Latency) / time.Duration(c1.Completed+c2.Completed),
		}
	})
	if err := firstErr(errs); err != nil {
		return err
	}

	tbl := &obs.Table{
		Title:   "Load-balancing policy on a heterogeneous cluster (B at half capacity)",
		Headers: []string{"policy", "served req/s @400 offered", "A served", "B served", "mean latency"},
	}
	for i, pol := range policies {
		tbl.AddRow(pol.name, rows[i].served, rows[i].servedA, rows[i].servedB, rows[i].lat.Round(time.Millisecond))
	}
	fmt.Fprint(w, tbl)
	fmt.Fprintln(w, "shape check: modulo and random overload the slow half; least-conn")
	fmt.Fprintln(w, "shifts work toward the fast server and serves more at lower latency.")
	return nil
}
