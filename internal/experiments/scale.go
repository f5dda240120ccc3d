package experiments

import (
	"fmt"
	"io"

	"planp.dev/planp/internal/apps/city"
)

// runScale runs the city-scale sharded scenario (internal/apps/city):
// regional clusters — each a §3.2 ASP gateway cluster plus a §3.1 audio
// multicast tree — joined by a backbone ring of shard-boundary links.
// Options.Shards picks the number of parallel event loops; ScaleFull
// switches from the CI-sized city to the full metropolitan deployment.
//
// Everything written here is shard-count-independent by construction
// (per-region traffic counters, event and packet totals — never the
// effective shard count or any wall-clock measurement): the CI scale
// job diffs this output between -shards 1 and -shards 4, and
// `planpbench -workload sim_city` owns the throughput number.
func runScale(w io.Writer, opts Options) error {
	cfg := city.CI
	label := "CI-sized"
	if opts.ScaleFull {
		cfg = city.Full
		label = "full metropolitan"
	}
	cfg.Shards = opts.Shards
	res, err := city.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "city scale experiment (%s): %d regions, %d nodes, %d modeled clients\n",
		label, cfg.Regions, res.Nodes, res.Clients)
	fmt.Fprintf(w, "deterministic counters (identical at any shard count):\n")
	fmt.Fprint(w, res.Output)
	fmt.Fprintf(w, "city.packets %d\n", res.Packets)
	return nil
}
