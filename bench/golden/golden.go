// Package golden holds the benchmark's hand-written and checked-in
// references. None of them is produced by the run they check: the city
// report was captured once and is byte-pinned, and the verdict table is
// written from reading the ASP sources and the paper (§2.1: protocols
// that rewrite destinations cannot pass the network-wide termination
// analysis and are verified for one node).
package golden

import (
	_ "embed"
	"strings"
)

// SimCitySeed1 is city.Run(city.Full) at seed 1: the per-region
// counter report, identical at any shard count.
//
//go:embed sim_city.seed1.txt
var SimCitySeed1 string

//go:embed verdicts.txt
var verdictsTxt string

// Verdict is what late checking must say about one in-tree ASP.
type Verdict struct {
	Network    bool // passes the network-wide analyses
	SingleNode bool // passes under the single-node assumption
}

// Verdicts parses verdicts.txt: one "name network single" line per
// ASP, '#' comments. A program that passes neither column would be
// privileged-only; no in-tree ASP is.
func Verdicts() map[string]Verdict {
	out := map[string]Verdict{}
	for _, line := range strings.Split(verdictsTxt, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			continue
		}
		out[f[0]] = Verdict{Network: f[1] == "pass", SingleNode: f[2] == "pass"}
	}
	return out
}
