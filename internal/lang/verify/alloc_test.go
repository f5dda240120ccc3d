package verify

import (
	"testing"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/parser"
	"planp.dev/planp/internal/lang/typecheck"
)

// TestCheckVerifyAllocs pins what checking and verifying a fresh parse
// of each in-tree ASP allocates, once the checker's and the verifier's
// pooled workspaces are warm: the tree's types, the Info and its
// tables, the Signature and the Result, and no scratch. Each bound is
// the count measured when the workspaces were pooled plus a little;
// with a checker and a verifier that allocated their scratch per run,
// every program allocated more than twice its bound.
func TestCheckVerifyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled workspaces at random")
	}
	for _, c := range []struct {
		name, src string
		max       float64
	}{
		{"audio-router", asp.AudioRouter, 33},
		{"audio-client", asp.AudioClient, 22},
		{"http-gateway", asp.HTTPGateway, 54},
		{"mpeg-monitor", asp.MPEGMonitor, 74},
		{"mpeg-client", asp.MPEGClient, 28},
		{"gw-random", asp.HTTPGatewayRandom, 54},
		{"gw-leastconn", asp.HTTPGatewayLeastConn, 53},
		{"gw-failover", asp.HTTPGatewayFailover, 61},
		{"bench-compute", asp.BenchCompute, 24},
	} {
		const runs = 50
		// Check annotates the tree it checks, so every run gets its own
		// parse: runs, AllocsPerRun's warm-up, and one more before it.
		progs := make([]*ast.Program, runs+2)
		for i := range progs {
			var err error
			if progs[i], err = parser.Parse(c.src); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		checkVerify := func(prog *ast.Program) {
			info, err := typecheck.Check(prog)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			Verify(info)
		}
		checkVerify(progs[runs+1])
		i := 0
		if n := testing.AllocsPerRun(runs, func() { checkVerify(progs[i]); i++ }); n > c.max {
			t.Errorf("%s: Check + Verify allocate %.0f times, want at most %.0f", c.name, n, c.max)
		}
	}
}
