package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// deterministic lists the drivers whose output is a pure function of
// their seeds — everything except fig3 and engines, which print
// wall-clock measurements.
var deterministic = []string{
	"fig6", "fig7", "fig8", "mpeg", "ablation-locus", "ablation-policy", "failover",
	"chaos-audio", "chaos-gateway", "scale",
}

// slow marks the experiments skipped under the race detector (each is
// tens of seconds at -race; the remaining grids cover the same sharing
// surfaces).
var slow = map[string]bool{"fig8": true, "ablation-policy": true, "fig7": true, "scale": true}

func find(t *testing.T, name string) Experiment {
	t.Helper()
	for _, e := range All() {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("experiment %q not registered", name)
	return Experiment{}
}

// update rewrites the golden files from the sequential runs instead of
// comparing against them:
//
//	go test ./internal/experiments -run TestParallelOutputMatchesSequential -update
var update = flag.Bool("update", false, "rewrite testdata/<experiment>.golden from the sequential runs")

// TestParallelOutputMatchesSequential is the driver-level acceptance
// gate: for every deterministic experiment, a run at GOMAXPROCS 4 (a
// 4-worker pool) must be byte-identical to the run at GOMAXPROCS 1 (every
// cell in sequence), and the sequential run to testdata/<name>.golden.
// (cmd/aspbench adds only the per-experiment banner and the wall-clock
// footer around these bytes, so this is `GOMAXPROCS=4 aspbench -exp all`
// vs `GOMAXPROCS=1` modulo the footer.)
// A change that moves an output on purpose regenerates the files with
// -update and explains the diff.
func TestParallelOutputMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every deterministic experiment twice")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, name := range deterministic {
		if raceEnabled && slow[name] {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			e := find(t, name)
			var seq, par bytes.Buffer
			runtime.GOMAXPROCS(1)
			if err := e.Run(&seq, Options{}); err != nil {
				t.Fatalf("sequential: %v", err)
			}
			runtime.GOMAXPROCS(4)
			if err := e.Run(&par, Options{}); err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if seq.String() != par.String() {
				t.Errorf("output differs between GOMAXPROCS 1 and 4:\n%s", firstDiff(seq.String(), par.String()))
			}
			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, seq.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if seq.String() != string(want) {
				t.Errorf("output differs from %s:\n%s", golden, firstDiff(string(want), seq.String()))
			}
		})
	}
}

// firstDiff returns the first differing line pair for a readable
// failure message.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return "length mismatch"
}

// TestExperimentRegistry pins the canonical names cmd/aspbench exposes.
func TestExperimentRegistry(t *testing.T) {
	want := []string{"fig3", "fig6", "fig7", "fig8", "mpeg", "engines", "ablation-locus", "ablation-policy", "failover", "chaos-audio", "chaos-gateway", "scale"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.Name != want[i] {
			t.Errorf("registry[%d] = %q, want %q", i, e.Name, want[i])
		}
		if e.Desc == "" || e.Run == nil {
			t.Errorf("registry[%d] %q incomplete", i, e.Name)
		}
	}
}

// TestDriversWriteOnlyToWriter ensures a driver never prints to
// process-global stdout: run one cheap experiment and require
// everything to land in the passed writer (non-empty output).
func TestDriversWriteOnlyToWriter(t *testing.T) {
	var buf bytes.Buffer
	if err := find(t, "ablation-locus").Run(&buf, Options{}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("driver produced no output on the provided writer")
	}
	if err := find(t, "failover").Run(io.Discard, Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestShardOutputMatchesSingle is the sharding acceptance gate at the
// driver level: Options.Shards reaches the scale experiment alone (the
// only topology that declares shard boundaries), where the city really
// splits into four event loops and must print byte-identical output.
func TestShardOutputMatchesSingle(t *testing.T) {
	t.Run("scale", func(t *testing.T) {
		e := find(t, "scale")
		var one, four bytes.Buffer
		if err := e.Run(&one, Options{Shards: 1}); err != nil {
			t.Fatalf("shards=1: %v", err)
		}
		if err := e.Run(&four, Options{Shards: 4}); err != nil {
			t.Fatalf("shards=4: %v", err)
		}
		if one.String() != four.String() {
			t.Errorf("output differs between -shards 1 and -shards 4:\n%s", firstDiff(one.String(), four.String()))
		}
	})
}
