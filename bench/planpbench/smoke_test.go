package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lastLine decodes the result object the benchmark prints last.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return r
}

// TestSmoke runs every workload for one tiny round with all output
// checks on, so a change elsewhere in the repo that breaks an entry
// point the benchmark calls, or an output it checks, fails here rather
// than in the measuring pipeline.
func TestSmoke(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-smoke"}, &out, &errb); code != 0 {
		t.Fatalf("planpbench -smoke exited %d\nstderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	r := lastLine(t, out.String())
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Errorf("smoke result: correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	for _, w := range workloadNames {
		for _, m := range []string{"ops_s", "setup_s", "alloc_b_op"} {
			if v, ok := r.Metrics[w+"/"+m]; !ok || v.Value <= 0 {
				t.Errorf("%s/%s = %+v, want a positive value", w, m, v)
			}
		}
	}
}

// TestSmokeTraced runs the traced pass of the two workloads whose span
// trees have children, tiny, and checks every per-layer metric of
// BENCHMARK.json is printed and the spans are written.
func TestSmokeTraced(t *testing.T) {
	var spec struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"sim_gateway", "deploy"} {
		path := filepath.Join(t.TempDir(), "trace.json")
		var out, errb bytes.Buffer
		if code := run([]string{"-smoke", "-workload", w, "-trace", path}, &out, &errb); code != 0 {
			t.Fatalf("traced %s exited %d\nstderr: %s\nstdout: %s", w, code, errb.String(), out.String())
		}
		r := lastLine(t, out.String())
		if len(r.Metrics) != len(spec.PerLayer) {
			t.Errorf("%s: %d layer metrics printed, BENCHMARK.json lists %d", w, len(r.Metrics), len(spec.PerLayer))
		}
		for _, m := range spec.PerLayer {
			if _, ok := r.Metrics[m.Name]; !ok {
				t.Errorf("%s: layer metric %s not printed", w, m.Name)
			}
		}
		var tf traceFile
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &tf); err != nil {
			t.Fatal(err)
		}
		if len(tf.Spans) == 0 || len(tf.Aggregates) == 0 {
			t.Errorf("%s: trace has %d spans, %d aggregates", w, len(tf.Spans), len(tf.Aggregates))
		}
	}
}

// A failed output check must fail the ops it vouches for and the run.
func TestFailedCheckFailsTheRun(t *testing.T) {
	w := newCompile(1, sizes{smoke: true})
	w.progs[0].name = "not-in-the-verdict-table"
	if err := w.check(); err == nil {
		t.Fatal("compile.check accepted a program the verdict table does not list")
	}
}

// The bounds the binary prints are the ones the pipeline enforces.
func TestBoundsMatchBenchmarkJSON(t *testing.T) {
	var spec struct {
		EndToEnd []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"ops_s": boundOps, "setup_s": boundSetup, "alloc_b_op": boundAlloc}
	if len(spec.EndToEnd) != len(want) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the binary prints %d", len(spec.EndToEnd), len(want))
	}
	for _, m := range spec.EndToEnd {
		if b, ok := want[m.Name]; !ok || b != m.Bound {
			t.Errorf("%s: BENCHMARK.json bound %v, binary %v (known=%v)", m.Name, m.Bound, b, ok)
		}
	}
}
