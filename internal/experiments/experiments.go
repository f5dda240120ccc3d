// Package experiments holds the drivers that regenerate every table and
// figure of the paper's evaluation (§3). cmd/aspbench is a thin flag
// wrapper around this package; the drivers live here, behind an
// io.Writer, so the regression suite can run them in-process and
// compare sequential against parallel output byte for byte.
//
// # Parallelism
//
// Each grid cell (one load level × one adaptation mode, one variant ×
// one offered load, ...) builds its own Simulator and runs to
// completion independently, so cells parallelize across a bounded
// worker pool (internal/par). Determinism is preserved: per-cell seeds
// are functions of the grid coordinates, results land in slots indexed
// by cell, and table rows are assembled in index order after the pool
// drains. The pool is runtime.GOMAXPROCS(0) wide, so the machine sets
// the width (GOMAXPROCS=1 runs every cell in sequence); it changes
// wall-clock time, never bytes.
//
// The two experiments that MEASURE wall-clock time (fig3's
// code-generation table, the engines microbenchmarks) stay sequential:
// running timing probes while sibling cells saturate the CPU would
// perturb the numbers they exist to report.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/apps/audio"
	"planp.dev/planp/internal/apps/httpd"
	"planp.dev/planp/internal/apps/mpeg"
	"planp.dev/planp/internal/lang/langtest"
	"planp.dev/planp/internal/lang/parser"
	"planp.dev/planp/internal/lang/typecheck"
	"planp.dev/planp/internal/lang/value"
	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/par"
	"planp.dev/planp/internal/planprt"
	"planp.dev/planp/internal/substrate"
)

// Options configures a driver run.
type Options struct {
	// Shards is the number of parallel event loops the scale experiment
	// runs its city on (default 1). It reaches no other experiment: only
	// the city declares shard boundaries, and its output is
	// byte-identical at any value — the regression suite diffs
	// Shards=1 against Shards=4.
	Shards int
	// ScaleFull switches the scale experiment from the CI-sized city
	// to the full metropolitan deployment (10k+ routers, ~1M modeled
	// clients). Minutes of CPU; off by default.
	ScaleFull bool
}

// Experiment is one runnable table/figure driver.
type Experiment struct {
	Name string
	Desc string
	Run  func(w io.Writer, opts Options) error
}

// All returns the experiment list in canonical (aspbench -exp all)
// order.
func All() []Experiment {
	return []Experiment{
		{"fig3", "code-generation time for the five ASPs (paper figure 3)", runFig3},
		{"fig6", "audio bandwidth under stepped load (paper figure 6)", runFig6},
		{"fig7", "silent periods with/without adaptation (paper figure 7)", runFig7},
		{"fig8", "HTTP cluster throughput vs offered load (paper figure 8)", runFig8},
		{"mpeg", "server load vs viewers for the MPEG experiment (§3.3)", runMPEG},
		{"engines", "per-packet engine cost: interp/jit/native (§2.4)", runEngines},
		{"ablation-locus", "in-router vs end-to-end feedback adaptation (§3.1 claim)", runAblationLocus},
		{"ablation-policy", "load-balancing policies: modulo/random/least-conn (§5)", runAblationPolicy},
		{"failover", "gateway fault tolerance: server crash + admin removal (§5)", runFailover},
		{"chaos-audio", "§3.1 audio under loss/dup/flap/partition/crash (robustness)", runChaosAudio},
		{"chaos-gateway", "§3.2 gateway under server-LAN faults + crash-redeploy (robustness)", runChaosGateway},
		{"scale", "sharded city simulation, shard-invariant counters (-scale-full: 10k+ routers)", runScale},
	}
}

// firstErr returns the first non-nil error of a cell-indexed slice.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// lineCount counts non-empty source lines.
func lineCount(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

// paperFig3 holds the paper's reported numbers for comparison columns.
var paperFig3 = map[string]struct {
	lines int
	ms    float64
}{
	"audio-router": {68, 11.0},
	"audio-client": {28, 6.2},
	"http-gateway": {91, 15.3},
	"mpeg-monitor": {161, 33.9},
	"mpeg-client":  {53, 6.1},
}

// runFig3 measures the JIT's code-generation time per program. The
// paper's absolute numbers are 1998 hardware with Tempo's template
// assembly; what must hold is the ordering (more lines, more time) and
// that generation is far below any per-download budget. Sequential and
// uncached by design: it times the compiler.
func runFig3(w io.Writer, opts Options) error {
	tbl := &obs.Table{
		Title:   "Figure 3: code generation time",
		Headers: []string{"program", "lines", "paper-lines", "paper-ms", "jit-us", "check-us"},
	}
	for _, p := range asp.All() {
		prog, err := parser.Parse(p.Source)
		if err != nil {
			return err
		}
		checkStart := time.Now()
		if _, err := typecheck.Check(prog); err != nil {
			return err
		}
		checkTime := time.Since(checkStart)

		median := func() time.Duration {
			const reps = 51
			times := make([]time.Duration, 0, reps)
			for i := 0; i < reps; i++ {
				pl, err := planprt.Load(p.Source, planprt.Config{Verify: planprt.VerifyPrivileged, NoCache: true})
				if err != nil {
					panic(err)
				}
				times = append(times, pl.CodegenTime)
			}
			for i := 1; i < len(times); i++ {
				for j := i; j > 0 && times[j] < times[j-1]; j-- {
					times[j], times[j-1] = times[j-1], times[j]
				}
			}
			return times[len(times)/2]
		}
		ref := paperFig3[p.Name]
		tbl.AddRow(p.Name, lineCount(p.Source), ref.lines, ref.ms,
			float64(median().Nanoseconds())/1000,
			float64(checkTime.Nanoseconds())/1000)
	}
	fmt.Fprint(w, tbl)
	fmt.Fprintln(w, "shape check: generation time grows with program size, and all times are")
	fmt.Fprintln(w, "orders of magnitude below a per-download budget (the paper's point).")
	return nil
}

func runFig6(w io.Writer, opts Options) error {
	tb, err := audio.NewTestbed(audio.Options{Adaptation: audio.AdaptASP})
	if err != nil {
		return err
	}
	res := tb.RunFigure6()
	fmt.Fprintln(w, "audio data rate at the client, one sample per 10 s of virtual time:")
	fmt.Fprint(w, res.Series.Render(10*time.Second))
	tbl := &obs.Table{
		Title:   "Figure 6 phases (paper: 176 -> 44 -> oscillating 44-88 -> 88 kb/s)",
		Headers: []string{"phase", "load", "measured kb/s", "paper kb/s"},
	}
	tbl.AddRow("0-100s", "none", res.QuietKbps, 176)
	tbl.AddRow("100-220s", "large", res.LargeKbps, 44)
	tbl.AddRow("220-340s", "medium", res.MediumKbps, "44-88 (oscillates)")
	tbl.AddRow("340-460s", "small", res.SmallKbps, 88)
	fmt.Fprint(w, tbl)
	fmt.Fprintf(w, "medium phase oscillates between 8- and 16-bit mono: %v\n", res.MediumOscillates)
	return nil
}

func runFig7(w io.Writer, opts Options) error {
	loads := audio.Figure7Loads
	modes := []audio.Adaptation{audio.AdaptNone, audio.AdaptASP}
	rows := make([]*audio.Figure7Row, len(loads)*len(modes))
	errs := make([]error, len(rows))
	par.Grid2(runtime.GOMAXPROCS(0), len(loads), len(modes), func(i, j int) {
		k := i*len(modes) + j
		rows[k], errs[k] = audio.RunFigure7(loads[i], 60*time.Second, audio.Options{Adaptation: modes[j], Seed: 11})
	})
	if err := firstErr(errs); err != nil {
		return err
	}
	tbl := &obs.Table{
		Title:   "Figure 7: silent periods during 60 s of playback",
		Headers: []string{"background load", "adaptation", "silent periods", "lost packets", "stalls", "packets", "segment drops"},
	}
	for i, load := range loads {
		for j, mode := range modes {
			row := rows[i*len(modes)+j]
			tbl.AddRow(fmt.Sprintf("%.1f Mb/s", float64(load)/1e6), mode.String(),
				row.SilentPeriods, row.LostPackets, row.Stalls, row.Received, row.SegDrops)
		}
	}
	fmt.Fprint(w, tbl)
	fmt.Fprintln(w, "shape check: without adaptation, gaps appear once the segment saturates;")
	fmt.Fprintln(w, "with the ASP the audio shrinks to fit and playback stays continuous.")
	return nil
}

func runFig8(w io.Writer, opts Options) error {
	variants := []httpd.Variant{httpd.VariantSingle, httpd.VariantNativeGW, httpd.VariantASPGW, httpd.VariantDisjoint}
	sweep := httpd.DefaultSweep
	pts := make([]*httpd.Point, len(variants)*len(sweep))
	errs := make([]error, len(pts))
	par.Grid2(runtime.GOMAXPROCS(0), len(variants), len(sweep), func(i, j int) {
		k := i*len(sweep) + j
		pts[k], errs[k] = httpd.RunPoint(httpd.Config{Variant: variants[i]}, sweep[j], 12*time.Second, 3*time.Second)
	})
	if err := firstErr(errs); err != nil {
		return err
	}
	tbl := &obs.Table{
		Title:   "Figure 8: served throughput (req/s) vs offered load",
		Headers: []string{"offered", "(d) single", "(b) native gw", "(c) ASP gw", "(a) 2 disjoint"},
	}
	for j, offered := range sweep {
		tbl.AddRow(offered, pts[0*len(sweep)+j].ServedRPS, pts[1*len(sweep)+j].ServedRPS,
			pts[2*len(sweep)+j].ServedRPS, pts[3*len(sweep)+j].ServedRPS)
	}
	fmt.Fprint(w, tbl)

	sat := make([]float64, len(variants))
	satErrs := make([]error, len(variants))
	par.ForEach(runtime.GOMAXPROCS(0), len(variants), func(i int) {
		sat[i], satErrs[i] = httpd.Saturation(httpd.Config{Variant: variants[i]}, 20*time.Second)
	})
	if err := firstErr(satErrs); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nsaturation: single=%.0f  native-gw=%.0f  asp-gw=%.0f  disjoint=%.0f req/s\n",
		sat[0], sat[1], sat[2], sat[3])
	fmt.Fprintf(w, "paper claims:  ASP==native: %.2fx   cluster/single: %.2fx (paper 1.75)   cluster/disjoint: %.2f (paper ~0.85)\n",
		sat[2]/sat[1], sat[2]/sat[0], sat[2]/sat[3])
	return nil
}

func runMPEG(w io.Writer, opts Options) error {
	viewerCounts := []int{1, 2, 4, 8}
	aspModes := []bool{false, true}
	results := make([]*mpeg.Result, len(viewerCounts)*len(aspModes))
	errs := make([]error, len(results))
	par.Grid2(runtime.GOMAXPROCS(0), len(viewerCounts), len(aspModes), func(i, j int) {
		k := i*len(aspModes) + j
		results[k], errs[k] = mpeg.Run(mpeg.Options{Viewers: viewerCounts[i], UseASPs: aspModes[j]}, 20*time.Second)
	})
	if err := firstErr(errs); err != nil {
		return err
	}
	tbl := &obs.Table{
		Title:   "MPEG experiment (§3.3): server load vs viewers on one segment",
		Headers: []string{"viewers", "ASPs", "server connections", "server frames", "min viewer frames"},
	}
	for i, viewers := range viewerCounts {
		for j, useASPs := range aspModes {
			res := results[i*len(aspModes)+j]
			minFrames := res.ViewerFrames[0]
			for _, f := range res.ViewerFrames {
				if f < minFrames {
					minFrames = f
				}
			}
			tbl.AddRow(viewers, useASPs, res.ServerConnections, res.ServerFrames, minFrames)
		}
	}
	fmt.Fprint(w, tbl)
	fmt.Fprintln(w, "shape check: with the ASPs, server connections and frames stay flat as")
	fmt.Fprintln(w, "viewers multiply; every viewer still receives the stream.")
	return nil
}

// runEngines microbenchmarks the per-packet cost of one load-balancer
// invocation under each engine plus a native Go handler — the §2.4
// claim: the JIT removes interpretation overhead. Sequential by design
// (wall-clock measurements).
func runEngines(w io.Writer, opts Options) error {
	pkt := langtest.TCPPacket("10.0.1.1", "10.0.0.100", 4001, 80, []byte("GET /index.html"))

	tbl := &obs.Table{
		Title:   "Per-packet channel invocation cost (load-balancer ASP)",
		Headers: []string{"engine", "ns/op", "vs native", "allocs/op"},
	}
	native := testing.Benchmark(func(b *testing.B) { BenchNativeGateway(b, pkt) })
	nativeNs := float64(native.NsPerOp())
	for _, eng := range []planprt.EngineKind{planprt.EngineInterp, planprt.EngineJIT} {
		r, err := benchProgram(eng, asp.HTTPGateway, pkt)
		if err != nil {
			return err
		}
		tbl.AddRow(string(eng), r.NsPerOp(), float64(r.NsPerOp())/nativeNs, r.AllocsPerOp())
	}
	tbl.AddRow("native-go", native.NsPerOp(), 1.0, native.AllocsPerOp())
	fmt.Fprint(w, tbl)
	fmt.Fprintln(w, "note: the gateway's cost is dominated by hash-table primitives shared by")
	fmt.Fprintln(w, "all engines, which compresses the spread. The kernel below isolates pure")
	fmt.Fprintln(w, "language execution, where specialization pays in full:")
	fmt.Fprintln(w)

	tbl2 := &obs.Table{
		Title:   "Per-packet cost, compute-bound classification kernel",
		Headers: []string{"engine", "ns/op", "vs jit", "allocs/op"},
	}
	pktU := langtest.UDPPacket("10.0.1.1", "10.0.2.9", 4001, 9, []byte("abcdefgh"))
	type res struct {
		eng string
		r   testing.BenchmarkResult
	}
	var rows []res
	for _, eng := range []planprt.EngineKind{planprt.EngineInterp, planprt.EngineJIT} {
		r, err := benchProgram(eng, asp.BenchCompute, pktU)
		if err != nil {
			return err
		}
		rows = append(rows, res{string(eng), r})
	}
	jitNs := float64(rows[1].r.NsPerOp())
	for _, row := range rows {
		tbl2.AddRow(row.eng, row.r.NsPerOp(), float64(row.r.NsPerOp())/jitNs, row.r.AllocsPerOp())
	}
	fmt.Fprint(w, tbl2)
	fmt.Fprintln(w, "shape check: interp >> jit on both programs. The jit builds the tuples its")
	fmt.Fprintln(w, "consumers only borrow (send packets, table keys, the result pair) in per-instance")
	fmt.Fprintln(w, "scratch, runs int/bool unboxed and writes every other value once, where its")
	fmt.Fprintln(w, "consumer wants it.")
	fmt.Fprintln(w, "The paper's claim is jit vs native, first table: JIT output as fast as in-kernel")
	fmt.Fprintln(w, "C; its jit and native-go rows measure that here (paired runs: docs/PERFORMANCE.md,")
	fmt.Fprintln(w, "\"Header primitives declared once\").")
	return nil
}

// benchProgram measures one engine's invoke cost on an arbitrary
// protocol source.
func benchProgram(eng planprt.EngineKind, src string, pkt value.Value) (testing.BenchmarkResult, error) {
	p, err := planprt.Load(src, planprt.Config{Engine: eng, Verify: planprt.VerifyPrivileged})
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	ctx := langtest.NewSink()
	inst, err := p.Compiled.NewInstance(ctx)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	ci := p.Info.ChannelsByName("network")[0].Index
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := inst.Invoke(ci, ctx, pkt); err != nil {
				b.Fatal(err)
			}
		}
	}), nil
}

// BenchNativeGateway measures the hand-written Go equivalent of the
// gateway's per-packet work: the paper's "built-in C" comparison point
// for the per-packet numbers (the native-go row of -exp engines and
// BenchmarkEngineNativeGateway).
func BenchNativeGateway(b *testing.B, pkt value.Value) {
	ctx := langtest.NewSink().Context()
	conns := map[string]value.Host{}
	count := int64(0)
	serverA := substrate.MustAddr("10.0.0.81")
	serverB := substrate.MustAddr("10.0.0.109")
	virtual := substrate.MustAddr("10.0.0.100")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iph := pkt.Vs[0].AsIP()
		tcph := pkt.Vs[1].AsTCP()
		if iph.Dst == virtual && tcph.DstPort == 80 {
			key := value.EncodeKey(value.TupleV(value.HostV(iph.Src), value.Int(int64(tcph.SrcPort))))
			srv, ok := conns[key]
			if !ok {
				if count%2 == 0 {
					srv = serverA
				} else {
					srv = serverB
				}
				conns[key] = srv
			}
			if tcph.Flags&substrate.FlagSyn != 0 {
				count++
			}
			h := *iph
			h.Dst = srv
			ctx.OnRemote("network", value.TupleV(value.IP(&h), pkt.Vs[1], pkt.Vs[2]))
		} else {
			ctx.OnRemote("network", pkt)
		}
	}
}
