// The measuring harness every workload runs under. A workload supplies
// fixed-work rounds cut into quanta; the harness sets it up from cold a
// few times, then runs rounds until the time budget is spent, and turns
// the quanta into the end-to-end metrics.
//
// Estimator rules (bench/README.md has the measurements behind them):
//   - a round is fixed work, cut into quanta of some hundred
//     microseconds, every one timed; a quantum's kind says which other
//     quanta do the same work, instruction for instruction;
//   - ops_s is the ops of one round over the sum, kind by kind, of the
//     fastest quantum of that kind in the whole run: the rate the
//     program reaches on one core while the machine and the collector
//     leave it alone. On the shared hosts this runs on, a fifth to a
//     half of any second goes to the neighbours, in bursts the guest
//     cannot see, and that share drifts over minutes; a mean or a median
//     over a second inherits the drift, the floor of a short quantum
//     that has run thousands of times does not;
//   - everything runs at GOMAXPROCS 1: with two virtual CPUs of a shared
//     host, where the second goroutine lands decides the time;
//   - setup_s is the floor time, taken the same way, of a cold set-up
//     run forty times: empty compile cache, world build, install,
//     backend start and one tiny warm-up round;
//   - --seconds bounds the timed rounds; the number of rounds is what
//     fitted, and is printed with the sample count.
package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"planp.dev/planp/internal/planprt"
)

const (
	defaultSeconds = 20  // the budget of the timed rounds when -seconds is not given
	coldSetups     = 40  // cold set-ups per run; setup_s is their floor time
	minRounds      = 3   // of each phase, whatever the budget
	tracedSeconds  = 2.5 // budget of the traced pass, and of its untraced twin
)

// sizes scales a workload's fixed work. Full is what gets measured;
// smoke is one tiny round with every output check on, for tier-1.
type sizes struct{ smoke bool }

func (s sizes) pick(full, smoke int) int {
	if s.smoke {
		return smoke
	}
	return full
}

// phase is one kind of round. Every workload has one, except rt_gateway,
// which measures latency with one request in flight and capacity with a
// full window.
type phase struct {
	name  string
	share float64 // of the time budget
	rate  bool    // its rounds give ops_s and alloc_b_op
	// kinds says which quanta of a round do the same work: quantum j is
	// of kind j % kinds. 0: every position in the round is its own kind
	// (rounds repeat each other, quanta within a round do not).
	kinds int
}

// roundResult is what one fixed-work round reports.
type roundResult struct {
	ops    int       // attempted
	failed int       // timed out, errored, or failed their output check
	quanta []float64 // µs per quantum, in round order
	lat    []float64 // µs per op, from rounds that time each op: printed for the record
}

// workload is one of the five benchmark workloads.
type workload interface {
	name() string
	link() string // link kind, for the host record
	phases() []phase
	// setup builds the world from cold, discarding any previous one.
	// The harness has emptied the compile cache first.
	setup(tr *tracer) error
	// round runs one round of phase ph. idx counts rounds of the run.
	round(ph int, idx int64, tr *tracer) (roundResult, error)
	// check runs the output checks that need no timing.
	check() error
	close()
}

// newWorkload builds the named workload for a seed.
func newWorkload(name string, seed int64, sz sizes) (workload, error) {
	switch name {
	case "sim_gateway":
		return newSimGateway(seed, sz), nil
	case "sim_city":
		return newSimCity(seed, sz), nil
	case "rt_gateway":
		return newRTGateway(seed, sz), nil
	case "compile":
		return newCompile(seed, sz), nil
	case "deploy":
		return newDeploy(seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

var workloadNames = []string{"sim_gateway", "sim_city", "rt_gateway", "compile", "deploy"}

// measurement is one workload's untraced result.
type measurement struct {
	Workload  string
	Link      string
	Attempted int
	Failed    int
	Correct   bool
	CheckErr  string

	OpsS, SetupS, AllocBOp float64
	Rounds                 int // rounds of the rate phase
	Quanta                 int // quanta behind ops_s
	Setups                 int // cold set-ups behind setup_s
	TimedS                 float64

	// For the record, the machine's share included: the median over
	// rounds of ops per wall second, and of the rounds that time each
	// op, of their median and 90th-percentile latency in µs.
	WallOpsS, LatP50, LatP90 float64
	LatRounds                int

	RefBefore, RefAfter float64
	Disturbed           bool
	GCShare             float64
}

// coldSetup empties the compile cache, sets the workload up, and runs
// one warm-up round of each phase. It returns the wall time of all of
// that in µs, cut into quanta: the set-up call, then the rounds' own.
func coldSetup(w workload, tr *tracer) ([]float64, error) {
	start := time.Now()
	planprt.ResetCache()
	if err := w.setup(tr); err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name(), err)
	}
	quanta := []float64{float64(time.Since(start)) / 1e3}
	for pi := range w.phases() {
		res, err := w.round(pi, -1, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: warm-up round: %w", w.name(), err)
		}
		if res.failed > 0 {
			return nil, fmt.Errorf("%s: warm-up round: %w: %d of %d ops failed", w.name(), errCheck, res.failed, res.ops)
		}
		quanta = append(quanta, res.quanta...)
	}
	return quanta, nil
}

// setupMeter measures setup_s: the floor time of a cold set-up. It takes
// the set-ups from a twin of the workload with tiny rounds, so that one is
// short enough to repeat until every one of its quanta has run
// undisturbed once. Set-ups repeat each other, so a position is a kind.
type setupMeter struct {
	twin workload
	fl   floors
}

// run adds n cold set-ups and leaves the twin closed.
func (s *setupMeter) run(n int) error {
	defer s.twin.close()
	for ; n > 0; n-- {
		quanta, err := coldSetup(s.twin, nil)
		if err == nil {
			err = s.fl.add(1, quanta)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runTotals is what the timed rounds of one run added up to.
type runTotals struct {
	ops, failed int
	wall        time.Duration
	checkErr    string    // first failed in-round output check
	rates       []float64 // ops per wall second, per round of a rate phase
	p50s, p90s  []float64 // op latency µs, per round that times its ops
	rateOps     int       // ops of the rate phases, which alloc_b_op divides by
	rateAlloc   uint64    // bytes allocated in the rate phases
	floorOpsS   float64   // ops_s: the rate phase's floor rate
	quanta      int
}

// timedRounds runs each phase's rounds until the phase's share of the
// budget is spent (one round when smoke).
func timedRounds(w workload, seconds float64, sz sizes, tr *tracer) (runTotals, error) {
	var t runTotals
	var ms0, ms1 runtime.MemStats
	var idx int64
	for pi, ph := range w.phases() {
		fl := floors{kinds: ph.kinds}
		budget := time.Duration(ph.share * seconds * float64(time.Second))
		phaseStart := time.Now()
		for n := 0; n < sz.pick(minRounds, 1) || (!sz.smoke && time.Since(phaseStart) < budget); n++ {
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			res, err := w.round(pi, idx, tr)
			wall := time.Since(start)
			runtime.ReadMemStats(&ms1)
			idx++
			t.ops += res.ops
			if err == nil && ph.rate {
				err = fl.add(res.ops, res.quanta)
			}
			if errors.Is(err, errCheck) {
				// A failed output check fails the round's ops; the world
				// may be broken, so no further round runs.
				t.failed += res.ops
				t.checkErr = err.Error()
				return t, nil
			}
			if err != nil {
				return t, fmt.Errorf("%s: %s round %d: %w", w.name(), ph.name, n, err)
			}
			t.wall += wall
			t.failed += res.failed
			if ph.rate {
				t.rates = append(t.rates, float64(res.ops-res.failed)/wall.Seconds())
				t.rateOps += res.ops
				t.rateAlloc += ms1.TotalAlloc - ms0.TotalAlloc
			}
			if len(res.lat) >= 10*minBeyond {
				p90, _ := percentile(res.lat, 0.90) // sorts
				t.p50s, t.p90s = append(t.p50s, median(res.lat)), append(t.p90s, p90)
			}
		}
		if ph.rate {
			t.floorOpsS, t.quanta = fl.rate(), fl.n
		}
	}
	return t, nil
}

// measure runs the untraced pass of one workload.
func measure(name string, seed int64, seconds float64, sz sizes) (*measurement, error) {
	w, err := newWorkload(name, seed, sz)
	if err != nil {
		return nil, err
	}
	defer w.close()
	m := &measurement{Workload: name, Link: w.link()}
	m.RefBefore = refKernel()
	// Half of the cold set-ups run before the timed rounds and half after
	// them: the machine's slow spells last seconds, and forty tiny set-ups
	// in a row fit inside one.
	twin, err := newWorkload(name, seed, sizes{smoke: true})
	if err != nil {
		return nil, err
	}
	setup := setupMeter{twin: twin}
	m.Setups = sz.pick(coldSetups, 2)
	if err := setup.run(m.Setups / 2); err != nil {
		return nil, err
	}
	if _, err := coldSetup(w, nil); err != nil {
		return nil, err
	}

	cpu0 := readCPU()
	t, err := timedRounds(w, seconds, sz, nil)
	if err != nil {
		return nil, err
	}
	m.GCShare = gcShare(cpu0, readCPU())
	if err := setup.run(m.Setups - m.Setups/2); err != nil {
		return nil, err
	}
	m.SetupS = setup.fl.us() / 1e6

	m.Attempted, m.Failed, m.CheckErr, m.TimedS = t.ops, t.failed, t.checkErr, t.wall.Seconds()
	m.Rounds, m.Quanta, m.LatRounds = len(t.rates), t.quanta, len(t.p50s)
	m.OpsS, m.WallOpsS, m.LatP50, m.LatP90 = t.floorOpsS, median(t.rates), median(t.p50s), median(t.p90s)
	if t.rateOps > 0 {
		m.AllocBOp = float64(t.rateAlloc) / float64(t.rateOps)
	}
	if m.CheckErr == "" {
		if err := w.check(); err != nil {
			m.CheckErr = err.Error()
			m.Failed = m.Attempted // a failed output check fails the ops it vouches for
		}
	}
	m.Correct = m.Failed == 0 && m.CheckErr == ""
	m.RefAfter = refKernel()
	m.Disturbed = disturbed(m.RefBefore, m.RefAfter)
	return m, nil
}

var errCheck = errors.New("output check failed")
