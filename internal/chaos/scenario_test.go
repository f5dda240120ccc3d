package chaos

import (
	"testing"
	"time"

	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/substrate"
)

// TestRunCountsAStepOnceApplied: a step counts as fired, and the run as
// done, only once the step has been applied — also when the run is
// stopped while the step is being applied.
func TestRunCountsAStepOnceApplied(t *testing.T) {
	sim := netsim.New(netsim.WithSeed(1))
	b, err := netsim.Build(sim, &substrate.Topology{})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(sim, &substrate.Topology{}, b.Built, 1)
	entered, release := make(chan struct{}), make(chan struct{})
	run := eng.Play(&Scenario{steps: []step{{at: time.Millisecond, apply: func() {
		close(entered)
		<-release
	}}}})
	ran := make(chan struct{})
	go func() { sim.Run(); close(ran) }()

	<-entered
	fired, total, _ := run.Status()
	done := run.Done()
	run.Stop()
	doneStopped := run.Done()
	close(release)
	<-ran

	if fired != 0 || total != 1 || done {
		t.Errorf("mid-apply: fired=%d total=%d done=%v, want 0/1 not done", fired, total, done)
	}
	if doneStopped {
		t.Errorf("a run stopped mid-apply reports done before the step completes")
	}
	if fired, _, _ := run.Status(); fired != 1 || !run.Done() {
		t.Errorf("after apply: fired=%d done=%v, want 1 and done", fired, run.Done())
	}
}
