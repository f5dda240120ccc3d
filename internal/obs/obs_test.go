package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// recorder notes which subscriber saw which event, for ordering tests.
type recorder struct {
	id  string
	log *[]string
}

func (r *recorder) OnEvent(ev Event) {
	*r.log = append(*r.log, r.id+":"+ev.Kind.String())
}

func TestBusSubscriberOrdering(t *testing.T) {
	tests := []struct {
		name string
		subs []string // subscription order
		drop string   // unsubscribe this one before publishing ("" = none)
		want []string
	}{
		{"single", []string{"a"}, "", []string{"a:drop"}},
		{"two-in-order", []string{"a", "b"}, "", []string{"a:drop", "b:drop"}},
		{"three-in-order", []string{"x", "y", "z"}, "", []string{"x:drop", "y:drop", "z:drop"}},
		{"unsubscribe-middle", []string{"a", "b", "c"}, "b", []string{"a:drop", "c:drop"}},
		{"unsubscribe-first", []string{"a", "b"}, "a", []string{"b:drop"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var log []string
			bus := &Bus{}
			byID := map[string]*recorder{}
			for _, id := range tt.subs {
				r := &recorder{id: id, log: &log}
				byID[id] = r
				bus.Subscribe(r)
			}
			if tt.drop != "" {
				bus.Unsubscribe(byID[tt.drop])
			}
			bus.Publish(Event{Kind: KindDrop})
			if got := strings.Join(log, ","); got != strings.Join(tt.want, ",") {
				t.Errorf("delivery order %q, want %q", got, strings.Join(tt.want, ","))
			}
		})
	}
}

func TestBusActive(t *testing.T) {
	var nilBus *Bus
	if nilBus.Active() {
		t.Error("nil bus must be inactive")
	}
	bus := &Bus{}
	if bus.Active() {
		t.Error("empty bus must be inactive")
	}
	r := &recorder{id: "a", log: new([]string)}
	bus.Subscribe(r)
	if !bus.Active() {
		t.Error("subscribed bus must be active")
	}
	bus.Unsubscribe(r)
	if bus.Active() {
		t.Error("bus active after last unsubscribe")
	}
	// Publishing on an inert bus must be a no-op, not a panic.
	bus.Publish(Event{Kind: KindDeliver})
}

func TestRingWraparound(t *testing.T) {
	tests := []struct {
		name     string
		capacity int
		publish  int
		wantLen  int
		wantFrom int // first retained event index
	}{
		{"under-capacity", 4, 3, 3, 0},
		{"exact-capacity", 4, 4, 4, 0},
		{"wrap-once", 4, 6, 4, 2},
		{"wrap-many", 3, 10, 3, 7},
		{"capacity-clamped", 0, 2, 1, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := NewRing(tt.capacity)
			for i := 0; i < tt.publish; i++ {
				r.OnEvent(Event{Kind: KindForward, Size: i})
			}
			if r.Len() != tt.wantLen {
				t.Fatalf("Len = %d, want %d", r.Len(), tt.wantLen)
			}
			evs := r.Events()
			if len(evs) != tt.wantLen {
				t.Fatalf("len(Events) = %d, want %d", len(evs), tt.wantLen)
			}
			for i, ev := range evs {
				if ev.Size != tt.wantFrom+i {
					t.Errorf("event %d has Size %d, want %d (oldest-first)", i, ev.Size, tt.wantFrom+i)
				}
			}
		})
	}
}

func TestCountingSink(t *testing.T) {
	var c CountingSink
	for i := 0; i < 3; i++ {
		c.OnEvent(Event{Kind: KindDrop})
	}
	c.OnEvent(Event{Kind: KindDeliver})
	if got := c.Count(KindDrop); got != 3 {
		t.Errorf("drops = %d", got)
	}
	if got := c.Count(KindDeliver); got != 1 {
		t.Errorf("delivers = %d", got)
	}
	if got := c.Count(KindEnqueue); got != 0 {
		t.Errorf("enqueues = %d", got)
	}
	if got := c.Total(); got != 4 {
		t.Errorf("total = %d", got)
	}
}

func TestTextLogFormat(t *testing.T) {
	var sb strings.Builder
	l := NewTextLog(&sb)
	l.OnEvent(Event{
		Kind: KindDrop, At: 1500 * time.Millisecond, Node: "r1",
		Src: 0x0A000101, Dst: 0x0A000201, Size: 64, Detail: "queue",
	})
	want := "  1.500000 drop          r1         10.0.1.1->10.0.2.1 64B queue\n"
	if sb.String() != want {
		t.Errorf("log line %q, want %q", sb.String(), want)
	}
}

// TestTextLogDecision: a control-plane decision carries no packet, so
// its line has no address or size columns.
func TestTextLogDecision(t *testing.T) {
	var sb strings.Builder
	l := NewTextLog(&sb)
	l.OnEvent(Event{Kind: KindDeploy, At: 2 * time.Second, Node: "gw0", Detail: "d3 stage:ok"})
	l.OnEvent(Event{Kind: KindRollback, At: 2 * time.Second, Detail: "d3 rolled-back: boom"})
	want := "  2.000000 deploy        gw0        d3 stage:ok\n" +
		"  2.000000 rollback                 d3 rolled-back: boom\n"
	if sb.String() != want {
		t.Errorf("log lines %q, want %q", sb.String(), want)
	}
}

// TestEventSize: an Event stays 64 bytes; every packet event copies one,
// so a decision's record and reason ride in Detail, not in new fields.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 64 {
		t.Errorf("unsafe.Sizeof(Event{}) = %d, want 64", n)
	}
}

func TestEventKindString(t *testing.T) {
	names := map[Kind]string{
		KindEnqueue: "enqueue", KindDrop: "drop", KindForward: "forward",
		KindDeliver: "deliver", KindASPInvoke: "asp-invoke", KindVerifyReject: "verify-reject",
		KindDeploy: "deploy", KindRollback: "rollback",
		KindFault: "fault", KindHeal: "heal",
		KindCanary: "canary", KindLink: "link",
	}
	if len(names) != NumKinds {
		t.Fatalf("test covers %d kinds, NumKinds = %d", len(names), NumKinds)
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if got := Kind(200).String(); got != "kind(200)" {
		t.Errorf("out-of-range kind renders %q", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	tests := []struct {
		name       string
		bounds     []int64
		observe    []int64
		wantCounts []int64 // len(bounds)+1, last = overflow
	}{
		{
			name:       "basic-placement",
			bounds:     []int64{10, 100, 1000},
			observe:    []int64{5, 10, 11, 100, 500, 1001},
			wantCounts: []int64{2, 2, 1, 1}, // bounds are inclusive upper
		},
		{
			name:       "all-overflow",
			bounds:     []int64{1},
			observe:    []int64{2, 3, 4},
			wantCounts: []int64{0, 3},
		},
		{
			name:       "negative-values",
			bounds:     []int64{0, 10},
			observe:    []int64{-5, 0, 10},
			wantCounts: []int64{2, 1, 0},
		},
		{
			name:       "empty",
			bounds:     []int64{10},
			observe:    nil,
			wantCounts: []int64{0, 0},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h := NewHistogram(tt.bounds)
			var sum int64
			for _, v := range tt.observe {
				h.Observe(v)
				sum += v
			}
			_, counts := h.Buckets()
			if len(counts) != len(tt.wantCounts) {
				t.Fatalf("len(counts) = %d, want %d", len(counts), len(tt.wantCounts))
			}
			for i := range counts {
				if counts[i] != tt.wantCounts[i] {
					t.Errorf("bucket %d = %d, want %d", i, counts[i], tt.wantCounts[i])
				}
			}
			if h.Count() != int64(len(tt.observe)) {
				t.Errorf("Count = %d, want %d", h.Count(), len(tt.observe))
			}
			if h.Sum() != sum {
				t.Errorf("Sum = %d, want %d", h.Sum(), sum)
			}
			wantMean := 0.0
			if len(tt.observe) > 0 {
				wantMean = float64(sum) / float64(len(tt.observe))
			}
			if h.Mean() != wantMean {
				t.Errorf("Mean = %g, want %g", h.Mean(), wantMean)
			}
		})
	}
}

func TestHistogramRejectsUnorderedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-ascending bounds must panic")
		}
	}()
	NewHistogram([]int64{10, 10})
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Add(5)
	if r.Counter("x") != c {
		t.Error("second lookup returned a different counter")
	}
	if got := r.Counter("x").Value(); got != 5 {
		t.Errorf("value = %d", got)
	}
	g := r.Gauge("y")
	g.Set(-3)
	if r.Gauge("y").Value() != -3 {
		t.Error("gauge identity lost across lookups")
	}
	h := r.Histogram("z", []int64{1, 2})
	if r.Histogram("z", []int64{99}) != h {
		t.Error("histogram identity lost across lookups")
	}
	s := r.Series("w")
	if s.Name != "w" {
		t.Errorf("series name %q", s.Name)
	}
	if r.Series("w") != s {
		t.Error("series identity lost across lookups")
	}
	if r.LookupSeries("nonesuch") != nil {
		t.Error("LookupSeries must not create")
	}
	if r.LookupSeries("w") != s {
		t.Error("LookupSeries missed existing series")
	}
}

func TestRegistryResetCounter(t *testing.T) {
	r := NewRegistry()
	old := r.Counter("asp.r.processed")
	old.Add(7)
	fresh := r.ResetCounter("asp.r.processed")
	if fresh == old {
		t.Fatal("ResetCounter returned the stale counter")
	}
	if fresh.Value() != 0 {
		t.Errorf("fresh counter starts at %d", fresh.Value())
	}
	// The registry name now resolves to the fresh instrument; the old
	// pointer still works for anyone holding it.
	if r.Counter("asp.r.processed") != fresh {
		t.Error("name still bound to stale counter")
	}
	if old.Value() != 7 {
		t.Error("stale counter mutated by reset")
	}
}

func TestRegistrySnapshotAndRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Gauge("c.gauge").Set(9)
	snap := r.Snapshot()
	if len(snap) != 3 || snap["a.count"] != 1 || snap["b.count"] != 2 || snap["c.gauge"] != 9 {
		t.Errorf("snapshot = %v", snap)
	}
	want := "a.count 1\nb.count 2\nc.gauge 9\n"
	if got := r.Render(); got != want {
		t.Errorf("Render:\n%s\nwant:\n%s", got, want)
	}
}

func TestSeriesAtAndAggregates(t *testing.T) {
	s := &Series{Name: "bw"}
	for i, v := range []float64{100, 200, 300} {
		s.Add(time.Duration(i+1)*time.Second, v)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	atTests := []struct {
		t    time.Duration
		want float64
	}{
		{0, 0},                        // before first sample
		{time.Second, 100},            // exactly on a sample
		{1500 * time.Millisecond, 10}, // placeholder, fixed below
	}
	atTests[2].want = 100 // step function holds until next sample
	for _, tt := range atTests {
		if got := s.At(tt.t); got != tt.want {
			t.Errorf("At(%v) = %g, want %g", tt.t, got, tt.want)
		}
	}
	if got := s.At(10 * time.Second); got != 300 {
		t.Errorf("At(past end) = %g", got)
	}
	if got := s.Mean(0, 4*time.Second); got != 200 {
		t.Errorf("Mean = %g", got)
	}
	if got := s.Max(0, 4*time.Second); got != 300 {
		t.Errorf("Max = %g", got)
	}
	// Half-open interval: the to bound is excluded.
	if got := s.Mean(time.Second, 3*time.Second); got != 150 {
		t.Errorf("Mean[1s,3s) = %g", got)
	}
}

func TestSeriesRenderFormat(t *testing.T) {
	s := &Series{Name: "audio-wire-bps"}
	s.Add(1*time.Second, 176000)
	s.Add(2*time.Second, 88000)
	got := s.Render(time.Second)
	want := "# audio-wire-bps\n" +
		"     0.0         0.0\n" +
		"     1.0    176000.0\n" +
		"     2.0     88000.0\n"
	if got != want {
		t.Errorf("Render:\n%q\nwant:\n%q", got, want)
	}
	empty := &Series{Name: "empty"}
	if got := empty.Render(time.Second); got != "# empty\n" {
		t.Errorf("empty Render = %q", got)
	}
}

func TestGapDetector(t *testing.T) {
	tests := []struct {
		name        string
		budget      time.Duration
		arrivals    []time.Duration
		finish      time.Duration
		wantGaps    int
		wantGapTime time.Duration
	}{
		{
			name:     "steady-stream",
			budget:   150 * time.Millisecond,
			arrivals: []time.Duration{0, 50 * time.Millisecond, 100 * time.Millisecond},
			finish:   200 * time.Millisecond,
			wantGaps: 0,
		},
		{
			name:        "one-mid-gap",
			budget:      150 * time.Millisecond,
			arrivals:    []time.Duration{0, 400 * time.Millisecond},
			finish:      500 * time.Millisecond,
			wantGaps:    1,
			wantGapTime: 250 * time.Millisecond,
		},
		{
			name:        "trailing-gap-at-finish",
			budget:      150 * time.Millisecond,
			arrivals:    []time.Duration{0},
			finish:      time.Second,
			wantGaps:    1,
			wantGapTime: 850 * time.Millisecond,
		},
		{
			name:     "no-packets-no-gaps",
			budget:   150 * time.Millisecond,
			arrivals: nil,
			finish:   time.Second,
			wantGaps: 0,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := NewGapDetector(tt.budget)
			for _, at := range tt.arrivals {
				g.Packet(at)
			}
			g.Finish(tt.finish)
			if g.Gaps() != tt.wantGaps {
				t.Errorf("Gaps = %d, want %d", g.Gaps(), tt.wantGaps)
			}
			if g.GapTime() != tt.wantGapTime {
				t.Errorf("GapTime = %v, want %v", g.GapTime(), tt.wantGapTime)
			}
			if g.Received() != len(tt.arrivals) {
				t.Errorf("Received = %d, want %d", g.Received(), len(tt.arrivals))
			}
		})
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Headers: []string{"name", "value", "ratio"}}
	tb.AddRow("alpha", 42, 1.5)
	tb.AddRow("b", "x", 0.25)
	got := tb.String()
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), got)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[0], "ratio") {
		t.Errorf("header %q", lines[0])
	}
	if !strings.Contains(got, "1.50") || !strings.Contains(got, "0.25") {
		t.Errorf("floats not rendered with two decimals:\n%s", got)
	}
	// Columns must stay aligned: every row the same rendered width.
	for i := 1; i < len(lines); i++ {
		if len(lines[i]) != len(lines[1]) {
			t.Errorf("ragged table:\n%s", got)
		}
	}
}

func TestCounterGaugeConcurrency(t *testing.T) {
	// Exercised under -race in the verify path: concurrent updates and
	// reads must be clean.
	r := NewRegistry()
	c := r.Counter("n")
	g := r.Gauge("g")
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 100; i++ {
		_ = c.Value()
		_ = r.Snapshot()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if c.Value() != 4000 {
		t.Errorf("counter = %d", c.Value())
	}
	if g.Value() != 4000 {
		t.Errorf("gauge = %d", g.Value())
	}
}

func ExampleEvent_String() {
	ev := Event{
		Kind: KindForward, At: 2 * time.Second, Node: "router",
		Src: 0x0A000101, Dst: 0x0A000201, Size: 1500,
	}
	fmt.Println(ev.String())
	// Output:   2.000000 forward       router     10.0.1.1->10.0.2.1 1500B
}
