// Sharded-execution tests: the determinism contract (shards=1 vs
// shards=N byte-identical), the island collapse, the seal freeze, the
// unified construction API, and a race hammer for the cross-shard
// paths (mailboxes, merged observability, shared packets).
package netsim

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"planp.dev/planp/internal/obs"
)

// ringParams describes one ring-of-islands topology and its workload.
// Periods, phases, and link delays are staggered with prime-flavored
// offsets so no cross-boundary arrival shares an exact virtual-time
// tick with an unrelated event — the tie-freeness leg of the
// determinism contract (see the package comment in shard.go).
type ringParams struct {
	islands  int // islands in the ring (>= 2 for a sharded run)
	hosts    int // hosts per island
	sends    int // packets each host originates
	crossHop int // destination island offset for remote traffic
}

// buildRing wires p.islands star islands (core router + hosts) into a
// clockwise ring of shard-boundary links and installs the send
// workload. It returns one delivery counter per island.
func buildRing(sim *Simulator, p ringParams) []*int {
	cores := make([]*Node, p.islands)
	hosts := make([][]*Node, p.islands)
	delivered := make([]*int, p.islands)
	for r := 0; r < p.islands; r++ {
		base := Addr(10<<24 | r<<16)
		core := NewNode(sim, fmt.Sprintf("core%d", r), base|1)
		core.Forwarding = true
		cores[r] = core
		count := new(int)
		delivered[r] = count
		for h := 0; h < p.hosts; h++ {
			hn := NewNode(sim, fmt.Sprintf("h%d.%d", r, h), base|Addr(0x100+h))
			l := Connect(sim, hn, core, LinkConfig{
				Bandwidth: 100e6,
				Delay:     time.Duration(11+2*h)*time.Microsecond + time.Duration(r*31+7)*time.Nanosecond,
			})
			ifs := l.Ifaces()
			hn.SetDefaultRoute(ifs[0])
			core.AddRoute(hn.Addr, ifs[1])
			hn.BindUDP(9, func(*Packet) { *count++ })
			hosts[r] = append(hosts[r], hn)
		}
	}
	for r := 0; r < p.islands; r++ {
		l := Connect(sim, cores[r], cores[(r+1)%p.islands], LinkConfig{
			Bandwidth:     1e9,
			Delay:         5*time.Millisecond + time.Duration(r)*1013*time.Nanosecond,
			ShardBoundary: true,
		})
		// Unknown destinations route clockwise around the ring; the
		// counter-clockwise direction stays idle.
		cores[r].SetDefaultRoute(l.Ifaces()[0])
	}

	for r := range hosts {
		for h, src := range hosts[r] {
			remote := hosts[(r+p.crossHop)%p.islands][(h+1)%p.hosts].Addr
			local := hosts[r][(h+1)%p.hosts].Addr
			env := src.Env()
			period := time.Duration(200+17*r+13*h)*time.Microsecond + time.Duration(h*101+3)*time.Nanosecond
			phase := time.Duration(r*7919+h*104729+1) * time.Nanosecond
			node, rr, hh := src, r, h
			sent := 0
			var tick func()
			tick = func() {
				dst := remote
				if sent%2 == 1 && p.hosts > 1 {
					dst = local
				}
				pay := make([]byte, 64+(rr*16+hh*4)%128)
				node.Send(NewUDP(node.Addr, dst, uint16(1000+sent), 9, pay).Own())
				sent++
				if sent < p.sends {
					env.After(period, tick)
				}
			}
			env.After(phase, tick)
		}
	}
	return delivered
}

// ringRun is one full simulation's comparable output.
type ringRun struct {
	events    string // merged observability stream, one line per event
	metrics   string // registry render
	delivered []int  // per-island application deliveries
	processed int
	now       time.Duration
	shards    int
}

func runRing(p ringParams, seed int64, shards int) ringRun {
	var trace strings.Builder
	sim := New(WithSeed(seed), WithShards(shards), WithObserver(obs.Func(func(ev obs.Event) {
		trace.WriteString(ev.String())
		trace.WriteByte('\n')
	})))
	counters := buildRing(sim, p)
	n := sim.Run()
	out := ringRun{
		events:    trace.String(),
		metrics:   sim.Metrics().Render(),
		processed: n,
		now:       sim.Now(),
		shards:    sim.ShardCount(),
	}
	for _, c := range counters {
		out.delivered = append(out.delivered, *c)
	}
	return out
}

func diffRuns(t *testing.T, want, got ringRun, label string) {
	t.Helper()
	if got.events != want.events {
		wl := strings.Split(want.events, "\n")
		gl := strings.Split(got.events, "\n")
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				t.Fatalf("%s: event streams diverge at line %d:\n  shards=1: %s\n  sharded:  %s", label, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("%s: event stream lengths differ: %d vs %d lines", label, len(wl), len(gl))
	}
	if got.metrics != want.metrics {
		t.Errorf("%s: metrics diverge:\n--- shards=1 ---\n%s\n--- sharded ---\n%s", label, want.metrics, got.metrics)
	}
	if got.processed != want.processed {
		t.Errorf("%s: processed %d events, want %d", label, got.processed, want.processed)
	}
	if got.now != want.now {
		t.Errorf("%s: final clock %v, want %v", label, got.now, want.now)
	}
	for i := range want.delivered {
		if got.delivered[i] != want.delivered[i] {
			t.Errorf("%s: island %d delivered %d, want %d", label, i, got.delivered[i], want.delivered[i])
		}
	}
}

// TestShardInvarianceRandomTopologies is the property test: random ring
// topologies and workloads must produce byte-identical event streams,
// metrics, and clocks at every shard count.
func TestShardInvarianceRandomTopologies(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed * 997))
		p := ringParams{
			islands: 2 + rng.Intn(4),
			hosts:   1 + rng.Intn(3),
			sends:   3 + rng.Intn(5),
		}
		p.crossHop = 1 + rng.Intn(p.islands-1)
		ref := runRing(p, seed, 1)
		if ref.shards != 1 {
			t.Fatalf("seed %d: reference run used %d shards", seed, ref.shards)
		}
		if ref.events == "" {
			t.Fatalf("seed %d: reference run produced no events", seed)
		}
		for _, n := range []int{2, 3, 4, 7} {
			got := runRing(p, seed, n)
			wantShards := n
			if wantShards > p.islands {
				wantShards = p.islands
			}
			if got.shards != wantShards {
				t.Errorf("seed %d shards=%d: effective shard count %d, want %d", seed, n, got.shards, wantShards)
			}
			diffRuns(t, ref, got, fmt.Sprintf("seed %d shards=%d (topology %+v)", seed, n, p))
		}
		// Stopped with packets still crossing the ring, the registry holds
		// exactly what the nodes' Stats sum to.
		for _, n := range []int{1, 4} {
			sim := New(WithSeed(seed), WithShards(n))
			buildRing(sim, p)
			sim.RunUntil(time.Millisecond)
			registryMatchesStats(t, sim, fmt.Sprintf("seed %d shards=%d after RunUntil", seed, n))
		}
	}
}

// registryMatchesStats compares each node.*.<counter> total in the
// registry with the same field summed over every node's Stats.
func registryMatchesStats(t *testing.T, sim *Simulator, label string) {
	t.Helper()
	want := map[string]int64{}
	for _, n := range sim.order {
		s := n.Stats()
		for name, v := range map[string]int64{
			"received_pkts": s.ReceivedPkts, "received_bytes": s.ReceivedBytes,
			"sent_pkts": s.SentPkts, "sent_bytes": s.SentBytes,
			"forwarded_pkts": s.ForwardedPkts, "delivered_pkts": s.DeliveredPkts,
			"dropped_pkts": s.DroppedPkts,
		} {
			want[name] += v
		}
	}
	got := map[string]int64{}
	for key, v := range sim.Metrics().Snapshot() {
		if rest, ok := strings.CutPrefix(key, "node."); ok {
			got[rest[strings.LastIndexByte(rest, '.')+1:]] += v
		}
	}
	if want["received_pkts"] == 0 {
		t.Fatalf("%s: no packet received yet", label)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: registry node.*.%s sums to %d, Stats to %d", label, name, got[name], w)
		}
	}
}

// TestShardCollapseWithoutBoundaries checks the conservative refusal to
// cut: a topology with no boundary links is one island, so WithShards(4)
// runs the legacy single-threaded engine with identical output.
func TestShardCollapseWithoutBoundaries(t *testing.T) {
	build := func(shards int) ringRun {
		var trace strings.Builder
		sim := New(WithSeed(3), WithShards(shards), WithObserver(obs.Func(func(ev obs.Event) {
			trace.WriteString(ev.String())
			trace.WriteByte('\n')
		})))
		a := NewNode(sim, "a", MustAddr("10.0.0.1"))
		r := NewNode(sim, "r", MustAddr("10.0.0.2"))
		b := NewNode(sim, "b", MustAddr("10.0.0.3"))
		r.Forwarding = true
		l1 := Connect(sim, a, r, LinkConfig{Bandwidth: 10e6})
		l2 := Connect(sim, r, b, LinkConfig{Bandwidth: 10e6})
		a.SetDefaultRoute(l1.Ifaces()[0])
		r.AddRoute(b.Addr, l2.Ifaces()[0])
		got := 0
		b.BindUDP(5, func(*Packet) { got++ })
		for i := 0; i < 4; i++ {
			d := time.Duration(i) * 250 * time.Microsecond
			sim.At(d, func() { a.Send(NewUDP(a.Addr, b.Addr, 1, 5, make([]byte, 100)).Own()) })
		}
		n := sim.Run()
		return ringRun{
			events: trace.String(), metrics: sim.Metrics().Render(),
			delivered: []int{got}, processed: n, now: sim.Now(), shards: sim.ShardCount(),
		}
	}
	ref := build(1)
	got := build(4)
	if got.shards != 1 {
		t.Fatalf("boundary-free topology ran on %d shards, want collapse to 1", got.shards)
	}
	diffRuns(t, ref, got, "collapsed")
}

// TestShardSealFreezesTopology: once a genuinely sharded simulation has
// run, island assignment is fixed, so topology mutation panics. The
// single-shard engine keeps the legacy permissive behavior.
func TestShardSealFreezesTopology(t *testing.T) {
	sim := New(WithShards(2))
	a := NewNode(sim, "a", MustAddr("10.0.0.1"))
	b := NewNode(sim, "b", MustAddr("10.0.0.2"))
	Connect(sim, a, b, LinkConfig{Bandwidth: 1e9, Delay: time.Millisecond, ShardBoundary: true})
	sim.Run()
	if sim.ShardCount() != 2 {
		t.Fatalf("ShardCount = %d, want 2", sim.ShardCount())
	}
	mustPanic := func(label string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s after sharded run did not panic", label)
			}
		}()
		fn()
	}
	mustPanic("NewNode", func() { NewNode(sim, "c", MustAddr("10.0.0.3")) })
	mustPanic("Connect", func() { Connect(sim, a, b, LinkConfig{Bandwidth: 1e9}) })
	mustPanic("NewSegment", func() { NewSegment(sim, "lan", LinkConfig{Bandwidth: 1e9}) })

	// Single-shard runs stay mutable (the legacy engine allowed growing
	// the topology between runs and existing tests rely on it).
	legacy := New()
	x := NewNode(legacy, "x", MustAddr("10.1.0.1"))
	legacy.Run()
	y := NewNode(legacy, "y", MustAddr("10.1.0.2"))
	Connect(legacy, x, y, LinkConfig{Bandwidth: 1e9})
}

// TestNewOptionsEquivalence: two same-seed constructions build
// identical simulators, and WithObserver matches a post-construction
// Subscribe.
func TestNewOptionsEquivalence(t *testing.T) {
	run := func(sim *Simulator, sink *obs.CountingSink) (string, int64) {
		if sink != nil {
			sim.Events().Subscribe(sink)
		}
		a := NewNode(sim, "a", MustAddr("10.0.0.1"))
		b := NewNode(sim, "b", MustAddr("10.0.0.2"))
		l := Connect(sim, a, b, LinkConfig{Bandwidth: 10e6})
		a.SetDefaultRoute(l.Ifaces()[0])
		b.BindUDP(7, func(*Packet) {})
		jitter := sim.Int63n(1000) // seed-visible draw
		sim.After(time.Duration(jitter)*time.Nanosecond, func() {
			a.Send(NewUDP(a.Addr, b.Addr, 1, 7, make([]byte, 50)).Own())
		})
		sim.Run()
		return sim.Metrics().Render(), int64(sim.Now())
	}
	m1, t1 := run(New(WithSeed(42)), nil)
	m2, t2 := run(New(WithSeed(42)), nil)
	if m1 != m2 || t1 != t2 {
		t.Errorf("two New(WithSeed(42)) simulators diverge: %q/%d vs %q/%d", m1, t1, m2, t2)
	}
	m3, t3 := run(New(WithSeed(99)), nil)
	if m3 != m1 && t3 == t1 {
		t.Logf("different seed changed metrics but not clock (fine)")
	}

	var viaOpt obs.CountingSink
	sim := New(WithSeed(42), WithObserver(&viaOpt))
	var viaSub obs.CountingSink
	run(sim, &viaSub)
	if viaOpt.Total() == 0 || viaOpt.Total() != viaSub.Total() {
		t.Errorf("WithObserver saw %d events, post-construction Subscribe saw %d", viaOpt.Total(), viaSub.Total())
	}
}

// TestCrossShardRace hammers every cross-shard surface under the race
// detector: mailbox ingestion, per-direction link state, the buffered
// observability merge, shared disowned packets fanned out to several
// shards at once (multicast across boundaries), and concurrent metrics
// snapshots from outside the simulation.
func TestCrossShardRace(t *testing.T) {
	p := ringParams{islands: 8, hosts: 2, sends: 40, crossHop: 3}
	var sink obs.CountingSink
	sim := New(WithSeed(11), WithShards(4), WithObserver(&sink))
	buildRing(sim, p)

	// Multicast across boundaries: core0 fans one packet pointer out to
	// both ring neighbors (different shards), which join the group and
	// deliver — concurrent Disown on a shared packet.
	group := MustAddr("224.0.0.1")
	core0 := sim.NodeByName("core0")
	for _, s := range core0.Interfaces() {
		if ifc := s.(*Iface); ifc.Peer() != nil && ifc.Peer().Node.Forwarding {
			core0.AddMulticastRoute(group, ifc)
		}
	}
	sim.NodeByName("core1").JoinGroup(group)
	sim.NodeByName(fmt.Sprintf("core%d", p.islands-1)).JoinGroup(group)
	env := core0.Env()
	for i := 0; i < 50; i++ {
		d := time.Duration(i)*90*time.Microsecond + 17*time.Nanosecond
		env.After(d, func() {
			core0.Send(NewUDP(core0.Addr, group, 1, 9, make([]byte, 200)))
		})
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				sim.Metrics().Snapshot()
			}
		}
	}()
	n := sim.Run()
	close(done)
	wg.Wait()
	if sim.ShardCount() != 4 {
		t.Fatalf("ShardCount = %d, want 4", sim.ShardCount())
	}
	if n == 0 || sink.Total() == 0 {
		t.Fatalf("race hammer ran %d events, observer saw %d — workload did not run", n, sink.Total())
	}
}
