// Unified simulator construction: netsim.New(opts...) mirrors the
// functional-options style of the public planp.NewNetwork so the two
// layers read the same.
package netsim

import (
	"math/rand"

	"planp.dev/planp/internal/obs"
)

// config collects New options.
type config struct {
	seed      int64
	shards    int
	observers []obs.Subscriber
}

// Option configures New.
type Option func(*config)

// WithSeed sets the RNG seed all simulation randomness flows from
// (default 1). Runs with the same seed and workload are identical.
func WithSeed(seed int64) Option {
	return func(c *config) { c.seed = seed }
}

// WithShards sets the number of event-loop shards the simulation may
// run on (default 1). Sharding partitions the topology into islands
// separated by LinkConfig.ShardBoundary links and runs each island
// group's event heap on its own goroutine, synchronizing at horizons
// equal to the minimum cross-shard link delay (conservative parallel
// discrete-event simulation). The effective shard count is capped at
// the number of islands, so a topology that declares no boundaries
// runs on one shard whatever n says — the determinism contract
// (byte-identical output for a fixed seed at any shard count) is never
// traded for parallelism. See shard.go for the contract's fine print.
func WithShards(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.shards = n
	}
}

// WithObserver subscribes an observer to the simulation's event bus at
// construction. May be given multiple times; observers fire in
// subscription order. With no observers the per-packet publish sites
// cost nothing.
func WithObserver(o obs.Subscriber) Option {
	return func(c *config) { c.observers = append(c.observers, o) }
}

// New returns a simulator configured by opts.
func New(opts ...Option) *Simulator {
	cfg := config{seed: 1, shards: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	s := &Simulator{
		seed:       cfg.seed,
		wantShards: cfg.shards,
		horizon:    noHorizon,
		nodes:      map[Addr]*Node{},
		nameIx:     map[string]*Node{},
		bus:        &obs.Bus{},
		reg:        obs.NewRegistry(),
	}
	// Shard 0 always exists and carries the control-plane clock,
	// sequence numbers, and seeded RNG; with one shard its bus IS the
	// global bus and its one-slot outbox stays empty, so the run loop
	// runs it as a single unbounded window.
	s.shards = []*shard{{
		id:    0,
		sim:   s,
		queue: timerQueue{wheelOn: true},
		rng:   rand.New(rand.NewSource(cfg.seed)),
		bus:   s.bus,
		out:   make([][]xmsg, 1),
	}}
	for _, o := range cfg.observers {
		s.bus.Subscribe(o)
	}
	return s
}
