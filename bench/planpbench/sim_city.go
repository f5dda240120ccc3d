// sim_city — the city-scale scenario: 16 regional gateway clusters and
// audio multicast trees on a backbone ring, 20 544 nodes, about a
// million modelled clients, on one shard.
//
// Why: here netsim does the work — dispatch, links, the timer queue and
// node construction are about 80 % of the profile, planprt about 7 % —
// with multicast fan-out and a 20 000-node event heap where sim_gateway
// is unicast on five nodes. A scheduler, wheel or link change shows
// here; an engine change does not.
package main

import (
	"fmt"
	"time"

	"planp.dev/planp/bench/golden"
	"planp.dev/planp/internal/apps/city"
)

type simCity struct {
	seed  int64
	cfg   city.Config
	first *city.Result
}

func newSimCity(seed int64, sz sizes) *simCity {
	cfg := city.Full
	if sz.smoke {
		cfg = city.CI
	}
	cfg.Seed, cfg.Shards = seed, 1
	return &simCity{seed: seed, cfg: cfg}
}

func (w *simCity) name() string { return "sim_city" }
func (w *simCity) link() string { return "in-process simulator (netsim, virtual time)" }
func (w *simCity) phases() []phase {
	// city.Run is one call, so a round is one quantum.
	return []phase{{name: "build+run", share: 1, rate: true}}
}

func (w *simCity) setup(*tracer) error { w.first = nil; return nil }
func (w *simCity) close()              {}

func (w *simCity) round(_ int, idx int64, tr *tracer) (roundResult, error) {
	start, wall := tr.now(), time.Now()
	res, err := city.Run(w.cfg)
	if err != nil {
		return roundResult{}, err
	}
	quanta := []float64{float64(time.Since(wall)) / 1e3}
	// city.Run is one call: build and run cannot be separated from
	// outside, so the whole round is the netsim.run span.
	tr.finish("netsim.run", "", idx, 0, start, tr.now())
	out := roundResult{ops: int(res.Packets), quanta: quanta}
	if w.first == nil {
		w.first = res
	} else if res.Output != w.first.Output {
		out.failed = out.ops
		return out, fmt.Errorf("%w: two city runs at seed %d disagree", errCheck, w.seed)
	}
	return out, nil
}

// check: at seed 1 on the Full preset the report must be byte-equal to
// the checked-in one; at any seed it must equal the same city on four
// shards (the repo's determinism contract), run once, untimed.
func (w *simCity) check() error {
	if w.first == nil {
		return fmt.Errorf("%w: no round ran", errCheck)
	}
	if w.seed == 1 && w.cfg.Regions == city.Full.Regions && w.first.Output != golden.SimCitySeed1 {
		return fmt.Errorf("%w: city report at seed 1 differs from bench/golden/sim_city.seed1.txt", errCheck)
	}
	cfg := w.cfg
	cfg.Shards = 4
	sharded, err := city.Run(cfg)
	if err != nil {
		return err
	}
	if sharded.Shards < 2 {
		return fmt.Errorf("%w: the 4-shard reference ran on %d shard(s)", errCheck, sharded.Shards)
	}
	if sharded.Output != w.first.Output {
		return fmt.Errorf("%w: city report on 1 shard differs from 4 shards", errCheck)
	}
	return nil
}
