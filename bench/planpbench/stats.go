// Estimators and input generation shared by every workload. They are
// pure functions so stats_test.go can pin them in well under a second.
package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer the "percentile" is an order statistic of one or two slow
// samples and does not repeat.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1). It
// refuses when fewer than minBeyond samples lie beyond the returned
// one, so p99 needs at least 1000 samples. xs is sorted in place.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0,1)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if beyond := n - rank; n == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", p*100, n, n-rank, minBeyond)
	}
	sort.Float64s(xs)
	return xs[rank-1], nil
}

// geomean averages ratios and per-program times (compilers sheet: one
// large program must not dominate).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// floors keeps, for one rate phase, the fastest quantum of each kind.
type floors struct {
	kinds     int
	min       []float64 // µs, by kind
	positions int       // quanta per round
	ops       int       // ops per round
	n         int       // quanta seen
}

// add folds one round's quanta in. Every round of a phase must cut the
// same ops into the same number of quanta, or kinds would not line up.
func (f *floors) add(ops int, quanta []float64) error {
	if f.positions == 0 {
		f.positions, f.ops = len(quanta), ops
		k := f.kinds
		if k == 0 {
			k = f.positions
		}
		f.min = make([]float64, k)
		for i := range f.min {
			f.min[i] = math.Inf(1)
		}
	}
	if len(quanta) != f.positions || ops != f.ops {
		return fmt.Errorf("%w: a round of %d ops in %d quanta follows one of %d in %d", errCheck, ops, len(quanta), f.ops, f.positions)
	}
	for j, q := range quanta {
		if k := j % len(f.min); q < f.min[k] {
			f.min[k] = q
		}
	}
	f.n += len(quanta)
	return nil
}

// us is the time a round's quanta take when each runs as fast as its
// kind ever did.
func (f *floors) us() float64 {
	var us float64
	for j := 0; j < f.positions; j++ {
		us += f.min[j%len(f.min)]
	}
	return us
}

// rate is the ops of a round per second of that time.
func (f *floors) rate() float64 {
	us := f.us()
	if us <= 0 {
		return 0
	}
	return float64(f.ops) / us * 1e6
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of parent its children cover: the length of
// the union of the child intervals clipped to the parent. Children may
// overlap (fleet fans out to nodes concurrently), so summing their
// durations would over-count. children is sorted in place.
func covered(parent interval, children []interval) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].start < children[j].start })
	var total int64
	cur := parent.start
	for _, c := range children {
		s, e := c.start, c.end
		if s < cur {
			s = cur
		}
		if e > parent.end {
			e = parent.end
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - covered(parent, children)
}

// Seed → inputs. The program under test only ever sees what these
// return; the same seed gives the same inputs on every run and every
// Go release (math/rand's seeded stream is frozen).

// shuffledOrder returns a seed-determined permutation of 0..n-1.
func shuffledOrder(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// portRing is the rt_gateway source-port sequence: ringSize distinct
// ports starting at a seed-chosen offset in the unprivileged range,
// walked in order and wrapping. A bounded ring keeps the gateway's
// connection table the same size in every timed round.
const ringSize = 16384

func portRing(seed int64) func(i int) uint16 {
	span := 65536 - 1024 - ringSize
	base := 1024 + int(rand.New(rand.NewSource(seed)).Intn(span))
	return func(i int) uint16 { return uint16(base + i%ringSize) }
}
