package main

import (
	"math"
	"reflect"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	xs = append(xs, 1000)
	got, err := percentile(xs, 0.99)
	if err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 (ten samples beyond)", got, err)
	}
	if got, err := percentile(xs, 0.5); err != nil || got != 500 {
		t.Errorf("p50 of 1..1000 = %v, %v; want 500", got, err)
	}
	for _, p := range []float64{0, 1, -0.1} {
		if _, err := percentile(xs, p); err == nil {
			t.Errorf("percentile(%v) accepted", p)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of nothing accepted")
	}
}

// The floor rate takes each kind's fastest quantum, whichever round it
// ran in, and a disturbed round cannot lower it.
func TestFloors(t *testing.T) {
	// Two kinds alternate; a round is four quanta and ten ops.
	f := floors{kinds: 2}
	for _, round := range [][]float64{
		{10, 40, 12, 44},
		{90, 30, 11, 300}, // a burst hit quanta 0 and 3
		{15, 35, 10, 31},
	} {
		if err := f.add(10, round); err != nil {
			t.Fatal(err)
		}
	}
	// Floors are 10 and 30 µs: a round takes 80 µs at its best.
	if got, want := f.rate(), 10/80e-6; math.Abs(got-want) > 1e-6 {
		t.Errorf("floor rate %v, want %v", got, want)
	}
	if f.n != 12 {
		t.Errorf("%d quanta counted, want 12", f.n)
	}
	if err := f.add(10, []float64{1, 2, 3}); err == nil {
		t.Error("a round cut into another number of quanta was accepted")
	}

	// kinds 0: every position is its own kind.
	g := floors{}
	for _, round := range [][]float64{{5, 50, 7}, {6, 40, 9}} {
		if err := g.add(3, round); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := g.rate(), 3/52e-6; math.Abs(got-want) > 1e-6 {
		t.Errorf("floor rate by position %v, want %v", got, want)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean(1,100) = %v, want 10", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"sequential", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping count once", []interval{{110, 150}, {120, 160}, {130, 140}}, 50},
		{"unsorted", []interval{{150, 170}, {110, 120}}, 70},
		{"clipped to parent", []interval{{50, 110}, {190, 300}}, 80},
		{"outside", []interval{{0, 50}, {250, 300}}, 100},
		{"covering", []interval{{0, 300}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSeedToInputs(t *testing.T) {
	a, b := shuffledOrder(9, 7), shuffledOrder(9, 7)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different order: %v vs %v", a, b)
	}
	if reflect.DeepEqual(a, shuffledOrder(9, 8)) {
		t.Errorf("seeds 7 and 8 gave the same order %v", a)
	}
	seen := map[int]bool{}
	for _, i := range a {
		seen[i] = true
	}
	if len(seen) != 9 {
		t.Errorf("order %v is not a permutation of 0..8", a)
	}

	p1, p2 := portRing(1), portRing(2)
	if p1(0) == p2(0) {
		t.Errorf("seeds 1 and 2 start at the same port %d", p1(0))
	}
	if p1(0) != portRing(1)(0) {
		t.Error("same seed, different first port")
	}
	ports := map[uint16]bool{}
	for i := 0; i < 3*ringSize; i++ {
		p := p1(i)
		if p < 1024 {
			t.Fatalf("port %d below the unprivileged range", p)
		}
		ports[p] = true
	}
	if len(ports) != ringSize {
		t.Errorf("ring has %d distinct ports, want %d", len(ports), ringSize)
	}
	if p1(ringSize) != p1(0) || p1(1) != p1(0)+1 {
		t.Error("ring does not walk in order and wrap")
	}
}
