// Time series and playback-gap detection, absorbed from the old
// experiment-only internal/trace package so that experiments, tests,
// and the bench harness read measurements from the same registry the
// simulator writes to (figure-6 bandwidth curves, figure-7 gaps).
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Point is one sample of a time series.
type Point struct {
	At    time.Duration
	Value float64
}

// Series is a named time series. Samples are appended in virtual-time
// order by the single-threaded simulation; reads may come from other
// goroutines (monitoring, tests), so access is mutex-guarded.
type Series struct {
	Name string

	mu     sync.Mutex
	points []Point
}

// Add appends a sample.
func (s *Series) Add(at time.Duration, v float64) {
	s.mu.Lock()
	s.points = append(s.points, Point{At: at, Value: v})
	s.mu.Unlock()
}

// Len returns the number of samples.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.points)
}

// At returns the last sample value at or before t (0 if none).
func (s *Series) At(t time.Duration) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := sort.Search(len(s.points), func(i int) bool { return s.points[i].At > t })
	if idx == 0 {
		return 0
	}
	return s.points[idx-1].Value
}

// Mean returns the mean value of samples in [from, to).
func (s *Series) Mean(from, to time.Duration) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum float64
	var n int
	for _, p := range s.points {
		if p.At >= from && p.At < to {
			sum += p.Value
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Max returns the maximum sample value in [from, to).
func (s *Series) Max(from, to time.Duration) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var m float64
	for _, p := range s.points {
		if p.At >= from && p.At < to && p.Value > m {
			m = p.Value
		}
	}
	return m
}

// Render prints the series as "t value" rows with the given sample
// stride, the same shape as the paper's figures.
func (s *Series) Render(stride time.Duration) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s\n", s.Name)
	s.mu.Lock()
	n := len(s.points)
	var end time.Duration
	if n > 0 {
		end = s.points[n-1].At
	}
	s.mu.Unlock()
	if n == 0 {
		return sb.String()
	}
	for t := time.Duration(0); t <= end; t += stride {
		fmt.Fprintf(&sb, "%8.1f  %10.1f\n", t.Seconds(), s.At(t))
	}
	return sb.String()
}

// GapDetector counts playback gaps ("silent periods", figure 7): spans
// where the inter-arrival time of audio packets exceeds the playout
// budget, or packets are lost.
type GapDetector struct {
	// Budget is the playout slack: a gap is declared when the time
	// since the previous packet exceeds Budget.
	Budget time.Duration

	last     time.Duration
	started  bool
	gaps     int
	gapTime  time.Duration
	received int
}

// NewGapDetector returns a detector with the given playout budget.
func NewGapDetector(budget time.Duration) *GapDetector {
	return &GapDetector{Budget: budget}
}

// Packet records an audio packet arrival at virtual time now.
func (g *GapDetector) Packet(now time.Duration) {
	g.received++
	if g.started && now-g.last > g.Budget {
		g.gaps++
		g.gapTime += now - g.last - g.Budget
	}
	g.last = now
	g.started = true
}

// Finish closes the stream at virtual time end, accounting a trailing
// gap if the stream went silent early.
func (g *GapDetector) Finish(end time.Duration) {
	if g.started && end-g.last > g.Budget {
		g.gaps++
		g.gapTime += end - g.last - g.Budget
	}
}

// Gaps returns the number of silent periods detected.
func (g *GapDetector) Gaps() int { return g.gaps }

// GapTime returns the total silent time.
func (g *GapDetector) GapTime() time.Duration { return g.gapTime }

// Received returns the number of packets seen.
func (g *GapDetector) Received() int { return g.received }
