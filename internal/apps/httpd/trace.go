// Synthetic access trace: the stand-in for the paper's replay of 80000
// real accesses to the IRISA web server. Document popularity follows a
// Zipf law and response sizes a heavy-tailed mixture, the standard
// empirical shape of 1990s web traffic, so server work per request
// varies the way the original trace made it vary.
package httpd

import (
	"math"
	"math/rand"
)

// TraceEntry is one access: a document id and its response size.
type TraceEntry struct {
	Doc  int
	Size int // response bytes
}

// Trace is a reproducible synthetic access log, drawn as it is read:
// Next draws one access from the seeded generator. After Accesses draws
// it re-seeds and redraws the sizes, so it cycles through the accesses
// a table of Accesses entries would hold, without holding them.
type Trace struct {
	cfg   TraceConfig
	rng   *rand.Rand
	zipf  *rand.Zipf
	sizes []int // response bytes per document
	drawn int   // accesses drawn since the generator was last seeded
}

// TraceConfig parameterizes trace synthesis.
type TraceConfig struct {
	Accesses  int     // total accesses (paper: 80000)
	Documents int     // distinct documents
	ZipfS     float64 // Zipf skew (>1)
	MeanSize  int     // mean response size in bytes
	Seed      int64
}

// DefaultTraceConfig mirrors the paper's replay scale.
func DefaultTraceConfig() TraceConfig {
	return TraceConfig{Accesses: 80000, Documents: 2000, ZipfS: 1.2, MeanSize: 6000, Seed: 1}
}

// NewTrace synthesizes a trace.
func NewTrace(cfg TraceConfig) *Trace {
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Trace{cfg: cfg, rng: rng, sizes: make([]int, cfg.Documents),
		zipf: rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Documents-1))}
	t.drawSizes()
	return t
}

// drawSizes draws the per-document sizes from the generator's next
// Documents normals: a lognormal body with a floor, scaled to the
// requested mean.
func (t *Trace) drawSizes() {
	var total float64
	for i := range t.sizes {
		s := math.Exp(t.rng.NormFloat64()*1.0 + 8.0) // median ~3 KB, heavy tail
		if s < 256 {
			s = 256
		}
		if s > 200_000 {
			s = 200_000
		}
		t.sizes[i] = int(s)
		total += s
	}
	scale := float64(t.cfg.MeanSize) * float64(t.cfg.Documents) / total
	for i := range t.sizes {
		t.sizes[i] = int(float64(t.sizes[i]) * scale)
		if t.sizes[i] < 128 {
			t.sizes[i] = 128
		}
	}
}

// Next returns the next access, cycling when the trace is exhausted
// (clients "continuously issue requests", §3.2).
func (t *Trace) Next() TraceEntry {
	if t.drawn == t.cfg.Accesses {
		t.rng.Seed(t.cfg.Seed)
		t.drawSizes()
		t.drawn = 0
	}
	t.drawn++
	doc := int(t.zipf.Uint64())
	return TraceEntry{Doc: doc, Size: t.sizes[doc]}
}
