// Compiled-program cache: downloading the same protocol source to many
// nodes (the common case — figure 7's grid re-installs the audio ASP on
// every router, figure 8 installs the gateway per variant) repeats the
// parse/check/verify/compile pipeline on identical input. The pipeline
// is deterministic for a given (source, engine, verify policy), so Load
// memoizes its result keyed by the source text itself: the map hashes
// the string where it lies and compares it on a hit, so looking a
// program up copies nothing and a digest collision cannot hand out the
// wrong program.
//
// What is shared is immutable for every engine: the typechecked Info,
// the engine.Compiled program (see its contract — any number of
// instances on any number of goroutines), and the verification result.
// Every Load still returns a FRESH *Program (installs = 0), so the
// single-node deployment limit applies per load, and every Install still
// creates its own engine instance and rebinds fresh per-node
// "asp.<node>.*" counters — caching is invisible to protocol state.
//
// The cache is bounded, so a daemon fed distinct sources over its control
// plane cannot grow it without limit: past cacheMaxEntries entries or
// cacheMaxBytes of source text, the oldest entry goes first. Both bounds
// sit far above any working set in the tree (a fleet deploy round of the
// benchmark leaves 124 entries, about 270 KB).
//
// The cache is guarded by a mutex because the parallel experiment
// driver loads programs from several goroutines at once.
package planprt

import (
	"sync"
	"time"

	"planp.dev/planp/internal/lang/engine"
	"planp.dev/planp/internal/lang/typecheck"
	"planp.dev/planp/internal/lang/verify"
)

type cacheKey struct {
	src    string
	engine EngineKind
	policy VerifyPolicy
}

type cacheEntry struct {
	info        *typecheck.Info
	compiled    engine.Compiled
	vres        *verify.Result
	codegenTime time.Duration
}

// program wraps the shared artifacts in a fresh Program.
func (e *cacheEntry) program(src string, policy VerifyPolicy) *Program {
	return &Program{
		Source:      src,
		Info:        e.info,
		Compiled:    e.compiled,
		Verify:      e.vres,
		Policy:      policy,
		CodegenTime: e.codegenTime,
	}
}

const (
	cacheMaxEntries = 1024
	cacheMaxBytes   = 16 << 20 // source bytes: sixteen uploads at planpd's 1 MiB limit
)

var progCache = struct {
	sync.Mutex
	m      map[cacheKey]*cacheEntry
	order  []cacheKey // keys of m, oldest first
	bytes  int        // source bytes of the keys in m
	hits   int64
	misses int64
}{m: make(map[cacheKey]*cacheEntry)}

// cacheGet returns the memoized pipeline result for key, or nil.
func cacheGet(key cacheKey) *cacheEntry {
	progCache.Lock()
	defer progCache.Unlock()
	e := progCache.m[key]
	if e != nil {
		progCache.hits++
	}
	return e
}

// cachePut memoizes a successful pipeline result, evicting the oldest
// entries past the bounds. Concurrent loaders may race to compile the
// same source; the first stored entry wins so later hits all observe one
// artifact set.
func cachePut(key cacheKey, e *cacheEntry) {
	progCache.Lock()
	defer progCache.Unlock()
	progCache.misses++
	if _, ok := progCache.m[key]; ok {
		return
	}
	progCache.m[key] = e
	progCache.order = append(progCache.order, key)
	progCache.bytes += len(key.src)
	for len(progCache.order) > cacheMaxEntries || progCache.bytes > cacheMaxBytes {
		old := progCache.order[0]
		progCache.order[0] = cacheKey{} // let the source go
		progCache.order = progCache.order[1:]
		delete(progCache.m, old)
		progCache.bytes -= len(old.src)
	}
}

// CacheStats reports (hits, misses) since process start or the last
// ResetCache.
func CacheStats() (hits, misses int64) {
	progCache.Lock()
	defer progCache.Unlock()
	return progCache.hits, progCache.misses
}

// ResetCache empties the compiled-program cache and zeroes its counters
// (test isolation; production code never needs it).
func ResetCache() {
	progCache.Lock()
	defer progCache.Unlock()
	progCache.m = make(map[cacheKey]*cacheEntry)
	progCache.order, progCache.bytes = nil, 0
	progCache.hits, progCache.misses = 0, 0
}
