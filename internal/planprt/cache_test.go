package planprt

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/substrate"
)

// TestCacheSharesArtifactsAcrossLoads pins the one cache-hit path: every
// engine's artifact is immutable, so a hit hands out the very same
// Compiled (and front-end results) in a fresh Program.
func TestCacheSharesArtifactsAcrossLoads(t *testing.T) {
	for _, eng := range []EngineKind{EngineInterp, EngineBytecode, EngineJIT} {
		t.Run(string(eng), func(t *testing.T) {
			ResetCache()
			cfg := Config{Engine: eng, Verify: VerifySingleNode}
			p1, err := Load(balancer, cfg)
			if err != nil {
				t.Fatal(err)
			}
			p2, err := Load(balancer, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if hits, misses := CacheStats(); hits != 1 || misses != 1 {
				t.Errorf("cache stats = (%d hits, %d misses), want (1, 1)", hits, misses)
			}
			if p1 == p2 {
				t.Error("Load must return a fresh *Program per call")
			}
			if p1.Compiled != p2.Compiled {
				t.Error("cached Load should share the compiled artifact")
			}
			if p1.Info != p2.Info {
				t.Error("cached Load should share the typechecked Info")
			}
			if p1.Verify != p2.Verify {
				t.Error("cached Load should share the verification result")
			}
			if p1.CodegenTime != p2.CodegenTime {
				t.Error("a hit reports the codegen time of the compile it reuses")
			}
		})
	}
}

func TestCacheKeyDiscriminatesEngineAndPolicy(t *testing.T) {
	ResetCache()
	if _, err := Load(balancer, Config{Engine: EngineJIT, Verify: VerifySingleNode}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(balancer, Config{Engine: EngineBytecode, Verify: VerifySingleNode}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(balancer, Config{Engine: EngineJIT, Verify: VerifyPrivileged}); err != nil {
		t.Fatal(err)
	}
	if hits, misses := CacheStats(); hits != 0 || misses != 3 {
		t.Errorf("cache stats = (%d hits, %d misses), want (0, 3): engine and policy must be part of the key", hits, misses)
	}
}

func TestCacheNoCacheBypasses(t *testing.T) {
	ResetCache()
	cfg := Config{Engine: EngineJIT, Verify: VerifySingleNode, NoCache: true}
	for i := 0; i < 2; i++ {
		if _, err := Load(balancer, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := CacheStats(); hits != 0 || misses != 0 {
		t.Errorf("cache stats = (%d hits, %d misses), want (0, 0) with NoCache", hits, misses)
	}
}

// TestCacheBounded pins the cache's bounds: loading more distinct
// sources than either bound allows leaves the cache at the bound, the
// oldest entries gone and one loaded in between still a hit.
func TestCacheBounded(t *testing.T) {
	defer ResetCache()
	cfg := Config{Engine: EngineJIT, Verify: VerifySingleNode}
	load := func(src string) {
		t.Helper()
		if _, err := Load(src, cfg); err != nil {
			t.Fatal(err)
		}
	}
	hitsOf := func(src string) int64 {
		t.Helper()
		before, _ := CacheStats()
		load(src)
		after, _ := CacheStats()
		return after - before
	}
	size := func() (int, int) {
		progCache.Lock()
		defer progCache.Unlock()
		if len(progCache.m) != len(progCache.order) {
			t.Fatalf("%d entries but %d keys in eviction order", len(progCache.m), len(progCache.order))
		}
		return len(progCache.m), progCache.bytes
	}

	ResetCache()
	distinct := func(i int) string { return fmt.Sprintf("%s\n-- source %d\n", balancer, i) }
	const k = 10
	for i := 0; i < cacheMaxEntries+k; i++ {
		load(distinct(i))
	}
	if n, _ := size(); n != cacheMaxEntries {
		t.Errorf("%d distinct loads left %d entries, want the bound %d", cacheMaxEntries+k, n, cacheMaxEntries)
	}
	if hitsOf(distinct(cacheMaxEntries)) != 1 {
		t.Error("a source loaded in between missed")
	}
	if hitsOf(distinct(0)) != 0 {
		t.Error("the oldest source still hit")
	}

	ResetCache()
	pad := strings.Repeat("-- padding to a large upload\n", (1<<20)/29)
	big := func(i int) string { return fmt.Sprintf("%s%s-- source %d\n", balancer, pad, i) }
	for i := 0; i < cacheMaxBytes>>20+k; i++ {
		load(big(i))
	}
	n, bytes := size()
	if bytes > cacheMaxBytes || n >= cacheMaxBytes>>20 {
		t.Errorf("%d loads of 1 MiB each left %d entries, %d source bytes, over the bound %d",
			cacheMaxBytes>>20+k, n, bytes, cacheMaxBytes)
	}
	if hitsOf(big(cacheMaxBytes>>20+k-2)) != 1 {
		t.Error("a large source loaded in between missed")
	}
}

// TestCachedLoadKeepsSingleNodeLimitPerLoad pins that install accounting
// is per *Program*: a second Load (cache hit) of a single-node program
// starts at zero installs, so each load may be installed once.
func TestCachedLoadKeepsSingleNodeLimitPerLoad(t *testing.T) {
	ResetCache()
	cfg := Config{Verify: VerifySingleNode}
	_, _, gw1, srv1, _ := topo(t)
	p1, err := Load(balancer, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Install(gw1, p1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Install(srv1, p1, nil); err == nil {
		t.Fatal("second install of the same loaded program must fail")
	}
	p2, err := Load(balancer, cfg) // cache hit
	if err != nil {
		t.Fatal(err)
	}
	_, _, gw2, _, _ := topo(t)
	if _, err := Install(gw2, p2, nil); err != nil {
		t.Errorf("cached re-load should start with zero installs: %v", err)
	}
}

// TestCachedRedownloadRebindsFreshCounters pins the invariant that a
// re-download via a cache hit still gets fresh per-node "asp.<node>.*"
// counters and fresh protocol state: caching the compiled artifact must
// not leak runtime state between installations.
func TestCachedRedownloadRebindsFreshCounters(t *testing.T) {
	ResetCache()
	cfg := Config{Verify: VerifySingleNode}
	run := func() (processed int64, state int64) {
		sim, client, gw, srvA, srvB := topo(t)
		rt, err := Download(gw, balancer, cfg)
		if err != nil {
			t.Fatal(err)
		}
		srvA.BindTCP(80, func(*netsim.Packet) {})
		srvB.BindTCP(80, func(*netsim.Packet) {})
		for i := 0; i < 6; i++ {
			client.Send(substrate.NewTCP(client.Addr, netsim.MustAddr("10.0.0.99"), uint16(5000+i), 80, 0, substrate.FlagSyn, []byte("GET /")))
		}
		sim.Run()
		return rt.Stats().Processed, rt.Instance().Proto.AsInt()
	}
	run()
	processed, state := run() // second run downloads via a cache hit
	if hits, _ := CacheStats(); hits == 0 {
		t.Fatal("second download did not hit the cache")
	}
	if processed != 6 {
		t.Errorf("re-download processed %d, want 6 (counters must rebind fresh)", processed)
	}
	if state != 6 {
		t.Errorf("re-download protocol state = %d, want 6 (state must not carry over)", state)
	}
}

func TestCacheConcurrentLoads(t *testing.T) {
	ResetCache()
	cfg := Config{Engine: EngineJIT, Verify: VerifySingleNode}
	var wg sync.WaitGroup
	progs := make([]*Program, 8)
	for i := range progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := Load(balancer, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = p
		}(i)
	}
	wg.Wait()
	// All loads that hit the cache share the first stored artifact set.
	if _, misses := CacheStats(); misses == 0 {
		t.Error("at least one load should have compiled")
	}
	for _, p := range progs {
		if p == nil || p.Compiled == nil {
			t.Fatal("concurrent load returned nil program")
		}
	}
}

// TestLoadWarmHitAllocs pins what a cache hit costs: the fresh Program
// and nothing that grows with the source — no copy of the text to hash,
// no digest state.
func TestLoadWarmHitAllocs(t *testing.T) {
	ResetCache()
	cfg := Config{Engine: EngineJIT, Verify: VerifySingleNode}
	if _, err := Load(balancer, cfg); err != nil {
		t.Fatal(err)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Load(balancer, cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if hits, _ := CacheStats(); hits != runs {
		t.Fatalf("%d cache hits in %d warm loads", hits, runs)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= uint64(len(balancer)) {
		t.Errorf("a cache hit allocates %d B, the source is %d B: the hit path must not copy it", per, len(balancer))
	}
}
