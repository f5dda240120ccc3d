package planprt

import (
	"sync"
	"testing"
)

// TestSignatureRidesCompileCache pins that the channel-interface
// signature is part of the cached front-end: a cache hit returns the
// identical artifact, not a re-extraction.
func TestSignatureRidesCompileCache(t *testing.T) {
	ResetCache()
	cfg := Config{Engine: EngineBytecode, Verify: VerifySingleNode}
	p1, err := Load(balancer, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Load(balancer, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := CacheStats(); hits != 1 {
		t.Fatalf("second load should hit the cache, got %d hits", hits)
	}
	s1, s2 := p1.Signature(), p2.Signature()
	if s1 == nil || len(s1.Channels) == 0 {
		t.Fatal("loaded program has no signature")
	}
	if s1 != s2 {
		t.Error("cache hit must share the extracted signature, not rebuild it")
	}
	for _, ch := range s1.Channels {
		if ch.Packet == "" || !ch.Pos.IsValid() {
			t.Errorf("channel %s: incomplete signature entry %+v", ch.Name, ch)
		}
	}
}

// TestSigDigestOncePerProgram: a compiled program's signature digest is
// encoded and hashed once, on the Info every cache hit shares. After
// one program of a source has its digest, the digest of any other load
// of that source allocates nothing.
func TestSigDigestOncePerProgram(t *testing.T) {
	ResetCache()
	cfg := Config{Engine: EngineJIT, Verify: VerifySingleNode}
	load := func() *Program {
		p, err := Load(balancer, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	first := load()
	if d := first.SigDigest(); d == "" || d != first.Signature().Digest() {
		t.Fatalf("SigDigest %q, want the signature's digest %q", d, first.Signature().Digest())
	}
	// One program per run, the warm-up's included, so a digest kept per
	// Program rather than per compiled program would allocate each run.
	const runs = 10
	progs := make([]*Program, runs+1)
	for i := range progs {
		progs[i] = load()
	}
	i := 0
	if n := testing.AllocsPerRun(runs, func() { progs[i].SigDigest(); i++ }); n != 0 {
		t.Errorf("the digest of a cache hit allocates %v times, want 0", n)
	}
}

// TestSigDigestConcurrentFirstUse: goroutines asking for the digest of
// one freshly compiled program at once all get the signature's digest
// (run it under -race).
func TestSigDigestConcurrentFirstUse(t *testing.T) {
	ResetCache()
	cfg := Config{Engine: EngineJIT, Verify: VerifySingleNode}
	progs := make([]*Program, 8)
	for i := range progs {
		p, err := Load(balancer, cfg)
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = p
	}
	want := progs[0].Signature().Digest()
	var wg sync.WaitGroup
	for _, p := range progs {
		wg.Add(1)
		go func(p *Program) {
			defer wg.Done()
			if got := p.SigDigest(); got != want {
				t.Errorf("SigDigest %q, want %q", got, want)
			}
		}(p)
	}
	wg.Wait()
}

// BenchmarkLoadSignature gates the cost of signature extraction on the
// hot path: a cached Load plus a Signature access. Extraction happens
// once at compile time, so this must run at the same speed as a plain
// cached Load (pointer reads only).
func BenchmarkLoadSignature(b *testing.B) {
	ResetCache()
	cfg := Config{Engine: EngineBytecode, Verify: VerifySingleNode}
	if _, err := Load(balancer, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := Load(balancer, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if sig := p.Signature(); sig == nil || len(sig.Channels) == 0 {
			b.Fatal("missing signature on cached load")
		}
	}
}
