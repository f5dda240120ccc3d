package planprt

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"planp.dev/planp/internal/lang/diag"
)

// raisingFun and safeFun call their first fun at the same abstract
// arguments, and only raisingFun's may raise: a fun summary one load
// left behind would flip the other's delivery verdict.
const (
	raisingFun = `fun f(x : int) : int = x / 0
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (deliver(p); (try f(ps) handle 0 end, ss))
`
	safeFun = `fun f(x : int) : int = x + 1
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (deliver(p); (f(ps), ss))
`
)

// coldLoadSources reads every program a cold load is tried on here:
// the in-tree ASPs, the malformed ones, FuzzCheck's seed corpus, and
// raisingFun and safeFun.
func coldLoadSources(t *testing.T) (names, srcs []string) {
	t.Helper()
	names, srcs = []string{"raisingFun", "safeFun"}, []string{raisingFun, safeFun}
	for _, pattern := range []string{"../../asp/*.planp", "../../asp/testdata/malformed/*.planp"} {
		paths, err := filepath.Glob(pattern)
		if err != nil || len(paths) == 0 {
			t.Fatalf("no programs at %s: %v", pattern, err)
		}
		for _, path := range paths {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			names, srcs = append(names, path), append(srcs, string(b))
		}
	}
	paths, err := filepath.Glob("../lang/engine/testdata/fuzz/FuzzCheck/*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no FuzzCheck corpus: %v", err)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// A corpus file is "go test fuzz v1\nstring(<quoted>)\n".
		_, arg, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		names, srcs = append(names, path), append(srcs, src)
	}
	return names, srcs
}

// coldLoadRecord is everything a cold load of src reports, under the
// privileged policy (every analysis's verdict) and the single-node one
// (a rejection's text): the error and its rendering, or the verifier's
// report, the signature and its digest, and each channel's HandsOn and
// frame size.
func coldLoadRecord(src string) string {
	var sb strings.Builder
	for _, policy := range []VerifyPolicy{VerifyPrivileged, VerifySingleNode} {
		p, err := Load(src, Config{Verify: policy, NoCache: true})
		if err != nil {
			fmt.Fprintf(&sb, "error: %v\n%s", err, diag.Render(src, "src", diag.Of(err)))
			continue
		}
		sig, err := json.Marshal(p.Signature())
		if err != nil {
			return err.Error()
		}
		fmt.Fprintf(&sb, "%s%s\n%s\n", p.Verify, sig, p.SigDigest())
		for _, ch := range p.Info.Channels {
			fmt.Fprintf(&sb, "%s handsOn=%t frame=%d\n", ch.Decl.Name, ch.HandsOn, ch.FrameSize)
		}
	}
	return sb.String()
}

// TestColdLoadOrderIndependent holds the checker's and the verifier's
// pooled workspaces to leaving nothing of one load in the next: every
// load reports the same bytes as in a serial pass in file order,
// whatever loaded before it and whatever loads beside it.
func TestColdLoadOrderIndependent(t *testing.T) {
	names, srcs := coldLoadSources(t)
	want := make([]string, len(srcs))
	for i, src := range srcs {
		want[i] = coldLoadRecord(src)
	}
	check := func(i int) error {
		if got := coldLoadRecord(srcs[i]); got != want[i] {
			return fmt.Errorf("%s reports otherwise than in the serial pass:\n%s\nwant:\n%s", names[i], got, want[i])
		}
		return nil
	}
	rng := rand.New(rand.NewSource(1))
	for pass := 0; pass < 3; pass++ {
		for _, i := range rng.Perm(len(srcs)) {
			if err := check(i); err != nil {
				t.Fatalf("shuffled pass %d: %v", pass, err)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		order := rng.Perm(len(srcs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range order {
				if err := check(i); err != nil {
					t.Errorf("concurrent pass: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
