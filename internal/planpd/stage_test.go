package planpd

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/planprt"
)

const stageForwarder = `
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); (ps + 1, ss))
`

const stageForwarderV2 = `
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); (ps + 2, ss))
`

// stageNode boots one netsim node behind a control server.
func stageNode(t *testing.T) (*netsim.Node, string) {
	t.Helper()
	sim := netsim.New(netsim.WithSeed(1))
	node := netsim.NewNode(sim, "n0", netsim.Addr(0x0A000001))
	srv := httptest.NewServer(NewServer(node, io.Discard).Handler())
	t.Cleanup(srv.Close)
	return node, srv.URL
}

// call performs one request and returns status + decoded JSON body
// (nil body for error responses).
func call(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var decoded map[string]any
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, decoded
}

// aspState reads the node's version state machine.
func aspState(t *testing.T, base string) (active, staged, prev string) {
	t.Helper()
	code, body := call(t, http.MethodGet, base+"/asp", "")
	if code != http.StatusOK {
		t.Fatalf("GET /asp: %d", code)
	}
	return body["active"].(string), body["staged"].(string), body["prev"].(string)
}

// TestStageRejectsBrokenProtocol: phase 1 runs the full verification
// pipeline; a rejected program leaves nothing staged and the node
// untouched.
func TestStageRejectsBrokenProtocol(t *testing.T) {
	node, base := stageNode(t)
	code, _ := call(t, http.MethodPost, base+"/asp/stage?version=v1",
		"fun broken( : int = nonsense")
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("broken stage: %d, want 422", code)
	}
	if _, staged, _ := aspState(t, base); staged != "" {
		t.Errorf("broken program ended up staged: %q", staged)
	}
	if node.CurrentProcessor() != nil {
		t.Error("broken program touched the packet path")
	}
	// So is an engine or verify policy planprt.ParseConfig does not know,
	// staged or installed; the register VM is not one of its engines.
	for _, q := range []string{"engine=llvm", "verify=trusted", "engine=bytecode"} {
		for _, route := range []string{"/asp/stage", "/asp"} {
			if code, _ := call(t, http.MethodPost, base+route+"?version=v1&"+q, stageForwarder); code != http.StatusBadRequest {
				t.Errorf("POST %s with %s: %d, want 400", route, q, code)
			}
		}
		if active, staged, _ := aspState(t, base); active != "" || staged != "" || node.CurrentProcessor() != nil {
			t.Errorf("refused %s left active %q, staged %q", q, active, staged)
		}
	}
	// Stage without a version label is a client error.
	if code, _ := call(t, http.MethodPost, base+"/asp/stage", stageForwarder); code != http.StatusBadRequest {
		t.Errorf("unlabelled stage: %d, want 400", code)
	}
}

// TestStageReadsSourceOnce: a staged upload is read into one buffer and
// compiled from it, not from a copy. A 64 KiB source the lexer rejects
// at its first byte allocates less than 1.5 times its length per
// request; a copy of the source would make it twice.
func TestStageReadsSourceOnce(t *testing.T) {
	const size, runs = 64 << 10, 20
	src := "$" + strings.Repeat(" ", size-1)
	h := NewServer(netsim.NewNode(netsim.New(netsim.WithSeed(1)), "n0", netsim.Addr(0x0A000001)), io.Discard).Handler()
	reqs := make([]*http.Request, runs)
	recs := make([]*httptest.ResponseRecorder, runs)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/asp/stage?version=v1", strings.NewReader(src))
		recs[i] = httptest.NewRecorder()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, req := range reqs {
		h.ServeHTTP(recs[i], req)
	}
	runtime.ReadMemStats(&after)
	if code := recs[0].Code; code != http.StatusUnprocessableEntity {
		t.Fatalf("stage: %d, want 422: %s", code, recs[0].Body)
	}
	if b := float64(after.TotalAlloc-before.TotalAlloc) / runs; b >= 1.5*size {
		t.Errorf("a %d B upload allocates %.0f B, want under %.0f", size, b, 1.5*size)
	}
}

// TestStageActivateCycle walks the full state machine: stage, activate,
// upgrade, rollback — checking the node's packet path at each step.
func TestStageActivateCycle(t *testing.T) {
	node, base := stageNode(t)

	// Stage v1: verified + compiled, but not processing packets.
	code, body := call(t, http.MethodPost, base+"/asp/stage?version=v1", stageForwarder)
	if code != http.StatusOK || body["staged"] != true {
		t.Fatalf("stage v1: %d %v", code, body)
	}
	if node.CurrentProcessor() != nil {
		t.Fatal("staging must not touch the packet path")
	}

	// Activating a version that is not staged is a conflict.
	if code, _ := call(t, http.MethodPost, base+"/asp/activate?version=v9", ""); code != http.StatusConflict {
		t.Fatalf("activate unstaged version: %d, want 409", code)
	}

	// Activate v1: the staged version swaps in.
	code, body = call(t, http.MethodPost, base+"/asp/activate?version=v1", "")
	if code != http.StatusOK || body["active"] != true {
		t.Fatalf("activate v1: %d %v", code, body)
	}
	if node.CurrentProcessor() == nil {
		t.Fatal("activation did not install the processor")
	}
	active, staged, _ := aspState(t, base)
	if active != "v1" || staged != "" {
		t.Fatalf("after activate: active %q staged %q", active, staged)
	}

	// Idempotent replay: re-activating the running version succeeds.
	if code, _ := call(t, http.MethodPost, base+"/asp/activate?version=v1", ""); code != http.StatusOK {
		t.Fatalf("replayed activate: %d, want 200", code)
	}

	// Upgrade: stage v2, activate v2. v1 becomes the rollback target.
	proc1 := node.CurrentProcessor()
	if code, _ := call(t, http.MethodPost, base+"/asp/stage?version=v2", stageForwarderV2); code != http.StatusOK {
		t.Fatalf("stage v2: %d", code)
	}
	if node.CurrentProcessor() != proc1 {
		t.Fatal("staging the upgrade disturbed the running version")
	}
	if code, _ := call(t, http.MethodPost, base+"/asp/activate?version=v2", ""); code != http.StatusOK {
		t.Fatalf("activate v2: %d", code)
	}
	active, _, prev := aspState(t, base)
	if active != "v2" || prev != "v1" {
		t.Fatalf("after upgrade: active %q prev %q, want v2/v1", active, prev)
	}
	if node.CurrentProcessor() == proc1 || node.CurrentProcessor() == nil {
		t.Fatal("upgrade did not swap the processor")
	}

	// Rollback v2: v1 is restored.
	code, body = call(t, http.MethodPost, base+"/asp/rollback?version=v2", "")
	if code != http.StatusOK || body["rolledback"] != true || body["active"] != "v1" {
		t.Fatalf("rollback: %d %v", code, body)
	}
	if active, _, _ := aspState(t, base); active != "v1" {
		t.Fatalf("after rollback: active %q, want v1", active)
	}
	if node.CurrentProcessor() == nil {
		t.Fatal("rollback left the node bare")
	}

	// Rolling back v2 again is an idempotent no-op (it is not active).
	code, body = call(t, http.MethodPost, base+"/asp/rollback?version=v2", "")
	if code != http.StatusOK || body["rolledback"] != false || body["active"] != "v1" {
		t.Fatalf("replayed rollback: %d %v", code, body)
	}
}

// TestRollbackThatCannotRestoreKeepsVersion: when the rollback target
// will not reinstall (here: a single-node program that meanwhile runs
// elsewhere), the node is not left bare — the version being rolled back
// keeps running, the target is retained for a retry, and the controller
// is told 500.
func TestRollbackThatCannotRestoreKeepsVersion(t *testing.T) {
	sim := netsim.New(netsim.WithSeed(1))
	node := netsim.NewNode(sim, "n0", netsim.Addr(0x0A000001))
	s := NewServer(node, io.Discard)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	for _, step := range []struct{ path, body string }{
		{"/asp/stage?version=v1&verify=single", stageForwarder},
		{"/asp/activate?version=v1", ""},
		{"/asp/stage?version=v2", stageForwarderV2},
		{"/asp/activate?version=v2", ""},
	} {
		if code, _ := call(t, http.MethodPost, srv.URL+step.path, step.body); code != http.StatusOK {
			t.Fatalf("POST %s: %d", step.path, code)
		}
	}
	// v1's one permitted installation is taken up by another node.
	other := netsim.NewNode(sim, "n1", netsim.Addr(0x0A000002))
	if _, err := planprt.Install(other, s.prev.prog, io.Discard); err != nil {
		t.Fatal(err)
	}

	code, raw := rawCall(t, http.MethodPost, srv.URL+"/asp/rollback?version=v2", "")
	if code != http.StatusInternalServerError || !strings.Contains(string(raw), `could not restore "v1"`) {
		t.Fatalf("rollback: %d %q, want 500 naming v1", code, raw)
	}
	if active, _, prev := aspState(t, srv.URL); active != "v2" || prev != "v1" {
		t.Errorf("after the failed rollback: active %q prev %q, want v2 still running and v1 retained", active, prev)
	}
	if node.CurrentProcessor() == nil {
		t.Error("the failed rollback left the node bare")
	}
}

// TestStageAbort: DELETE /asp/stage discards the staged version,
// scoped to ?version= when given, idempotently.
func TestStageAbort(t *testing.T) {
	_, base := stageNode(t)
	if code, _ := call(t, http.MethodPost, base+"/asp/stage?version=v1", stageForwarder); code != http.StatusOK {
		t.Fatal("stage failed")
	}
	// Aborting a different version leaves the stage alone.
	if code, body := call(t, http.MethodDelete, base+"/asp/stage?version=v9", ""); code != http.StatusOK || body["staged"] != true {
		t.Fatalf("scoped abort of wrong version: %d %v", code, body)
	}
	if _, staged, _ := aspState(t, base); staged != "v1" {
		t.Fatalf("staged = %q, want v1 intact", staged)
	}
	// Aborting the right version clears it; repeating is a no-op.
	for i := 0; i < 2; i++ {
		if code, body := call(t, http.MethodDelete, base+"/asp/stage?version=v1", ""); code != http.StatusOK || body["staged"] != false {
			t.Fatalf("abort round %d: %d %v", i, code, body)
		}
	}
	if _, staged, _ := aspState(t, base); staged != "" {
		t.Fatalf("staged = %q after abort, want empty", staged)
	}
	// Activating the aborted version now conflicts.
	if code, _ := call(t, http.MethodPost, base+"/asp/activate?version=v1", ""); code != http.StatusConflict {
		t.Errorf("activate after abort: %d, want 409", code)
	}
}

// TestStageReplace: a second stage replaces the first (the controller
// retries stages; the last one wins).
func TestStageReplace(t *testing.T) {
	_, base := stageNode(t)
	if code, _ := call(t, http.MethodPost, base+"/asp/stage?version=v1", stageForwarder); code != http.StatusOK {
		t.Fatal("stage v1 failed")
	}
	if code, _ := call(t, http.MethodPost, base+"/asp/stage?version=v2", stageForwarderV2); code != http.StatusOK {
		t.Fatal("stage v2 failed")
	}
	if _, staged, _ := aspState(t, base); staged != "v2" {
		t.Fatalf("staged = %q, want v2 (replacement)", staged)
	}
	if code, _ := call(t, http.MethodPost, base+"/asp/activate?version=v1", ""); code != http.StatusConflict {
		t.Errorf("activate replaced version: %d, want 409", code)
	}
}

// TestActivateRefusesUnmanagedProtocol: a protocol installed outside
// the server (directly through planprt) is never displaced by an
// activation.
func TestActivateRefusesUnmanagedProtocol(t *testing.T) {
	node, base := stageNode(t)
	rt, err := planprt.Download(node, stageForwarder, planprt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Uninstall()
	occupied := node.CurrentProcessor()

	if code, _ := call(t, http.MethodPost, base+"/asp/stage?version=v1", stageForwarderV2); code != http.StatusOK {
		t.Fatal("staging next to an unmanaged protocol should work")
	}
	if code, _ := call(t, http.MethodPost, base+"/asp/activate?version=v1", ""); code != http.StatusConflict {
		t.Fatalf("activate over unmanaged protocol: %d, want 409", code)
	}
	if node.CurrentProcessor() != occupied {
		t.Fatal("activation disturbed the unmanaged protocol")
	}
}

// TestHealthzReportsActiveVersion: the health probe carries the active
// version, which the fleet controller records as the rollback target.
func TestHealthzReportsActiveVersion(t *testing.T) {
	_, base := stageNode(t)
	code, body := call(t, http.MethodGet, base+"/healthz", "")
	if code != http.StatusOK || body["version"] != "" {
		t.Fatalf("bare healthz: %d %v", code, body)
	}
	call(t, http.MethodPost, base+"/asp/stage?version=v7", stageForwarder)
	call(t, http.MethodPost, base+"/asp/activate?version=v7", "")
	_, body = call(t, http.MethodGet, base+"/healthz", "")
	if body["version"] != "v7" {
		t.Fatalf("healthz version = %v, want v7", body["version"])
	}
}

// TestCrashReturnsNodeToBare: a chaos crash removes the node's
// processor behind the server's back. The server must stop reporting
// the version it ran, reinstall that version when the fleet redeploys
// it, and still roll an upgrade back afterwards: the crashed version's
// single-node install slot is released, not leaked.
func TestCrashReturnsNodeToBare(t *testing.T) {
	node, base := stageNode(t)
	post := func(path, body string) map[string]any {
		t.Helper()
		code, resp := call(t, http.MethodPost, base+path, body)
		if code != http.StatusOK {
			t.Fatalf("POST %s: %d", path, code)
		}
		return resp
	}
	post("/asp/stage?version=v1&verify=single", stageForwarder)
	post("/asp/activate?version=v1", "")
	node.Crash()
	node.Restart()

	if _, body := call(t, http.MethodGet, base+"/asp", ""); body["active"] != "" || body["asp"] != false {
		t.Errorf("GET /asp after a crash: active %v, asp %v; want no active version", body["active"], body["asp"])
	}
	if _, body := call(t, http.MethodGet, base+"/healthz", ""); body["version"] != "" || body["asp"] != false {
		t.Errorf("GET /healthz after a crash: version %v, asp %v; want none", body["version"], body["asp"])
	}

	post("/asp/stage?version=v1&verify=single", stageForwarder)
	post("/asp/activate?version=v1", "")
	if node.CurrentProcessor() == nil {
		t.Error("redeploying v1 after the crash left the node bare")
	}
	post("/asp/stage?version=v2", stageForwarderV2)
	post("/asp/activate?version=v2", "")
	if body := post("/asp/rollback?version=v2", ""); body["rolledback"] != true || body["active"] != "v1" {
		t.Fatalf("rollback of v2: %v, want v1 restored", body)
	}
	if node.CurrentProcessor() == nil {
		t.Error("the rollback left the node bare")
	}
}
