package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestFleetHistoryPersists: rollout records written by one controller
// are visible to a fresh controller over the same history file — the
// "daemon restarted" case — with IDs continuing where the previous
// process stopped, and GET /deployments serving the merged history.
func TestFleetHistoryPersists(t *testing.T) {
	tf := newTestFleet(t, 2)
	path := filepath.Join(t.TempDir(), "deployments.jsonl")
	ctx := context.Background()

	c1 := tf.controller(Config{HistoryPath: path})
	if _, err := c1.Deploy(ctx, Spec{Version: "v1", Source: forwarder}, tf.targets); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Deploy(ctx, Spec{Version: "v2", Source: brokenASP}, tf.targets); err == nil {
		t.Fatal("broken program must fail to deploy")
	}

	// "Restart": a brand-new controller over the same file. Both
	// rollouts — including the failed one — must be there, states and
	// node records intact.
	c2 := tf.controller(Config{HistoryPath: path})
	views := c2.Deployments()
	if len(views) != 2 {
		t.Fatalf("restarted controller sees %d deployments, want 2", len(views))
	}
	if views[0].Version != "v1" || views[0].State != StateActive {
		t.Errorf("record 0 = %s/%s, want v1/Active", views[0].Version, views[0].State)
	}
	if views[1].Version != "v2" || views[1].State != StateFailed {
		t.Errorf("record 1 = %s/%s, want v2/Failed", views[1].Version, views[1].State)
	}
	if got := statuses(views[0]); got["alpha"] != NodeActive || got["beta"] != NodeActive {
		t.Errorf("restored node statuses = %v, want both Active", got)
	}

	// IDs continue across the restart.
	d, err := c2.Deploy(ctx, Spec{Version: "v3", Source: forwarderV2}, tf.targets)
	if err != nil {
		t.Fatal(err)
	}
	if id := d.View().ID; id != 3 {
		t.Errorf("post-restart deployment ID = %d, want 3", id)
	}

	// The query API serves history and live rollouts together.
	api := httptest.NewServer(c2.Handler())
	defer api.Close()
	resp, err := http.Get(api.URL + "/deployments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Deployments []View `json:"deployments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Deployments) != 3 {
		t.Fatalf("GET /deployments returned %d records, want 3", len(body.Deployments))
	}
	for i, want := range []int{1, 2, 3} {
		if body.Deployments[i].ID != want {
			t.Errorf("deployments[%d].ID = %d, want %d", i, body.Deployments[i].ID, want)
		}
	}
}

// TestFleetHistoryTornRecord: a torn final line (daemon died
// mid-append) is skipped without losing the intact records before it.
func TestFleetHistoryTornRecord(t *testing.T) {
	tf := newTestFleet(t, 2)
	path := filepath.Join(t.TempDir(), "deployments.jsonl")

	c1 := tf.controller(Config{HistoryPath: path})
	if _, err := c1.Deploy(context.Background(), Spec{Version: "v1", Source: forwarder}, tf.targets); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":2,"version":"v2","sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2 := tf.controller(Config{HistoryPath: path})
	views := c2.Deployments()
	if len(views) != 1 {
		t.Fatalf("controller sees %d deployments after torn append, want 1", len(views))
	}
	if views[0].Version != "v1" || views[0].State != StateActive {
		t.Errorf("surviving record = %s/%s, want v1/Active", views[0].Version, views[0].State)
	}
	// The torn line never carried a committed ID; numbering resumes
	// after the last intact record.
	d, err := c2.Deploy(context.Background(), Spec{Source: forwarderV2}, tf.targets)
	if err != nil {
		t.Fatal(err)
	}
	if id := d.View().ID; id != 2 {
		t.Errorf("next ID after torn record = %d, want 2", id)
	}
}

// TestFleetRestartMidActivate: a node whose activation response is lost
// and which then crashes and restarts bare — its planpd state empty —
// cannot be confirmed converged: reconciliation finds the new version
// neither active nor staged, the node is Failed, and the fleet rolls
// back to the previous version.
func TestFleetRestartMidActivate(t *testing.T) {
	tf := newTestFleet(t, 3)
	c := tf.controller(Config{Retry: RetryPolicy{Attempts: 1}})
	if _, err := c.Deploy(context.Background(), Spec{Version: "v1", Source: forwarder}, tf.targets); err != nil {
		t.Fatal(err)
	}

	// beta's activation commits server-side but the response is lost;
	// before the controller's reconciliation query arrives, the node
	// process crashes and restarts with empty protocol state.
	tf.inj.Inject(Fault{
		Method: http.MethodPost, Host: tf.host("beta"), Path: "/asp/activate",
		Action: FaultLoseResponse, Count: 1,
	})
	tf.crashBeforeReconcile("beta")

	d, err := c.Deploy(context.Background(), Spec{Version: "v2", Source: forwarderV2}, tf.targets)
	if err == nil {
		t.Fatal("deploy with a node restarting mid-activate must fail")
	}
	if got := d.State(); got != StateRolledBack {
		t.Fatalf("deployment state = %s, want RolledBack", got)
	}
	st := statuses(d.View())
	if st["beta"] != NodeFailed {
		t.Errorf("restarted node = %s, want Failed (empty state is unconfirmable)", st["beta"])
	}
	for _, name := range []string{"alpha", "gamma"} {
		if st[name] != NodeRolledBack {
			t.Errorf("node %s = %s, want RolledBack", name, st[name])
		}
		if active, _ := tf.nodeState(t, name); active != "v1" {
			t.Errorf("node %s runs %q, want v1 restored", name, active)
		}
	}
	// The restarted node is bare: neither version present — redeploying
	// is the operator's (or a fresh rollout's) job.
	active, staged := tf.nodeState(t, "beta")
	if active != "" || staged != "" {
		t.Errorf("restarted node state = active %q staged %q, want empty", active, staged)
	}
}

// TestFleetHistoryBounded: a controller keeps the newest maxDeployments
// records. Over a history of maxDeployments finished records, k more
// rollouts leave exactly the bound, with the newest IDs; a reload
// compacts the file to the same records; and GET /deployments?id=N tells
// a dropped record ("expired") from one that never was.
func TestFleetHistoryBounded(t *testing.T) {
	const k = 3
	tf := newTestFleet(t, 1)
	path := filepath.Join(t.TempDir(), "deployments.jsonl")
	var history bytes.Buffer
	enc := json.NewEncoder(&history)
	for id := 1; id <= maxDeployments; id++ {
		enc.Encode(View{ID: id, Version: "old", State: StateActive})
	}
	if err := os.WriteFile(path, history.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	c1 := tf.controller(Config{HistoryPath: path})
	for i := 0; i < k; i++ {
		if _, err := c1.Deploy(context.Background(), Spec{Source: forwarder}, tf.targets); err != nil {
			t.Fatal(err)
		}
	}
	wantIDs := func(who string, views []View) {
		t.Helper()
		if len(views) != maxDeployments {
			t.Fatalf("%s keeps %d records, want %d", who, len(views), maxDeployments)
		}
		for i, v := range views {
			if v.ID != k+1+i {
				t.Fatalf("%s: record %d has ID %d, want %d", who, i, v.ID, k+1+i)
			}
		}
	}
	wantIDs("the controller", c1.Deployments())

	c2 := tf.controller(Config{HistoryPath: path})
	wantIDs("a reload", c2.Deployments())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file []View
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var v View
		if err := json.Unmarshal(line, &v); err != nil {
			t.Fatal(err)
		}
		file = append(file, v)
	}
	wantIDs("the compacted file", file)
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("the compaction left its temporary file: %v", err)
	}

	api := httptest.NewServer(c2.Handler())
	defer api.Close()
	for id, want := range map[string]string{"1": "expired", "3": "expired", "4": "", strconv.Itoa(maxDeployments + k + 1): "no such deployment"} {
		resp, err := http.Get(api.URL + "/deployments?id=" + id)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if got := strings.TrimSpace(string(body)); want == "" && resp.StatusCode != http.StatusOK ||
			want != "" && (resp.StatusCode != http.StatusNotFound || got != want) {
			t.Errorf("GET /deployments?id=%s: %d %q, want %q", id, resp.StatusCode, got, want)
		}
	}
}

// TestFleetHistoryExpiryAfterReload: rollouts overlap, so the history
// file is in finish order, not ID order. A reload keeps the file's last
// records and answers "expired" for every ID it dropped, also one above
// the first kept ID.
func TestFleetHistoryExpiryAfterReload(t *testing.T) {
	const n = maxDeployments + 2
	tf := newTestFleet(t, 1)
	path := filepath.Join(t.TempDir(), "deployments.jsonl")
	var history bytes.Buffer
	enc := json.NewEncoder(&history)
	for _, id := range []int{2, 3, 1} { // rollout 1 finished after 2 and 3
		enc.Encode(View{ID: id, Version: "old", State: StateActive})
	}
	for id := 4; id <= n; id++ {
		enc.Encode(View{ID: id, Version: "old", State: StateActive})
	}
	if err := os.WriteFile(path, history.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	c := tf.controller(Config{HistoryPath: path})
	if views := c.Deployments(); len(views) != maxDeployments || views[0].ID != 1 || views[1].ID != 4 {
		t.Fatalf("a reload keeps %d records, the first two %+v; want %d, IDs 1 and 4", len(views), views[:2], maxDeployments)
	}
	api := httptest.NewServer(c.Handler())
	defer api.Close()
	for id, want := range map[string]string{"1": "", "2": "expired", "3": "expired", "4": "", strconv.Itoa(n + 1): "no such deployment"} {
		resp, err := http.Get(api.URL + "/deployments?id=" + id)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if got := strings.TrimSpace(string(body)); want == "" && resp.StatusCode != http.StatusOK ||
			want != "" && (resp.StatusCode != http.StatusNotFound || got != want) {
			t.Errorf("GET /deployments?id=%s: %d %q, want %q", id, resp.StatusCode, got, want)
		}
	}
}
