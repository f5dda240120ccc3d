// deploy — the control plane: fleet.Controller.Deploy of a gateway
// policy to three planpd nodes.
//
// Why: health → gate → stage → activate across nodes is what an
// operator waits for. It is the only workload on which fleet, planpd
// and the compile cache carry weight, and it uses planprt.Load warm
// where compile uses it cold, so a cache change that trades one for the
// other shows.
//
// The three nodes' control APIs are reached through an in-process
// http.RoundTripper that calls each planpd handler directly: no
// sockets. Loopback TCP gave the same rate with three times the spread.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"planp.dev/planp/internal/apps/httpd"
	"planp.dev/planp/internal/fleet"
	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/planpd"
	"planp.dev/planp/internal/planprt"
	"planp.dev/planp/internal/rtnet"
	"planp.dev/planp/internal/substrate"
)

// deployConfig is the load the controller's precheck and every node's
// stage perform (jit is both sides' default engine).
var deployConfig = planprt.Config{Engine: planprt.EngineJIT, Verify: planprt.VerifyPrivileged}

type deploy struct {
	seed    int64
	perRnd  int
	sources []string // the policy catalogue, in seed order

	nw      *rtnet.Net
	targets []fleet.Target
	rt      *handlerTransport
	ctl     *fleet.Controller
	reg     *obs.Registry

	lastVersion string
	lat, quanta []float64
	hits, miss  int64 // compile-cache counters of the last round
}

func newDeploy(seed int64, sz sizes) *deploy {
	cat := httpd.GatewayPolicies()
	w := &deploy{seed: seed, perRnd: sz.pick(240, 24)}
	for _, i := range shuffledOrder(len(cat), seed) {
		w.sources = append(w.sources, cat[i].Source)
	}
	return w
}

func (w *deploy) name() string { return "deploy" }
func (w *deploy) link() string {
	return "in-process http.RoundTripper calling planpd handlers directly (no sockets)"
}
func (w *deploy) phases() []phase {
	// A quantum is one deployment; op i's kind is i mod 8: which of the
	// four sources, and whether the compile cache has seen the text.
	return []phase{{name: "deploys", share: 1, rate: true, kinds: 2 * len(w.sources)}}
}

func (w *deploy) close() {
	if w.nw != nil {
		w.nw.Close()
		w.nw = nil
	}
}

// setup starts three bare rtnet nodes, each managed by its own planpd
// server, behind the in-process transport.
func (w *deploy) setup(tr *tracer) error {
	w.close()
	w.nw = rtnet.New(w.seed)
	w.rt = &handlerTransport{handlers: map[string]http.Handler{}, tr: tr}
	w.targets = nil
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("gw%d", i)
		node := rtnet.NewNode(w.nw, name, substrate.MustAddr(fmt.Sprintf("10.0.%d.1", i)))
		node.Forwarding = true
		w.rt.handlers[name] = planpd.NewServer(node, nil).Handler()
		w.targets = append(w.targets, fleet.Target{Name: name, URL: "http://" + name})
	}
	w.nw.Start()
	w.lastVersion = ""
	return nil
}

// round: op i deploys catalogue source (i/2) mod 4 under a fresh version
// label. Odd ops append a comment no earlier op carried — never-seen
// text, so the compile cache misses and the precheck runs cold; even ops
// send the source verbatim and hit. The round begins with an empty cache
// re-primed with the four sources and a fresh controller, so neither
// grows across rounds (four loads: a thousandth of the round).
func (w *deploy) round(_ int, idx int64, tr *tracer) (roundResult, error) {
	planprt.ResetCache()
	for _, src := range w.sources {
		if _, err := planprt.Load(src, deployConfig); err != nil {
			return roundResult{}, err
		}
	}
	w.reg = obs.NewRegistry()
	w.ctl = fleet.New(fleet.Config{Client: &http.Client{Transport: w.rt}, Metrics: w.reg, Seed: w.seed})
	w.rt.calls.Store(0)
	w.rt.tr = tr // warm-up rounds run untraced on a traced world

	n := w.perRnd
	if cap(w.lat) < n {
		w.lat = make([]float64, 0, n)
	}
	w.lat = w.lat[:0]
	res := roundResult{ops: n}
	var firstErr error
	ctx := context.Background()
	for i := 0; i < n; i++ {
		src := w.sources[(i/2)%len(w.sources)]
		if i%2 == 1 {
			src += fmt.Sprintf("\n-- bench %d/%d/%d\n", w.seed, idx, i)
		}
		version := fmt.Sprintf("s%d-r%d-%d", w.seed, idx, i)
		op := idx<<32 | int64(i)
		w.rt.setOp(op, int64(i))

		start := time.Now()
		ts := tr.begin("fleet.deploy", op)
		d, err := w.ctl.Deploy(ctx, fleet.Spec{Version: version, Source: src, Verify: "privileged"}, w.targets)
		tr.finish("fleet.deploy", "", op, int64(i), ts, tr.now())
		w.lat = append(w.lat, float64(time.Since(start))/1e3)

		if err == nil {
			err = allActive(d)
		}
		if err != nil {
			res.failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("deploy %s: %v", version, err)
			}
			continue
		}
		w.lastVersion = version
	}
	w.hits, w.miss = planprt.CacheStats()
	res.lat, res.quanta = w.lat, append(w.quanta[:0], w.lat...) // the harness sorts lat
	w.quanta = res.quanta
	if firstErr != nil {
		return res, fmt.Errorf("%w: %d of %d deployments failed, first: %v", errCheck, res.failed, n, firstErr)
	}
	return res, nil
}

// allActive checks a deployment ended Active on every node.
func allActive(d *fleet.Deployment) error {
	v := d.View()
	if v.State != fleet.StateActive {
		return fmt.Errorf("state %s: %s", v.State, v.Error)
	}
	for _, n := range v.Nodes {
		if n.Status != fleet.NodeActive {
			return fmt.Errorf("node %s is %s: %s", n.Name, n.Status, n.Error)
		}
	}
	return nil
}

// check: after the last op every node's GET /asp names the last version.
func (w *deploy) check() error {
	if w.lastVersion == "" {
		return fmt.Errorf("%w: no deployment succeeded", errCheck)
	}
	client := &http.Client{Transport: &handlerTransport{handlers: w.rt.handlers}}
	for _, t := range w.targets {
		resp, err := client.Get(t.URL + "/asp")
		if err != nil {
			return err
		}
		var st struct {
			Active string `json:"active"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if st.Active != w.lastVersion {
			return fmt.Errorf("%w: node %s runs %q, last deployed %q", errCheck, t.Name, st.Active, w.lastVersion)
		}
	}
	return nil
}

// handlerTransport is an http.RoundTripper that serves each request by
// calling the target node's handler on the caller's goroutine. In the
// traced pass it records one planpd.<verb> span per call.
type handlerTransport struct {
	handlers map[string]http.Handler
	tr       *tracer
	calls    atomic.Int64

	mu      sync.Mutex
	op, seq int64
}

func (t *handlerTransport) setOp(op, seq int64) {
	t.mu.Lock()
	t.op, t.seq = op, seq
	t.mu.Unlock()
}

// verb names the control-plane call for the span.
func verb(r *http.Request) string {
	switch p := r.URL.Path; {
	case p == "/healthz":
		return "health"
	case p == "/stats":
		return "stats"
	case p == "/asp/stage" && r.Method == http.MethodPost:
		return "stage"
	case p == "/asp/stage":
		return "abort"
	case p == "/asp/activate":
		return "activate"
	case p == "/asp/rollback":
		return "rollback"
	case p == "/asp":
		return "status"
	}
	return strings.Trim(r.URL.Path, "/")
}

func (t *handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	h, ok := t.handlers[r.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no such node %q", r.URL.Host)
	}
	t.calls.Add(1)
	var op, seq int64
	if t.tr != nil {
		t.mu.Lock()
		op, seq = t.op, t.seq
		t.mu.Unlock()
	}
	if r.Body == nil {
		r.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	start := t.tr.now()
	h.ServeHTTP(rec, r)
	t.tr.finish("planpd."+verb(r), "fleet.deploy", op, seq, start, t.tr.now())
	r.Body.Close()
	resp := rec.Result()
	resp.Request = r
	return resp, nil
}
