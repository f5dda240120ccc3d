// Package fleet is the deployment control plane: it installs one
// compiled ASP across a set of planpd-managed nodes as a unit — all
// nodes end up on the new protocol version, or every reachable node is
// returned to the version it ran before.
//
// The paper's operators adapt a *running* network (§4: protocols are
// downloaded into live routers); once more than one router is involved,
// the switch becomes a coordination problem — a half-upgraded fleet
// runs two protocol versions against each other. The controller
// therefore drives a two-phase protocol over planpd's HTTP API:
//
//	phase 0  GET  /healthz      every target is alive (and its current
//	                            version is recorded as rollback target)
//	phase 1  POST /asp/stage    verify + compile on every node; all the
//	                            rejectable work happens while the old
//	                            version still serves traffic; any
//	                            failure aborts with DELETE /asp/stage
//	                            and nothing has changed anywhere
//	phase 2  POST /asp/activate every node swaps atomically; any
//	                            failure rolls every activated node back
//	                            to its previous version
//
// Undoing a failed phase runs under its own deadline, not the caller's:
// a rollout cut short by its context still puts the fleet back.
//
// Fan-out is concurrent and bounded (internal/par), every request
// retries with exponential backoff + jitter, ambiguous activations
// (lost responses, nodes dying mid-phase) are reconciled against
// GET /asp, and the history, its newest maxDeployments records, is
// queryable via GET /deployments.
// Failure paths are deterministically testable through the pluggable
// fault-injecting RoundTripper (fault.go). Each decision is published
// once, as an obs event (KindDeploy/KindRollback), and counted.
package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"planp.dev/planp/internal/lang/typecheck"
	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/par"
	"planp.dev/planp/internal/planpd"
	"planp.dev/planp/internal/planprt"
)

// NodeStatus is one target's position in the rollout state machine.
type NodeStatus string

// Node statuses.
const (
	// NodePending: not yet staged (or stage was aborted — the node
	// still runs whatever it ran before the rollout).
	NodePending NodeStatus = "Pending"
	// NodeStaged: the new version is verified and compiled on the node
	// but not yet processing packets.
	NodeStaged NodeStatus = "Staged"
	// NodeActive: the new version is processing packets.
	NodeActive NodeStatus = "Active"
	// NodeRolledBack: the rollout failed elsewhere and this node was
	// returned to its previously active version.
	NodeRolledBack NodeStatus = "RolledBack"
	// NodeFailed: the node failed a phase (or died) and could not be
	// confirmed converged.
	NodeFailed NodeStatus = "Failed"
)

// State is the deployment-level outcome.
type State string

// Deployment states.
const (
	StatePending    State = "Pending"
	StateActive     State = "Active"
	StateRolledBack State = "RolledBack"
	StateFailed     State = "Failed"
)

// Target names one planpd control endpoint, e.g.
// {Name: "gw0", URL: "http://10.0.0.1:8377"} or a path-mounted node
// ("http://host:8377/node/gw0").
type Target struct {
	Name string
	URL  string
}

// ParseTargets decodes a comma-separated target list. Each entry is
// either name=url, passed through, or a bare node name, mapped to its
// control URL by resolve — a daemon's /node/<name> mount for the CLIs,
// a lookup across the whole testbed topology for a daemon's /deploy.
// The list it returns is one Deploy accepts: a malformed list is the
// caller's error here, not a failed rollout later. An explicit URL must
// parse, with an http or https scheme and a host, or its first request
// would fail only at the health probe; a list with a missing or
// duplicate name is refused for that first.
func ParseTargets(spec string, resolve func(name string) (url string, ok bool)) ([]Target, error) {
	var targets []Target
	var badURL error
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, addr, explicit := strings.Cut(entry, "=")
		if !explicit {
			if strings.Contains(entry, "://") {
				return nil, fmt.Errorf("target %q: use name=url for explicit URLs", entry)
			}
			var ok bool
			if addr, ok = resolve(entry); !ok {
				return nil, fmt.Errorf("target %q: no such node", entry)
			}
		} else if addr != "" && badURL == nil {
			badURL = checkURL(entry, addr)
		}
		targets = append(targets, Target{Name: name, URL: addr})
	}
	if err := checkTargets(targets); err != nil {
		return nil, err
	}
	if badURL != nil {
		return nil, badURL
	}
	return targets, nil
}

// checkURL refuses the explicit URL of a target list entry unless it
// parses with an http or https scheme and a host.
func checkURL(entry, addr string) error {
	u, err := url.Parse(addr)
	if err != nil {
		return fmt.Errorf("target %q: %v", entry, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" || u.Host == "" {
		return fmt.Errorf("target %q: not an http or https URL with a host", entry)
	}
	return nil
}

// checkTargets is what a rollout needs of its target list: at least one
// target, each with a name and a URL, no name twice.
func checkTargets(targets []Target) error {
	if len(targets) == 0 {
		return errors.New("no target nodes given")
	}
	seen := make(map[string]bool, len(targets))
	for _, t := range targets {
		if t.Name == "" || t.URL == "" {
			return fmt.Errorf("target needs both name and URL (got %+v)", t)
		}
		if seen[t.Name] {
			return fmt.Errorf("duplicate target name %q", t.Name)
		}
		seen[t.Name] = true
	}
	return nil
}

// Spec describes what to roll out. Engine and Verify use planpd's
// query vocabulary, planprt.ParseConfig ("jit"/"interp",
// "network"/"single"/"privileged"); empty means the daemon default. An empty Version gets
// an auto-assigned "v<id>" label.
type Spec struct {
	Version string
	Source  string
	Engine  string
	Verify  string

	// SourceName labels Source in compatibility diagnostics (a file
	// name, typically); empty falls back to "staged:<version>".
	SourceName string

	// AllowIncompatible lets an intentionally breaking rollout proceed
	// past the compatibility gate. The gate still runs; its findings
	// are recorded on the deployment (CompatWarnings) and in the
	// persisted history instead of rejecting the rollout.
	AllowIncompatible bool

	// Kind classifies the rollout in the deployment history: "" for a
	// plain operator deploy, or one of the adaptation controller's
	// decision kinds — "canary" (staged on a canary cohort), "promote"
	// (canary verdict extended fleet-wide). Rollback records written by
	// RollbackDeployment carry kind "rollback".
	Kind string
	// Reason is a free-form explanation recorded alongside Kind — how
	// the canary was staged, which guard it passed or violated.
	Reason string
}

// NodeView is one target's record within a deployment.
type NodeView struct {
	Name        string     `json:"name"`
	URL         string     `json:"url"`
	Status      NodeStatus `json:"status"`
	PrevVersion string     `json:"prev_version,omitempty"` // active version observed at health time
	Attempts    int        `json:"attempts"`               // HTTP attempts spent on this node
	Error       string     `json:"error,omitempty"`        // last error, if any
}

// View is a deployment record: what GET /deployments serves and what
// the history file holds, one JSON line per finished rollout.
type View struct {
	ID        int        `json:"id"`
	Version   string     `json:"version"`
	State     State      `json:"state"`
	SourceSHA string     `json:"source_sha256"`
	Engine    string     `json:"engine,omitempty"`
	Verify    string     `json:"verify,omitempty"`
	Error     string     `json:"error,omitempty"`
	Kind      string     `json:"kind,omitempty"`
	Reason    string     `json:"reason,omitempty"`
	Nodes     []NodeView `json:"nodes"`

	// CompatOverride marks a rollout that the compatibility gate
	// flagged as breaking but AllowIncompatible forced through;
	// CompatWarnings lists what the gate found.
	CompatOverride bool     `json:"compat_override,omitempty"`
	CompatWarnings []string `json:"compat_warnings,omitempty"`

	// SigDiff is the channel-signature diff (typecheck.Comparison.Diff lines)
	// between this version and what the peers ran at health-probe time —
	// the operator's preview of an upgrade, recorded whether or not it
	// shipped.
	SigDiff []string `json:"signature_diff,omitempty"`
}

// Deployment is one rollout's record — a View under a mutex: written
// while the rollout runs, then retained in the controller history. A
// record loaded from the history file is a Deployment that finished in
// an earlier process.
type Deployment struct {
	mu   sync.Mutex
	view View
}

// View returns a consistent copy of the record.
func (d *Deployment) View() View {
	d.mu.Lock()
	defer d.mu.Unlock()
	v := d.view
	v.Nodes = slices.Clone(v.Nodes)
	v.CompatWarnings = slices.Clone(v.CompatWarnings)
	v.SigDiff = slices.Clone(v.SigDiff)
	return v
}

// State returns the deployment-level state.
func (d *Deployment) State() State {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.view.State
}

// update is the one writer of a record: f edits it under the lock.
func (d *Deployment) update(f func(v *View)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f(&d.view)
}

// targets lists the record's nodes; names and URLs never change.
func (d *Deployment) targets() []Target {
	d.mu.Lock()
	defer d.mu.Unlock()
	ts := make([]Target, len(d.view.Nodes))
	for i, n := range d.view.Nodes {
		ts[i] = Target{Name: n.Name, URL: n.URL}
	}
	return ts
}

// Config configures a Controller. The zero value works: default
// transport, default retry policy.
type Config struct {
	// Client issues the control-plane requests; wrap its Transport in
	// an Injector for fault testing. Defaults to http.DefaultClient.
	Client *http.Client
	// Retry is the per-request retry policy.
	Retry RetryPolicy
	// Bus, when set, receives every decision as a KindDeploy/KindRollback
	// event (and the adaptation loop's KindCanary), serialized but
	// interleaved across nodes. New publishes the history's notes, so
	// subscribe first.
	Bus *obs.Bus
	// Metrics, when set, receives the "fleet.*" (and "adapt.*") counters.
	Metrics *obs.Registry
	// Seed fixes the jitter stream (default 1).
	Seed int64
	// HistoryPath, when set, persists every finished rollout as one
	// JSON line appended to this file and loads prior records on New —
	// the deployment history survives daemon restarts and crashes, and
	// IDs continue where the previous process stopped. Empty keeps the
	// history in memory only.
	HistoryPath string
}

// maxDeployments bounds the records a Controller keeps, and the history
// file it loads: past it, the oldest finished records go first.
const maxDeployments = 1024

// Controller orchestrates rollouts and retains their history, the
// newest maxDeployments records of it.
type Controller struct {
	client  *http.Client
	retry   RetryPolicy
	metrics *obs.Registry
	bus     *obs.Bus
	busMu   sync.Mutex
	start   time.Time
	sleepFn func(context.Context, time.Duration)

	rngMu sync.Mutex
	rng   *rand.Rand

	ctDeploys, ctActive, ctRolledBack, ctFailed *obs.Counter
	ctRetries, ctNodeRollbacks                  *obs.Counter

	mu          sync.Mutex
	deployments []*Deployment // oldest first; earlier processes' records lead
	nextID      int
	// dropped is the highest ID of a record dropped for the bound. Loaded
	// records are in the order their rollouts finished, not ID order, so
	// a record below it may still be kept.
	dropped int

	sigMu sync.Mutex
	sigs  map[string]heldSig // by target URL: the signature its node was last seen to run

	historyPath string
	fileMu      sync.Mutex // serializes appends to historyPath
}

// New returns a Controller.
func New(cfg Config) *Controller {
	c := &Controller{
		client:      cfg.Client,
		retry:       cfg.Retry.withDefaults(),
		metrics:     cfg.Metrics,
		bus:         cfg.Bus,
		start:       time.Now(),
		sleepFn:     Sleep,
		nextID:      1,
		historyPath: cfg.HistoryPath,
		sigs:        map[string]heldSig{},
	}
	if c.client == nil {
		c.client = http.DefaultClient
	}
	if c.metrics == nil {
		c.metrics = obs.NewRegistry()
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	c.rng = rand.New(rand.NewSource(seed))
	c.ctDeploys = c.metrics.Counter("fleet.deployments")
	c.ctActive = c.metrics.Counter("fleet.deployments_active")
	c.ctRolledBack = c.metrics.Counter("fleet.deployments_rolled_back")
	c.ctFailed = c.metrics.Counter("fleet.deployments_failed")
	c.ctRetries = c.metrics.Counter("fleet.http_retries")
	c.ctNodeRollbacks = c.metrics.Counter("fleet.node_rollbacks")
	if c.historyPath != "" {
		c.loadHistory()
	}
	return c
}

// The adaptation loop (internal/adapt) acts through a Controller and
// reports through the same plumbing: Client, Metrics and Publish lend
// it the controller's HTTP client, registry and its one serialized
// path onto the bus.

// Client returns the HTTP client control-plane requests go through.
func (c *Controller) Client() *http.Client { return c.client }

// Metrics returns the registry holding the "fleet.*" counters.
func (c *Controller) Metrics() *obs.Registry { return c.metrics }

// Ref names a decision's record: Tag 'd' and a fleet deployment's ID
// (rollback records too), or 'a' and an adaptation run's; zero for none.
type Ref struct {
	Tag byte
	ID  int
}

// Ref names the deployment's record (none for a nil deployment).
func (d *Deployment) Ref() Ref {
	if d == nil {
		return Ref{}
	}
	return Ref{'d', d.view.ID}
}

// Publish serializes one decision onto the bus (fleet fan-out is
// concurrent). Its Detail is ref ("d3 ") and the parts, which spell
// "<step>" or "<step>: <reason>" (see obs.KindDeploy), joined only when
// someone listens.
func (c *Controller) Publish(kind obs.Kind, node string, ref Ref, parts ...string) {
	if !c.bus.Active() {
		return
	}
	detail := strings.Join(parts, "")
	if ref.Tag != 0 {
		detail = string(ref.Tag) + strconv.Itoa(ref.ID) + " " + detail
	}
	c.busMu.Lock()
	c.bus.Publish(obs.Event{Kind: kind, At: time.Since(c.start), Node: node, Detail: detail})
	c.busMu.Unlock()
}

// loadHistory reads the append-only JSONL history into the controller.
// A missing file is an empty history; a torn final line (the daemon
// died mid-append) or any other corrupt record is skipped with a
// "history" event rather than poisoning the records around it. A file
// of more than maxDeployments records keeps its last ones: it is
// rewritten with only those, through a temporary file renamed over it.
func (c *Controller) loadHistory() {
	data, err := os.ReadFile(c.historyPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		c.Publish(obs.KindDeploy, "", Ref{}, "history: ", err.Error())
	}
	var lines [][]byte // each record's line, so that a rewrite keeps its bytes
	for i, line := range bytes.Split(data, []byte("\n")) {
		if line = bytes.TrimSpace(line); len(line) == 0 {
			continue
		}
		var v View
		err := json.Unmarshal(line, &v)
		if err == nil && v.ID <= 0 {
			err = errors.New("record has no positive id")
		}
		if err != nil {
			c.Publish(obs.KindDeploy, "", Ref{}, "history: ", c.historyPath, ": skipping corrupt record on line ", strconv.Itoa(i+1), ": ", err.Error())
			continue
		}
		c.deployments = append(c.deployments, &Deployment{view: v})
		c.nextID = max(c.nextID, v.ID+1)
		lines = append(lines, line)
	}
	n := len(lines) - maxDeployments
	if n <= 0 {
		return
	}
	for _, d := range c.deployments[:n] {
		c.dropped = max(c.dropped, d.view.ID)
	}
	c.deployments = slices.Delete(c.deployments, 0, n)
	if err := replaceFile(c.historyPath, append(bytes.Join(lines[n:], []byte("\n")), '\n')); err != nil {
		c.Publish(obs.KindDeploy, "", Ref{}, "history: ", err.Error())
	}
}

// replaceFile makes data the contents of path: written and synced to a
// temporary file beside it, then renamed over it, so that a crash
// leaves the old contents or the new ones.
func replaceFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// persist appends the finished deployment to the history file. Failures
// are published, not fatal: losing one history record must not fail a
// rollout that already converged.
func (c *Controller) persist(d *Deployment) {
	if c.historyPath == "" {
		return
	}
	c.fileMu.Lock()
	defer c.fileMu.Unlock()
	line, _ := json.Marshal(d.View()) // strings, ints and slices: cannot fail
	f, err := os.OpenFile(c.historyPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
		f.Close()
	}
	if err != nil {
		c.Publish(obs.KindDeploy, "", d.Ref(), "history: ", err.Error())
	}
}

// heldSig is a channel signature the controller holds for one node,
// with its digest: what the health probe names, so that a node still
// running it need not send it again.
type heldSig struct {
	digest string
	sig    *typecheck.Signature
}

func (c *Controller) heldSignature(url string) heldSig {
	c.sigMu.Lock()
	defer c.sigMu.Unlock()
	return c.sigs[url]
}

func (c *Controller) holdSignature(url, digest string, sig *typecheck.Signature) {
	c.sigMu.Lock()
	c.sigs[url] = heldSig{digest, sig}
	c.sigMu.Unlock()
}

func (c *Controller) rand() float64 {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return c.rng.Float64()
}

// Deployments returns snapshots of the kept rollouts, oldest first —
// records loaded from the history file (previous daemon lives) first,
// then this process's rollouts.
func (c *Controller) Deployments() []View {
	c.mu.Lock()
	ds := slices.Clone(c.deployments)
	c.mu.Unlock()
	views := make([]View, len(ds))
	for i, d := range ds {
		views[i] = d.View()
	}
	return views
}

// History answers GET /deployments.
type History struct {
	Deployments []View `json:"deployments"`
}

// Handler returns the controller's query API:
//
//	GET /deployments        the kept rollouts, oldest first
//	GET /deployments?id=N   one rollout; 404 "expired" if N is older
//	                        than every kept one
func (c *Controller) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /deployments", func(w http.ResponseWriter, r *http.Request) {
		idStr := planpd.QueryValue(r.URL.RawQuery, "id")
		if idStr == "" {
			planpd.WriteJSON(w, http.StatusOK, History{Deployments: c.Deployments()})
			return
		}
		id, _ := strconv.Atoi(idStr)
		switch d, expired := c.lookup(id); {
		case d != nil:
			planpd.WriteJSON(w, http.StatusOK, d.View())
		case expired:
			http.Error(w, "expired", http.StatusNotFound)
		default:
			http.Error(w, "no such deployment", http.StatusNotFound)
		}
	})
	return mux
}

// lookup returns the kept record of ID id, or nil and whether a record
// of that ID may have been dropped for the bound: id is at or below the
// highest dropped ID.
func (c *Controller) lookup(id int) (d *Deployment, expired bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.deployments {
		if d.view.ID == id { // IDs are set before a record is kept
			return d, false
		}
	}
	return nil, id > 0 && id <= c.dropped
}

func (c *Controller) newDeployment(spec *Spec, targets []Target) *Deployment {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextID
	c.nextID++
	if spec.Version == "" {
		spec.Version = fmt.Sprintf("v%d", id)
	}
	// Hashed where it lies: sha256 only reads the bytes.
	sum := sha256.Sum256(unsafe.Slice(unsafe.StringData(spec.Source), len(spec.Source)))
	d := &Deployment{view: View{
		ID: id, Version: spec.Version, State: StatePending,
		SourceSHA: hex.EncodeToString(sum[:]),
		Engine:    spec.Engine, Verify: spec.Verify,
		Kind: spec.Kind, Reason: spec.Reason,
		Nodes: make([]NodeView, len(targets)),
	}}
	for i, t := range targets {
		d.view.Nodes[i] = NodeView{Name: t.Name, URL: t.URL, Status: NodePending}
	}
	c.deployments = append(c.deployments, d)
	// Past the bound the oldest records go, from the front only, up to
	// one whose rollout still runs: each record is dropped once, so a
	// Deploy pays O(1) amortized.
	for len(c.deployments) > maxDeployments && c.deployments[0].State() != StatePending {
		c.dropped = max(c.dropped, c.deployments[0].view.ID)
		c.deployments[0] = nil
		c.deployments = c.deployments[1:]
	}
	return d
}

// finish closes the record in state st (err, when non-nil, is its
// error text), appends it to the history file and returns err.
func (c *Controller) finish(d *Deployment, st State, err error) error {
	d.update(func(v *View) {
		v.State = st
		if err != nil {
			v.Error = err.Error()
		}
	})
	c.persist(d)
	return err
}

func (c *Controller) fail(d *Deployment, err error) error {
	c.ctFailed.Inc()
	c.Publish(obs.KindDeploy, "", d.Ref(), "failed: ", err.Error())
	return c.finish(d, StateFailed, err)
}

// forEach runs fn once per node on the bounded pool and returns the
// per-node errors (nil entries for successes).
func (c *Controller) forEach(d *Deployment, fn func(nc *nodeClient) error) []error {
	targets := d.targets()
	errs := make([]error, len(targets))
	par.ForEach(fanOut, len(targets), func(i int) {
		errs[i] = fn(&nodeClient{c: c, d: d, i: i, Target: targets[i]})
	})
	return errs
}

// namesWhere lists, sorted, the nodes of d that pick selects.
func namesWhere(d *Deployment, pick func(i int, n NodeView) bool) string {
	var names []string
	for i, n := range d.View().Nodes {
		if pick(i, n) {
			names = append(names, n.Name)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// failedNames summarizes which nodes errored.
func failedNames(d *Deployment, errs []error) string {
	return namesWhere(d, func(i int, _ NodeView) bool { return errs[i] != nil })
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fanOut bounds the worker pool a rollout phase fans out on.
const fanOut = 4

// compensationTimeout bounds the calls that undo a failed rollout —
// aborting stages, rolling activations back, and the GET /asp that
// decides which of the two a node needs.
const compensationTimeout = 30 * time.Second

// compensation returns the context those calls run under. It outlives
// the caller's: the deadline (or hung-up client) that stopped a rollout
// half-way must not also stop the controller from putting the fleet
// back, or the record would say RolledBack over nodes nothing reached.
func compensation(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.WithoutCancel(ctx), compensationTimeout)
}

// Deploy rolls spec out to targets: health-probe, stage everywhere,
// activate everywhere, roll back on partial failure. It returns the
// deployment record (also retained in the controller history) and a
// non-nil error unless every node activated. Deploy is synchronous;
// run it on its own goroutine to overlap rollouts.
func (c *Controller) Deploy(ctx context.Context, spec Spec, targets []Target) (*Deployment, error) {
	if err := checkTargets(targets); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	// The controller-side precheck compiles under the Spec's engine/verify.
	cfg, err := planprt.ParseConfig(spec.Engine, spec.Verify)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}

	c.ctDeploys.Inc()
	d := c.newDeployment(&spec, targets)
	c.Publish(obs.KindDeploy, "", d.Ref(), "start: version ", spec.Version, " to ", strconv.Itoa(len(targets)), " node(s)")

	// Controller-side precheck: compile-without-activate locally so a
	// program that cannot pass late checking — or was verified under
	// the single-node assumption and cannot legally fan out — fails
	// before any node is touched.
	prog, err := planprt.Load(spec.Source, cfg)
	if err != nil {
		return d, c.fail(d, fmt.Errorf("fleet: program rejected before rollout: %w", err))
	}
	if prog.Policy == planprt.VerifySingleNode && len(targets) > 1 {
		return d, c.fail(d, fmt.Errorf("fleet: program verified for single-node deployment offered %d nodes", len(targets)))
	}

	// Phase 0: health. Nothing is staged on a fleet with a dead member.
	// The probe also collects each peer's active channel signature for
	// the compatibility gate below.
	peers := make([]peer, 0, len(targets))
	var peersMu sync.Mutex
	errs := c.forEach(d, func(nc *nodeClient) error {
		h, err := nc.health(ctx)
		if err != nil {
			nc.mark(NodeFailed, err)
			c.Publish(obs.KindDeploy, nc.Name, d.Ref(), "health:failed")
			return err
		}
		nc.update(func(n *NodeView) { n.PrevVersion = h.Version })
		peersMu.Lock()
		peers = append(peers, peer{node: nc.Name, version: h.Version, sig: h.Signature})
		peersMu.Unlock()
		return nil
	})
	if err := firstErr(errs); err != nil {
		return d, c.fail(d, fmt.Errorf("fleet: health probe failed on [%s]: %w", failedNames(d, errs), err))
	}

	// Record what this upgrade changes: the channel-signature diff
	// against each running peer version, surfaced in GET /deployments
	// so operators see the interface shift before it ships (and, in the
	// history, what each past rollout shifted). Recorded even when the
	// rollout is later rejected — the diff explains the rejection. The
	// diff and the gate read the same comparisons.
	staged := prog.Signature()
	comparePeers(staged, peers)
	d.update(func(v *View) { v.SigDiff = signatureDiff(peers) })

	// Compatibility gate: before anything is staged, check the new
	// version's channel signature against what every peer currently
	// runs. A mixed-version rollout in which the fleet's in-flight
	// sends and the new program's channels disagree is rejected here —
	// with diagnostics pointing into the staged source — unless the
	// spec explicitly allows the break (recorded in the history).
	if err := c.compatGate(d, spec, peers); err != nil {
		return d, c.fail(d, err)
	}

	// Phase 1: stage everywhere. A failure anywhere aborts the stage
	// everywhere; no node's packet processing has changed.
	errs = c.forEach(d, func(nc *nodeClient) error {
		if err := nc.stage(ctx, spec); err != nil {
			nc.mark(NodeFailed, err)
			c.Publish(obs.KindDeploy, nc.Name, d.Ref(), "stage:failed")
			return err
		}
		nc.mark(NodeStaged, nil)
		c.Publish(obs.KindDeploy, nc.Name, d.Ref(), "stage:ok")
		return nil
	})
	if err := firstErr(errs); err != nil {
		stageErr := fmt.Errorf("fleet: stage failed on [%s]: %w", failedNames(d, errs), err)
		c.converge(ctx, d, spec.Version, NodePending)
		return d, c.fail(d, stageErr)
	}

	// Phase 2: activate everywhere. An activation whose response was
	// lost is reconciled against GET /asp before being declared failed.
	// A node that activated runs the precheck's signature, which the
	// next health probe then names by digest.
	digest := prog.SigDigest()
	errs = c.forEach(d, func(nc *nodeClient) error {
		actErr := nc.activate(ctx, spec.Version)
		if actErr == nil {
			c.holdSignature(nc.URL, digest, staged)
			nc.mark(NodeActive, nil)
			c.Publish(obs.KindDeploy, nc.Name, d.Ref(), "activate:ok")
			return nil
		}
		rctx, cancel := compensation(ctx)
		defer cancel()
		st, stErr := nc.aspStatus(rctx)
		if stErr == nil && st.Active == spec.Version {
			// The swap committed; only the response was lost.
			c.holdSignature(nc.URL, digest, staged)
			nc.mark(NodeActive, nil)
			c.Publish(obs.KindDeploy, nc.Name, d.Ref(), "activate:ok-reconciled")
			return nil
		}
		// Still staged: the activation never committed. Anything else —
		// unreachable, an unexpected state — and the node's convergence
		// cannot be confirmed.
		status, detail := NodeFailed, "activate:unknown"
		if stErr == nil && st.Staged == spec.Version {
			status, detail = NodeStaged, "activate:failed"
		}
		nc.mark(status, actErr)
		c.Publish(obs.KindDeploy, nc.Name, d.Ref(), detail)
		return actErr
	})
	if err := firstErr(errs); err != nil {
		c.converge(ctx, d, spec.Version, NodeRolledBack)
		c.ctRolledBack.Inc()
		outcome := "every node is back on its previous version"
		if lost := namesWhere(d, func(_ int, n NodeView) bool { return n.Status == NodeFailed }); lost != "" {
			outcome = fmt.Sprintf("[%s] could not be confirmed back on their previous version, every other node is", lost)
		}
		rbErr := fmt.Errorf("fleet: activate failed on [%s]; %s: %w", failedNames(d, errs), outcome, err)
		c.Publish(obs.KindRollback, "", d.Ref(), "rolled-back: ", rbErr.Error())
		return d, c.finish(d, StateRolledBack, rbErr)
	}

	c.ctActive.Inc()
	c.Publish(obs.KindDeploy, "", d.Ref(), "active: version ", spec.Version, " on all ", strconv.Itoa(len(targets)), " node(s)")
	return d, c.finish(d, StateActive, nil)
}

// converge returns every node the failed rollout of version staged or
// activated to what it ran before, marking it done — NodePending after
// a failed stage phase, NodeRolledBack after a failed activation — or
// Failed when it cannot be reached.
//
// The undo calls follow what was attempted on the node. Every node was
// sent a stage, so every node is sent the idempotent abort, a Failed
// one too: its stage may have applied with only the answer lost. A
// Failed node gets nothing more and stays Failed, its error on record.
// A node that only staged gets its stage aborted and nothing else: its
// packet processing never changed. Once phase 2 ran, every node was
// sent an activate, and one cut off in flight can still land after the
// GET /asp that judged it "still staged" — so a Staged or Active node
// gets both calls, whatever its status says: aborting the stage first
// turns a late activation into a 409, and the rollback then undoes one
// that landed before the abort. A node that already ran version before
// this rollout is never rolled back: activating it there was a no-op,
// and withdrawing it would undo a rollout other than this one.
func (c *Controller) converge(ctx context.Context, d *Deployment, version string, done NodeStatus) {
	ctx, cancel := compensation(ctx)
	defer cancel()
	c.forEach(d, func(nc *nodeClient) error {
		var n NodeView
		nc.update(func(v *NodeView) { n = *v })
		err := nc.abortStage(ctx, version)
		if n.Status == NodeFailed {
			return err
		}
		var rb planpd.RolledBack
		if err == nil && done == NodeRolledBack && n.PrevVersion != version {
			rb, err = nc.rollback(ctx, version)
		}
		if err != nil {
			nc.mark(NodeFailed, fmt.Errorf("undoing %s: %w", version, err))
			c.Publish(obs.KindRollback, nc.Name, d.Ref(), "failed")
			return err
		}
		nc.mark(done, nil)
		if rb.RolledBack {
			c.ctNodeRollbacks.Inc()
			c.Publish(obs.KindRollback, nc.Name, d.Ref(), "restored:", rb.Active)
		} else {
			c.Publish(obs.KindRollback, nc.Name, d.Ref(), "stage-aborted")
		}
		return nil
	})
}
