// The testbed daemon: one planpd process's share of the distributed
// testbed. From the shared topology and its own name it assembles the
// local rtnet network — its nodes, the in-process links between them,
// and the UDP endpoints of every cross-daemon link — then mounts the
// full control plane over them: per-node protocol management, the
// fleet rollout controller, the adaptation loop, and the remote chaos
// API.
package testbed

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"planp.dev/planp/internal/adapt"
	"planp.dev/planp/internal/chaos"
	"planp.dev/planp/internal/fleet"
	"planp.dev/planp/internal/lang/diag"
	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/planpd"
	"planp.dev/planp/internal/rtnet"
	"planp.dev/planp/internal/substrate"
)

// discardPort is the testbed's traffic sink: every node binds it with
// a delivery counter, so injected probe traffic is observable at the
// far end through /stats.
const discardPort = 7

// Options tunes a daemon. The zero value works.
type Options struct {
	// Out receives installed protocols' print output (nil discards).
	Out io.Writer
	// Events receives the fleet/adapt controllers' decisions (their bus, not the network's).
	Events obs.Subscriber
	// HistoryPath persists this daemon's deployment history.
	HistoryPath string
	// ProbeInterval overrides the cross-host links' liveness cadence
	// (tests shrink it to detect partitions fast).
	ProbeInterval time.Duration
	// UDP runs daemon-local links over loopback-UDP sockets (real kernel
	// datagrams via the substrate wire codec) instead of in-process
	// channels.
	UDP bool
}

// Daemon is one planpd process's slice of the testbed.
type Daemon struct {
	Topo *Topology
	Spec DaemonSpec

	// Net is the daemon's local real-time substrate.
	Net *rtnet.Net
	// Chaos is the daemon's fault engine, wired to its share of the
	// topology: every local link direction under its topology-wide
	// name, every local segment, every local node.
	Chaos *chaos.Engine
	// Fleet and Adapt are this daemon's rollout and adaptation
	// controllers; their targets may live on any daemon in the testbed.
	Fleet *fleet.Controller
	Adapt *adapt.Controller

	built *substrate.Built[*rtnet.Node] // the daemon's share of Topo
	chs   *planpd.ChaosServer
	out   io.Writer
}

// NewDaemon assembles daemon name's share of topo: local nodes,
// daemon-local links, the local endpoints of cross-daemon links
// (sockets bind immediately; handshakes start at Start), derived plus
// explicit routes, and the chaos wiring. The returned daemon is built
// but not running — call Start.
func NewDaemon(topo *Topology, name string, opts Options) (*Daemon, error) {
	spec, err := topo.Daemon(name)
	if err != nil {
		return nil, err
	}

	// Deterministic per-daemon seed: position in the shared file.
	seed := int64(slices.IndexFunc(topo.Daemons, func(d DaemonSpec) bool { return d.Name == name }) + 1)

	nw := rtnet.New(seed)
	d := &Daemon{Topo: topo, Spec: spec, Net: nw}
	ok := false
	defer func() {
		if !ok {
			nw.Close()
		}
	}()

	// The daemon builds its share of the shared file through rtnet's
	// constructors: the nodes placed on it, a link wherever it owns an
	// end, the segments its nodes are on, and the routes of its nodes by
	// the builder's rule, so every daemon derives the same tables.
	be := rtnet.Backend(nw, opts.UDP)
	be.Site = name
	newLink := be.Link
	be.Link = func(l substrate.LinkSpec, la, lb *rtnet.Node) (substrate.Iface, substrate.Iface, error) {
		if la == nil || lb == nil {
			return d.remoteLink(l, la, lb, opts.ProbeInterval)
		}
		return newLink(l, la, lb)
	}
	if d.built, err = substrate.Build(&topo.Topology, be); err != nil {
		return nil, err
	}
	names := d.NodeNames()
	if len(names) == 0 {
		return nil, fmt.Errorf("testbed: daemon %q owns no nodes in topology %q", name, topo.Name)
	}
	// Every node answers the discard port with a counter
	// (`testbed.<node>.rx_pkts`), so /inject traffic is observable end
	// to end through GET /stats without any protocol installed — the
	// bare-network baseline an ASP download then changes.
	for _, n := range names {
		rx := nw.Metrics().Counter("testbed." + n + ".rx_pkts")
		d.Node(n).BindUDP(discardPort, func(*substrate.Packet) { rx.Add(1) })
	}
	d.Chaos = chaos.New(nw, &topo.Topology, d.built, seed*7919+3)

	// The controllers count into the nodes' registry, so every node's
	// GET /stats carries the fleet.* and adapt.* counters.
	bus := &obs.Bus{}
	if opts.Events != nil {
		bus.Subscribe(opts.Events)
	}
	d.Fleet = fleet.New(fleet.Config{Bus: bus, HistoryPath: opts.HistoryPath, Metrics: nw.Metrics()})
	d.Adapt = adapt.New(d.Fleet)
	d.chs = planpd.NewChaosServer(d.Chaos)
	d.out = opts.Out
	ok = true
	return d, nil
}

// remoteLink opens the daemon's end of cross-daemon link l, whose
// local node is la or lb (the other is nil): its socket, expecting the
// peer daemon's node on the other end. The link keeps its
// topology-wide name on both sides (the handshake enforces agreement),
// so the chaos engine wires the locally-owned direction under it — fwd
// is always the first-named node's outbound, so the two daemons'
// /chaos surfaces compose into one duplex link.
func (d *Daemon) remoteLink(l substrate.LinkSpec, la, lb *rtnet.Node, probe time.Duration) (substrate.Iface, substrate.Iface, error) {
	local, peerName, listen, peer := la, l.B, l.AUDP, l.BUDP
	if lb != nil {
		local, peerName, listen, peer = lb, l.A, l.BUDP, l.AUDP
	}
	pn, _ := d.Topo.NodeSpecOf(peerName)
	ri, err := rtnet.NewRemoteLink(d.Net, local, rtnet.RemoteSpec{
		LinkName:      l.Name(),
		Listen:        listen,
		Peer:          peer,
		PeerNode:      peerName,
		PeerAddr:      pn.Addr,
		BandwidthBps:  l.Bandwidth,
		ProbeInterval: probe,
	})
	if err != nil {
		return nil, nil, err
	}
	if la != nil {
		return ri, nil, nil
	}
	return nil, ri, nil
}

// remotes returns the daemon's ends of its cross-daemon links, in
// topology order.
func (d *Daemon) remotes() []*rtnet.RemoteIface {
	var out []*rtnet.RemoteIface
	for _, l := range d.Topo.Links {
		for _, ifc := range [...]substrate.Iface{d.built.Iface(l.A, l.B), d.built.Iface(l.B, l.A)} {
			if ri, ok := ifc.(*rtnet.RemoteIface); ok {
				out = append(out, ri)
			}
		}
	}
	return out
}

// Node returns a local node by name (nil when the node lives on
// another daemon).
func (d *Daemon) Node(name string) *rtnet.Node { return d.built.Node(name) }

// NodeNames returns the names of the daemon's local nodes, sorted.
func (d *Daemon) NodeNames() []string {
	var names []string
	for _, n := range d.Topo.Nodes {
		if d.built.Hosted(n.Name) {
			names = append(names, n.Name)
		}
	}
	sort.Strings(names)
	return names
}

// Start launches the local node goroutines; cross-daemon handshakes
// proceed as soon as the peer daemons come up.
func (d *Daemon) Start() { d.Net.Start() }

// Close shuts the daemon's substrate down. Remote links send BYE on
// the way out, so peers log link-down immediately. Graceful shutdown is
// stop accepting HTTP, d.Adapt.Drain (background canary runs finish or
// are cut short and roll back), then Close.
func (d *Daemon) Close() { d.Net.Close() }

// WaitLinksUp blocks until every cross-daemon link endpoint reports
// up, or the timeout expires. Returns the names of links still not up.
func (d *Daemon) WaitLinksUp(timeout time.Duration) []string {
	deadline := time.Now().Add(timeout)
	for {
		var down []string
		for _, ri := range d.remotes() {
			if !ri.Up() {
				down = append(down, ri.LinkName())
			}
		}
		if len(down) == 0 || time.Now().After(deadline) {
			sort.Strings(down)
			return down
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Handler returns the daemon's full control API:
//
//	/node/<name>/...  per-node protocol management (planpd.Server) for
//	                  every locally-owned node
//	/deployments      fleet rollout history and control
//	/deploy           POST: two-phase rollout; bare node names resolve
//	                  through the topology to ANY daemon's node mounts
//	/adapt            self-promoting canary runs
//	/chaos/...        remote chaos control plane (stage/start/stop/
//	                  status) over this daemon's links and nodes
//	/links            cross-daemon link states (handshake, liveness,
//	                  last structured rejection)
//	/healthz          daemon identity, owned nodes, link summary
//
// Call it once per daemon: each call builds a new mux over new per-node
// servers, and a node's staged/active/prev versions live in its server.
// The demo adds its own route to the mux.
func (d *Daemon) Handler() *http.ServeMux {
	mux := http.NewServeMux()
	for _, name := range d.NodeNames() {
		prefix := "/node/" + name
		mux.Handle(prefix+"/", http.StripPrefix(prefix, planpd.NewServer(d.Node(name), d.out).Handler()))
	}
	mux.Handle("/deployments", d.Fleet.Handler())
	mux.Handle("/adapt", d.Adapt.Handler())
	mux.Handle("/chaos/", d.chs.Handler())
	mux.HandleFunc("POST /deploy", d.handleDeploy)
	mux.HandleFunc("POST /inject", d.handleInject)
	mux.HandleFunc("GET /links", d.handleLinks)
	mux.HandleFunc("GET /healthz", d.handleHealth)
	return mux
}

// handleInject originates probe traffic: POST /inject?from=<local
// node>&to=<node>&n=N sends N UDP datagrams to the destination's
// discard port, whose rx counter then climbs in the destination
// daemon's /stats. The testbed's traffic generator: enough to light up
// link metrics, exercise chaos faults, and feed adaptation guards
// without any application protocol.
func (d *Daemon) handleInject(w http.ResponseWriter, r *http.Request) {
	q := r.URL.RawQuery
	fromName := planpd.QueryValue(q, "from")
	from := d.Node(fromName)
	if from == nil {
		http.Error(w, fmt.Sprintf("no local node %q", fromName), http.StatusBadRequest)
		return
	}
	toName := planpd.QueryValue(q, "to")
	to, ok := d.Topo.NodeSpecOf(toName)
	if !ok {
		http.Error(w, fmt.Sprintf("no node %q in topology", toName), http.StatusBadRequest)
		return
	}
	n := 1
	if s := planpd.QueryValue(q, "n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 || v > 1<<16 {
			http.Error(w, "n must be in [1, 65536]", http.StatusBadRequest)
			return
		}
		n = v
	}
	for i := 0; i < n; i++ {
		pkt := substrate.NewUDP(from.Address(), to.Addr, discardPort, discardPort, []byte("probe"))
		from.Send(pkt.Own())
	}
	planpd.WriteJSON(w, http.StatusOK, map[string]any{
		"from": fromName, "to": to.Name, "sent": n,
	})
}

// DeployResponse answers POST /deploy: the rollout's record, and when
// it did not converge the error (409) — with its span diagnostics when
// the compatibility gate or a node's stage rejected the program (422).
// A request Deploy refuses before any record exists (an unknown engine
// or verification policy) is a 400, as a node's own /asp answers it.
type DeployResponse struct {
	Error       string      `json:"error,omitempty"`
	Diagnostics diag.List   `json:"diagnostics,omitempty"`
	Deployment  *fleet.View `json:"deployment,omitempty"`
}

func (d *Daemon) handleDeploy(w http.ResponseWriter, r *http.Request) {
	// Bare node names resolve through the topology to the owning
	// daemon's /node mount — including nodes owned by other daemons.
	q := r.URL.RawQuery
	targets, err := fleet.ParseTargets(planpd.QueryValue(q, "nodes"), d.Topo.NodeURL)
	if err != nil {
		http.Error(w, fmt.Sprintf("topology %q: %v", d.Topo.Name, err), http.StatusBadRequest)
		return
	}
	body, ok := planpd.ReadBody(w, r, 1<<20)
	if !ok {
		return
	}
	// The source is body itself, not a copy: ReadBody made the buffer
	// for this request and nothing writes to it again (as planpd's own
	// upload path reads its body).
	dep, deployErr := d.Fleet.Deploy(r.Context(), fleet.Spec{
		Version:           planpd.QueryValue(q, "version"),
		Source:            unsafe.String(unsafe.SliceData(body), len(body)),
		Engine:            planpd.QueryValue(q, "engine"),
		Verify:            planpd.QueryValue(q, "verify"),
		SourceName:        planpd.QueryValue(q, "src_name"),
		AllowIncompatible: planpd.QueryValue(q, "allow_incompatible") == "true",
	}, targets)
	status := http.StatusOK
	var resp DeployResponse
	if deployErr != nil {
		resp.Error = deployErr.Error()
		resp.Diagnostics = diag.Of(deployErr)
		switch {
		case len(resp.Diagnostics) > 0:
			status = http.StatusUnprocessableEntity
		case dep == nil: // refused before any record existed
			status = http.StatusBadRequest
		default:
			status = http.StatusConflict
		}
	}
	if dep != nil {
		v := dep.View()
		resp.Deployment = &v
	}
	planpd.WriteJSON(w, status, resp)
}

// LinkStatus is one cross-daemon link endpoint's state as /links
// reports it.
type LinkStatus struct {
	Link  string `json:"link"`
	Node  string `json:"node"`
	Peer  string `json:"peer"`
	State string `json:"state"`
	// Reject is the most recent structured handshake rejection received
	// from the peer, when there is one.
	Reject *rtnet.RejectError `json:"reject,omitempty"`
}

func (d *Daemon) linkStatuses() []LinkStatus {
	remotes := d.remotes()
	statuses := make([]LinkStatus, 0, len(remotes))
	for _, ri := range remotes {
		label := ri.Label()
		node, _, _ := strings.Cut(label, ":")
		statuses = append(statuses, LinkStatus{
			Link:   ri.LinkName(),
			Node:   node,
			Peer:   ri.PeerNode(),
			State:  ri.State(),
			Reject: ri.LastReject(),
		})
	}
	sort.Slice(statuses, func(i, j int) bool { return statuses[i].Link < statuses[j].Link })
	return statuses
}

func (d *Daemon) handleLinks(w http.ResponseWriter, _ *http.Request) {
	planpd.WriteJSON(w, http.StatusOK, map[string]any{
		"daemon": d.Spec.Name,
		"links":  d.linkStatuses(),
	})
}

func (d *Daemon) handleHealth(w http.ResponseWriter, _ *http.Request) {
	planpd.WriteJSON(w, http.StatusOK, map[string]any{
		"ok":      true,
		"testbed": d.Topo.Name,
		"daemon":  d.Spec.Name,
		"control": d.Spec.Control,
		"nodes":   d.NodeNames(),
		"links":   d.linkStatuses(),
	})
}
