// planpd is the ASP download daemon: one protocol-management daemon per
// host, onto which ASPs are downloaded. With no verb it serves the
// built-in §3.2 demo topology (client — gateway — two servers,
// internal/testbed/demo.json) on the real-time backend; `planpd up
// -topo f.json` serves any topology file on the same daemon, so every
// endpoint below exists on both. Download the load-balancing ASP onto
// the running gateway and watch it spread real requests:
//
//	planpd -listen 127.0.0.1:8377 &
//	curl -X POST --data-binary @asp/http_gateway.planp \
//	    'http://127.0.0.1:8377/node/gateway/asp?verify=single'
//	curl -X POST 'http://127.0.0.1:8377/demo/requests?n=200'
//	curl 'http://127.0.0.1:8377/node/gateway/stats'
//
// Each node's protocol-management API is mounted at /node/<name>/
// (gateway, client, server0, server1), which is what the fleet
// controller targets. Roll a protocol out to several nodes as a unit —
// two-phase, with rollback on partial failure:
//
//	curl -X POST --data-binary @asp/audio_router.planp \
//	    'http://127.0.0.1:8377/deploy?version=v1&nodes=gateway,server0'
//	curl 'http://127.0.0.1:8377/deployments'
//
// The deploy, adapt and chaos verbs are HTTP clients of a running
// daemon (-daemon, default http://127.0.0.1:8377): the rollout or canary
// runs on that daemon's controllers, lands in its GET /deployments and
// -history file, and the verb prints the outcome and sets the exit code:
//
//	planpd deploy -nodes gateway,server0 -src asp/audio_router.planp -version v1
//	planpd adapt -canary gateway -baseline server0,server1 -src ... -guard ...
//	planpd chaos start -f timeline.json
//
// The daemon shuts down cleanly on SIGINT/SIGTERM: the HTTP listener
// drains, in-flight adaptation runs finish, then the node goroutines
// are joined.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"planp.dev/planp/internal/adapt"
	"planp.dev/planp/internal/fleet"
	"planp.dev/planp/internal/lang/diag"
	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/planpd"
	"planp.dev/planp/internal/planprt"
	"planp.dev/planp/internal/testbed"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "deploy":
			os.Exit(runDeploy(os.Args[2:]))
		case "adapt":
			os.Exit(runAdapt(os.Args[2:]))
		case "up":
			os.Exit(runUp(os.Args[2:]))
		case "chaos":
			os.Exit(runChaos(os.Args[2:]))
		}
	}
	os.Exit(runServe(os.Args[1:]))
}

func runServe(args []string) int {
	fs := flag.NewFlagSet("planpd", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:8377", "control API listen address")
	udp := fs.Bool("udp", false, "use loopback-UDP socket links instead of in-process channels")
	history := fs.String("history", "", "deployment history file (JSON lines); rollout records survive daemon restarts")
	fs.Parse(args)

	demo, err := testbed.NewDemo(*listen, testbed.Options{
		Out: os.Stdout, Events: obs.NewTextLog(os.Stderr), HistoryPath: *history, UDP: *udp,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return serve("planpd", []plane{{demo.Daemon, demo.Handler()}})
}

// plane is one assembled daemon and the control-plane handler fronting
// it.
type plane struct {
	d *testbed.Daemon
	h http.Handler
}

// serve runs assembled daemons to completion, for both verbs: start
// each daemon and its control listener, wait for SIGINT/SIGTERM (or a
// listener failure), then shut down gracefully — drain in-flight
// control requests, let adaptation runs finish (or be cut short at the
// deadline and roll back) before the substrate goes away beneath them,
// close the substrate (remote links BYE their peers on the way out).
func serve(prog string, planes []plane) int {
	var servers []*http.Server
	errc := make(chan error, len(planes))
	for _, p := range planes {
		p.d.Start()
		srv := &http.Server{Addr: p.d.Spec.Control, Handler: p.h}
		servers = append(servers, srv)
		go func() { errc <- srv.ListenAndServe() }()
		log.Printf("%s: daemon %s on http://%s (%d nodes)",
			prog, p.d.Spec.Name, p.d.Spec.Control, len(p.d.NodeNames()))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ret := 0
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		ret = 1
	case <-ctx.Done():
	}

	log.Printf("%s: shutting down", prog)
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, srv := range servers {
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Printf("%s: HTTP shutdown: %v", prog, err)
		}
	}
	for _, p := range planes {
		if !p.d.Adapt.Drain(shutCtx) {
			log.Printf("%s: daemon %s: adaptation runs cut short", prog, p.d.Spec.Name)
		}
		p.d.Close()
	}
	return ret
}

// runDeploy asks -daemon's fleet controller for one two-phase rollout
// (POST /deploy), so the record lands in that daemon's GET /deployments
// and its -history file. Exit status: 0 every node active, 1 failed or
// rolled back, 2 usage.
func runDeploy(args []string) int {
	fs := flag.NewFlagSet("planpd deploy", flag.ExitOnError)
	nodesFlag := fs.String("nodes", "", "comma-separated targets: name=url, or bare node names the daemon resolves through its topology")
	daemon := fs.String("daemon", "http://127.0.0.1:8377", "planpd daemon that runs the rollout")
	srcPath := fs.String("src", "", "PLAN-P protocol source file")
	version := fs.String("version", "", "version label (auto-assigned when empty)")
	engine := fs.String("engine", "", "execution engine: jit, interp")
	verify := fs.String("verify", "", "verification policy: network, single, privileged")
	timeout := fs.Duration("timeout", 30*time.Second, "overall rollout deadline")
	allowIncompat := fs.Bool("allow-incompatible", false,
		"proceed past the fleet compatibility gate; its findings are recorded on the deployment instead of rejecting it")
	fs.Parse(args)

	if *srcPath == "" || *nodesFlag == "" {
		fmt.Fprintln(os.Stderr, "planpd deploy: -src and -nodes are required")
		return 2
	}
	if _, err := planprt.ParseConfig(*engine, *verify); err != nil {
		fmt.Fprintln(os.Stderr, "planpd deploy:", err)
		return 2
	}
	// The daemon resolves bare names through its topology; the list's
	// shape (no empty name or URL, no name twice) is checked here first.
	if _, err := fleet.ParseTargets(*nodesFlag, nodeMount(*daemon)); err != nil {
		fmt.Fprintln(os.Stderr, "planpd deploy: -nodes:", err)
		return 2
	}
	src, err := os.ReadFile(*srcPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// An empty version, engine or verify reads as unset on the daemon.
	q := url.Values{"nodes": {*nodesFlag}, "src_name": {*srcPath},
		"version": {*version}, "engine": {*engine}, "verify": {*verify}}
	if *allowIncompat {
		q.Set("allow_incompatible", "true")
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	var resp testbed.DeployResponse
	err = planpd.Exchange(ctx, http.DefaultClient, "POST /deploy", http.MethodPost,
		strings.TrimRight(*daemon, "/")+"/deploy?"+q.Encode(), string(src), maxAnswer, &resp)
	var rej *planpd.DiagError
	if errors.As(err, &rej) {
		// A rollout that did not converge answers with its record
		// beside the error; a plain-text rejection carries none.
		_ = json.Unmarshal(rej.Body, &resp)
	}
	if resp.Deployment != nil {
		printJSON(resp.Deployment)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "planpd deploy:", err)
		// Rejections that carry source spans (the compatibility gate, a
		// node's stage 422) are re-rendered with the offending source
		// lines excerpted and underlined.
		fmt.Fprint(os.Stderr, diag.Render(string(src), *srcPath, diag.Of(err)))
		return 1
	}
	return 0
}

// maxAnswer bounds a daemon's answer to a verb: a deployment record
// or a run list is far below it. An answer over it is refused whole
// (planpd.ErrTooLarge), never cut short and misread.
const maxAnswer = 4 << 20

func printJSON(v any) {
	out, _ := json.MarshalIndent(v, "", "  ") // our own wire structs: cannot fail
	fmt.Println(string(out))
}

// runAdapt drives one self-promoting canary on -daemon's adaptation
// controller: POST /adapt starts the run — the candidate is staged on
// the -canary cohort, guard metrics are watched for -windows windows
// against the -baseline cohort, then the rollout promotes fleet-wide or
// rolls back on its own — and GET /adapt is polled until it is done.
// Exit status: 0 promoted, 1 rolled back or failed, 2 usage.
//
//	planpd adapt -canary gateway -baseline server0,server1 \
//	    -src asp/http_gateway_leastconn.planp -verify single \
//	    -guard 'node.{node}.drops<=5' -guard 'asp.{node}.faults<=1x+2' \
//	    -windows 3 -interval 2s
func runAdapt(args []string) int {
	fs := flag.NewFlagSet("planpd adapt", flag.ExitOnError)
	canaryFlag := fs.String("canary", "", "comma-separated canary cohort: name=url, or bare node names mounted on -daemon")
	baselineFlag := fs.String("baseline", "", "comma-separated baseline cohort (receives the promote rollout)")
	daemon := fs.String("daemon", "http://127.0.0.1:8377", "planpd daemon that runs the canary")
	srcPath := fs.String("src", "", "PLAN-P protocol source file")
	version := fs.String("version", "", "version label (auto-assigned when empty)")
	engine := fs.String("engine", "", "execution engine: jit, interp")
	verify := fs.String("verify", "", "verification policy: network, single, privileged")
	windows := fs.Int("windows", 3, "observation windows before promotion")
	interval := fs.Duration("interval", 2*time.Second, "observation window length")
	timeout := fs.Duration("timeout", 2*time.Minute, "overall run deadline")
	var guards []string
	fs.Func("guard", "guard metric, metric<=N | metric<=Rx+S (repeatable; {node} expands per node)",
		func(g string) error { guards = append(guards, g); return nil })
	fs.Parse(args)

	if *srcPath == "" || *canaryFlag == "" {
		fmt.Fprintln(os.Stderr, "planpd adapt: -src and -canary are required")
		return 2
	}
	if _, err := planprt.ParseConfig(*engine, *verify); err != nil {
		fmt.Fprintln(os.Stderr, "planpd adapt:", err)
		return 2
	}
	src, err := os.ReadFile(*srcPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	req := adapt.CanaryRequest{
		Version: *version, Source: string(src), SourceName: *srcPath,
		Engine: *engine, Verify: *verify, Guards: guards,
		Windows: *windows, IntervalMS: int(interval.Milliseconds()), TimeoutMS: int(timeout.Milliseconds()),
	}
	req.Canary, err = fleet.ParseTargets(*canaryFlag, nodeMount(*daemon))
	if err == nil && *baselineFlag != "" {
		req.Baseline, err = fleet.ParseTargets(*baselineFlag, nodeMount(*daemon))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "planpd adapt:", err)
		return 2
	}

	// The daemon bounds the run by -timeout and rolls back on expiry;
	// each request here only has to be answered, and the verdict has to
	// be there by -timeout plus that slack.
	const answer = 10 * time.Second
	deadline := time.Now().Add(*timeout + answer)
	body, _ := json.Marshal(req) // strings, ints and Targets: cannot fail
	var started adapt.Started
	target := strings.TrimRight(*daemon, "/") + "/adapt"
	ctx, cancel := context.WithTimeout(context.Background(), answer)
	err = planpd.Exchange(ctx, http.DefaultClient, "POST /adapt", http.MethodPost, target, string(body), maxAnswer, &started)
	cancel()
	for err == nil {
		var list adapt.RunList
		ctx, cancel := context.WithTimeout(context.Background(), answer)
		err = planpd.Exchange(ctx, http.DefaultClient, "GET /adapt", http.MethodGet, target, "", maxAnswer, &list)
		cancel()
		if err != nil {
			break
		}
		i := slices.IndexFunc(list.Runs, func(r adapt.RunView) bool { return r.ID == started.ID })
		switch {
		case i < 0:
			// Runs live in the daemon's memory: it restarted under us,
			// or the run finished and aged out of its bounded list.
			err = fmt.Errorf("run %d is gone from %s", started.ID, target)
		case list.Runs[i].Phase == "done":
			printJSON(map[string]string{"verdict": list.Runs[i].Verdict, "reason": list.Runs[i].Reason})
			if list.Runs[i].Verdict != adapt.VerdictPromoted {
				return 1
			}
			return 0
		case time.Now().After(deadline):
			err = fmt.Errorf("run %d is still in phase %q past -timeout", started.ID, list.Runs[i].Phase)
		default:
			time.Sleep(250 * time.Millisecond)
		}
	}
	fmt.Fprintln(os.Stderr, "planpd adapt:", err)
	return 1
}

// runUp boots a distributed testbed from a topology file. By default
// every daemon in the file runs in this one process (the
// single-machine stand-in for the multi-host testbed: separate rtnet
// networks, real UDP between them); -daemon selects one daemon for the
// one-process-per-host deployment, where each host runs
//
//	planpd up -topo testbed.json -daemon <its-name>
//
// and the cross-daemon links handshake over the wire.
func runUp(args []string) int {
	fs := flag.NewFlagSet("planpd up", flag.ExitOnError)
	topoPath := fs.String("topo", "", "testbed topology file (JSON)")
	daemonName := fs.String("daemon", "", "run only the named daemon (default: all, in one process)")
	history := fs.String("history", "", "deployment history file prefix; each daemon appends .<name>")
	probe := fs.Duration("probe", 0, "cross-daemon link liveness probe interval (default 500ms)")
	fs.Parse(args)

	if *topoPath == "" {
		fmt.Fprintln(os.Stderr, "planpd up: -topo is required")
		return 2
	}
	topo, err := testbed.LoadTopology(*topoPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var names []string
	if *daemonName != "" {
		names = []string{*daemonName}
	} else {
		for _, d := range topo.Daemons {
			names = append(names, d.Name)
		}
	}

	var planes []plane
	for _, name := range names {
		opts := testbed.Options{Out: os.Stdout, Events: obs.NewTextLog(os.Stderr), ProbeInterval: *probe}
		if *history != "" {
			opts.HistoryPath = *history + "." + name
		}
		d, err := testbed.NewDaemon(topo, name, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			for _, prev := range planes {
				prev.d.Close()
			}
			return 1
		}
		planes = append(planes, plane{d, d.Handler()})
	}
	return serve("planpd up", planes)
}

// runChaos drives a daemon's remote chaos control plane from the
// command line:
//
//	planpd chaos stage  -daemon http://host:port -f timeline.json
//	planpd chaos start  -daemon http://host:port [-f timeline.json | -name NAME]
//	planpd chaos stop   -daemon http://host:port [-name NAME] [-clear]
//	planpd chaos status -daemon http://host:port
func runChaos(args []string) int {
	if len(args) < 1 {
		fmt.Fprintln(os.Stderr, "planpd chaos: need a verb: stage, start, stop, status")
		return 2
	}
	verb := args[0]
	fs := flag.NewFlagSet("planpd chaos "+verb, flag.ExitOnError)
	daemon := fs.String("daemon", "http://127.0.0.1:8377", "planpd daemon base URL")
	file := fs.String("f", "", "timeline file (JSON)")
	name := fs.String("name", "", "timeline name (staged timelines, runs)")
	clear := fs.Bool("clear", false, "with stop: also heal every injected fault")
	timeout := fs.Duration("timeout", 10*time.Second, "request deadline")
	fs.Parse(args[1:])

	method, target, err := chaosRequest(*daemon, verb, *name, *file != "", *clear)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var body []byte
	if *file != "" && (verb == "stage" || verb == "start") {
		if body, err = os.ReadFile(*file); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	var answer json.RawMessage
	if err := planpd.Exchange(ctx, http.DefaultClient, method+" /chaos/"+verb, method, target, string(body), maxAnswer, &answer); err != nil {
		fmt.Fprintf(os.Stderr, "planpd chaos %s: %v\n", verb, err)
		return 1
	}
	printJSON(answer)
	return 0
}

// chaosRequest maps a `planpd chaos` verb and its flags to the
// control-plane call it makes. Timeline names are operator text, so the
// query string is built with url.Values, never by concatenation.
func chaosRequest(daemon, verb, name string, haveFile, clear bool) (method, target string, err error) {
	q := url.Values{}
	method = http.MethodPost
	switch verb {
	case "stage", "start":
		if !haveFile {
			if verb == "stage" {
				return "", "", errors.New("planpd chaos stage: -f is required")
			}
			if name == "" {
				return "", "", errors.New("planpd chaos start: -f is required (or -name for a staged timeline)")
			}
			q.Set("name", name)
		}
	case "stop":
		if name != "" {
			q.Set("name", name)
		}
		if clear {
			q.Set("clear", "1")
		}
	case "status":
		method = http.MethodGet
	default:
		return "", "", fmt.Errorf("planpd chaos: unknown verb %q (stage, start, stop, status)", verb)
	}
	target = strings.TrimRight(daemon, "/") + "/chaos/" + verb
	if len(q) > 0 {
		target += "?" + q.Encode()
	}
	return method, target, nil
}

// nodeMount resolves bare node names in -nodes/-canary/-baseline lists
// to the daemon's per-node mounts (<daemon>/node/<name>).
func nodeMount(daemon string) func(name string) (string, bool) {
	base := strings.TrimRight(daemon, "/") + "/node/"
	return func(name string) (string, bool) { return base + name, true }
}
