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
// The same rollout is available from the command line, against this or
// any other planpd daemon:
//
//	planpd deploy -nodes gw=http://127.0.0.1:8377/node/gateway \
//	    -src asp/audio_router.planp -version v1
//
// The daemon shuts down cleanly on SIGINT/SIGTERM: the HTTP listener
// drains, in-flight adaptation runs finish, then the node goroutines
// are joined.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"planp.dev/planp/internal/adapt"
	"planp.dev/planp/internal/fleet"
	"planp.dev/planp/internal/lang/diag"
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
		Out: os.Stdout, Logf: log.Printf, HistoryPath: *history, UDP: *udp,
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
		if !p.d.Drain(shutCtx) {
			log.Printf("%s: daemon %s: adaptation runs cut short", prog, p.d.Spec.Name)
		}
		p.d.Close()
	}
	return ret
}

func runDeploy(args []string) int {
	fs := flag.NewFlagSet("planpd deploy", flag.ExitOnError)
	nodesFlag := fs.String("nodes", "", "comma-separated targets: name=url, or bare node names resolved against -daemon")
	daemon := fs.String("daemon", "http://127.0.0.1:8377", "planpd daemon base URL for bare node names")
	srcPath := fs.String("src", "", "PLAN-P protocol source file")
	version := fs.String("version", "", "version label (auto-assigned when empty)")
	engine := fs.String("engine", "", "execution engine: jit, bytecode, interp")
	verify := fs.String("verify", "", "verification policy: network, single, privileged")
	timeout := fs.Duration("timeout", 30*time.Second, "overall rollout deadline")
	allowIncompat := fs.Bool("allow-incompatible", false,
		"proceed past the fleet compatibility gate; its findings are recorded on the deployment instead of rejecting it")
	fs.Parse(args)

	if *srcPath == "" || *nodesFlag == "" {
		fmt.Fprintln(os.Stderr, "planpd deploy: -src and -nodes are required")
		return 2
	}
	src, err := os.ReadFile(*srcPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	targets, err := fleet.ParseTargets(*nodesFlag, nodeMount(*daemon))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	ctl := fleet.New(fleet.Config{Logf: log.Printf})
	d, deployErr := ctl.Deploy(ctx, fleet.Spec{
		Version: *version, Source: string(src), Engine: *engine, Verify: *verify,
		SourceName: *srcPath, AllowIncompatible: *allowIncompat,
	}, targets)

	if d != nil {
		out, _ := json.MarshalIndent(d.View(), "", "  ")
		fmt.Println(string(out))
	}
	if deployErr != nil {
		fmt.Fprintln(os.Stderr, deployErr)
		// Rejections that carry source spans (the compatibility gate, a
		// node's stage 422) are re-rendered with the offending source
		// lines excerpted and underlined.
		if ds := diag.Of(deployErr); len(ds) > 0 {
			fmt.Fprint(os.Stderr, diag.Render(string(src), *srcPath, ds))
		}
		return 1
	}
	return 0
}

// guardList collects repeatable -guard flags.
type guardList []string

func (g *guardList) String() string     { return strings.Join(*g, ",") }
func (g *guardList) Set(s string) error { *g = append(*g, s); return nil }

// runAdapt drives one self-promoting canary from the command line: the
// candidate is staged on the -canary cohort, guard metrics are watched
// for -windows windows against the -baseline cohort, then the rollout
// promotes fleet-wide or rolls back on its own. Exit status: 0
// promoted, 1 rolled back or failed, 2 usage.
//
//	planpd adapt -canary gateway -baseline server0,server1 \
//	    -src asp/http_gateway_leastconn.planp -verify single \
//	    -guard 'node.{node}.drops<=5' -guard 'asp.{node}.faults<=1x+2' \
//	    -windows 3 -interval 2s
func runAdapt(args []string) int {
	fs := flag.NewFlagSet("planpd adapt", flag.ExitOnError)
	canaryFlag := fs.String("canary", "", "comma-separated canary cohort: name=url, or bare node names resolved against -daemon")
	baselineFlag := fs.String("baseline", "", "comma-separated baseline cohort (receives the promote rollout)")
	daemon := fs.String("daemon", "http://127.0.0.1:8377", "planpd daemon base URL for bare node names")
	srcPath := fs.String("src", "", "PLAN-P protocol source file")
	version := fs.String("version", "", "version label (auto-assigned when empty)")
	engine := fs.String("engine", "", "execution engine: jit, bytecode, interp")
	verify := fs.String("verify", "", "verification policy: network, single, privileged")
	windows := fs.Int("windows", 3, "observation windows before promotion")
	interval := fs.Duration("interval", 2*time.Second, "observation window length")
	timeout := fs.Duration("timeout", 2*time.Minute, "overall run deadline")
	var guards guardList
	fs.Var(&guards, "guard", "guard metric, metric<=N | metric<=Rx+S (repeatable; {node} expands per node)")
	fs.Parse(args)

	if *srcPath == "" || *canaryFlag == "" {
		fmt.Fprintln(os.Stderr, "planpd adapt: -src and -canary are required")
		return 2
	}
	src, err := os.ReadFile(*srcPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	canary, err := fleet.ParseTargets(*canaryFlag, nodeMount(*daemon))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var baseline []fleet.Target
	if *baselineFlag != "" {
		if baseline, err = fleet.ParseTargets(*baselineFlag, nodeMount(*daemon)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	parsed, err := adapt.ParseGuards(guards)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	ctl := adapt.New(adapt.Config{
		Fleet: fleet.New(fleet.Config{Logf: log.Printf}),
		Logf:  log.Printf,
	})
	out, runErr := ctl.Canary(ctx, adapt.CanaryPlan{
		Spec: fleet.Spec{
			Version: *version, Source: string(src),
			Engine: *engine, Verify: *verify, SourceName: *srcPath,
		},
		Canary: canary, Baseline: baseline,
		Guards: parsed, Windows: *windows, Interval: *interval,
	})
	if out != nil {
		enc, _ := json.MarshalIndent(map[string]any{
			"verdict": out.Verdict, "reason": out.Reason,
		}, "", "  ")
		fmt.Println(string(enc))
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, runErr)
		return 1
	}
	if out.Verdict != adapt.VerdictPromoted {
		return 1
	}
	return 0
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
		opts := testbed.Options{Out: os.Stdout, Logf: log.Printf, ProbeInterval: *probe}
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
	var body io.Reader
	if *file != "" && (verb == "stage" || verb == "start") {
		b, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		body = bytes.NewReader(b)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, target, body)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	// Responses are already JSON; re-indent for the terminal.
	var pretty json.RawMessage
	if json.Unmarshal(out, &pretty) == nil {
		if enc, err := json.MarshalIndent(pretty, "", "  "); err == nil {
			out = append(enc, '\n')
		}
	}
	os.Stdout.Write(out)
	if resp.StatusCode >= 300 {
		fmt.Fprintf(os.Stderr, "planpd chaos %s: HTTP %d\n", verb, resp.StatusCode)
		return 1
	}
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
