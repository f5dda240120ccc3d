// The per-layer ladder of the traced pass. Every rung is measured from
// outside, by timing calls into a layer's public functions; the layers
// are the repo's modules. The rungs here are fixed probes, the same
// whatever workload the pass runs; the rungs that describe a workload's
// own rounds (the shares and trace.overhead_ratio.<workload>) come from
// traced.go.
package main

import (
	"fmt"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strings"
	"time"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/apps/city"
	"planp.dev/planp/internal/apps/httpd"
	"planp.dev/planp/internal/lang/bytecode"
	"planp.dev/planp/internal/lang/interp"
	"planp.dev/planp/internal/lang/jit"
	"planp.dev/planp/internal/lang/parser"
	"planp.dev/planp/internal/lang/typecheck"
	"planp.dev/planp/internal/lang/value"
	"planp.dev/planp/internal/lang/verify"
	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/planpd"
	"planp.dev/planp/internal/planprt"
	"planp.dev/planp/internal/rtnet"
	"planp.dev/planp/internal/substrate"
)

// layerMetric is one rung.
type layerMetric struct {
	Name  string
	Value float64
	Unit  string
	N     int // samples behind the value
}

// layers lists the layers in ladder order, each with the end-to-end
// metric its rungs should move and which they should not: the prediction
// a change to that layer is held to. It is printed with the rungs.
var layers = []struct{ name, moves string }{
	{"lang", "compile/ops_s (all of it); deploy/ops_s (precheck, about a quarter); nothing else"},
	{"engine", "sim_gateway/ops_s, rt_gateway/ops_s; not compile, deploy; sim_city at most 7 %"},
	{"planprt", "as engine; load_warm_us and cache_hit_ratio move deploy/ops_s only"},
	{"netsim", "sim_city/ops_s (most), sim_gateway/ops_s (about a third); build_us_node also sim_city/setup_s; not rt_gateway, compile, deploy"},
	{"rtnet", "rt_gateway/ops_s; nothing else"},
	{"planpd", "deploy/ops_s"},
	{"fleet", "deploy/ops_s, setup_s"},
	{"obs", "none today (no workload subscribes an observer)"},
	{"host", "none: it says whether the machine or the collector moved a number"},
	{"trace", "none: it says what the tracer cost"},
}

// layerOf returns the index in layers of the layer a rung belongs to.
func layerOf(metric string) int {
	name, _, _ := strings.Cut(metric, ".")
	for i, l := range layers {
		if l.name == name {
			return i
		}
	}
	panic("rung " + metric + " belongs to no layer")
}

// ---------------------------------------------------------------------------
// Timing helpers

// timePer calls fn n times per repetition and returns the median over
// reps of the mean nanoseconds per call.
func timePer(reps, n int, fn func()) float64 {
	per := make([]float64, reps)
	for r := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[r] = float64(time.Since(start)) / float64(n)
	}
	return median(per)
}

// mallocsPer returns heap allocations per call of fn over n calls.
func mallocsPer(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// ladder runs every fixed probe.
func ladder(seed int64, sz sizes) ([]layerMetric, error) {
	var out []layerMetric
	for _, rung := range []func(int64, sizes) ([]layerMetric, error){
		langRungs, engineRungs, planprtRungs, netsimRungs, rtnetRungs, controlRungs,
	} {
		ms, err := rung(seed, sz)
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// lang: the front end and the three code generators, one pass at a time

func langRungs(_ int64, sz sizes) ([]layerMetric, error) {
	reps, n := sz.pick(5, 1), sz.pick(20, 2)
	progs := programs()
	var parse, check, ver, cgJIT, cgBC, cgInterp []float64
	var bytes, parseNs float64
	for _, p := range progs {
		src := p.src
		if _, err := parser.Parse(src); err != nil {
			return nil, fmt.Errorf("lang: %s: %w", p.name, err)
		}
		ns := timePer(reps, n, func() { parser.Parse(src) })
		parse = append(parse, ns/1e3)
		bytes += float64(len(src))
		parseNs += ns

		// Check gets a fresh tree each time (it annotates the one it is
		// given); only the Check call is timed.
		per := make([]float64, reps)
		var info *typecheck.Info
		for r := range per {
			var sum time.Duration
			for i := 0; i < n; i++ {
				tree, _ := parser.Parse(src)
				start := time.Now()
				in, err := typecheck.Check(tree)
				sum += time.Since(start)
				if err != nil {
					return nil, fmt.Errorf("lang: %s: %w", p.name, err)
				}
				info = in
			}
			per[r] = float64(sum) / float64(n)
		}
		check = append(check, median(per)/1e3)

		ver = append(ver, timePer(reps, n, func() { verify.Verify(info) })/1e3)
		cgJIT = append(cgJIT, timePer(reps, n, func() { jit.Compile(info) })/1e3)
		cgBC = append(cgBC, timePer(reps, n, func() { bytecode.Compile(info) })/1e3)
		cgInterp = append(cgInterp, timePer(reps, n, func() { interp.Compile(info) })/1e3)
	}
	nprog := len(progs)
	out := []layerMetric{
		{"lang.parse_us", geomean(parse), "us", nprog},
		{"lang.typecheck_us", geomean(check), "us", nprog},
		{"lang.verify_us", geomean(ver), "us", nprog},
		{"lang.codegen_jit_us", geomean(cgJIT), "us", nprog},
		{"lang.codegen_bytecode_us", geomean(cgBC), "us", nprog},
		{"lang.codegen_interp_us", geomean(cgInterp), "us", nprog},
	}
	// Figure 3's rows: one cold load per paper program.
	for _, p := range progs[:5] {
		src := p.src
		ns := timePer(reps, n, func() { planprt.Load(src, coldConfig) })
		out = append(out, layerMetric{"lang.load_cold_us." + p.name, ns / 1e3, "us", reps})
	}
	cycle := func() {
		for _, p := range progs {
			planprt.Load(p.src, coldConfig)
		}
	}
	out = append(out,
		layerMetric{"lang.load_allocs", mallocsPer(sz.pick(20, 2), cycle) / float64(nprog), "count", nprog},
		layerMetric{"lang.parse_mb_s", bytes / parseNs * 1e3, "MB/s", nprog},
	)
	return out, nil
}

// ---------------------------------------------------------------------------
// engine: one invocation of the gateway channel on a SYN request

func engineRungs(_ int64, sz sizes) ([]layerMetric, error) {
	reps, n := sz.pick(5, 1), sz.pick(10_000, 100)
	ci, pkt, ok := matchChannel(mustInfo(asp.HTTPGateway), tcpProbe([]byte("GET /index.html"))())
	if !ok {
		return nil, fmt.Errorf("engine: probe matches no channel")
	}
	var out []layerMetric
	perEngine := map[planprt.EngineKind]float64{}
	var jitAllocs float64
	for _, eng := range []planprt.EngineKind{planprt.EngineInterp, planprt.EngineBytecode, planprt.EngineJIT} {
		p, err := planprt.Load(asp.HTTPGateway, planprt.Config{Engine: eng, Verify: planprt.VerifyPrivileged})
		if err != nil {
			return nil, err
		}
		ctx := &recCtx{}
		inst, err := p.Compiled.NewInstance(ctx)
		if err != nil {
			return nil, err
		}
		invoke := func() {
			if err := inst.Invoke(ci, ctx, pkt); err != nil {
				panic(fmt.Sprintf("engine %s: gateway channel raised %v", eng, err))
			}
		}
		perEngine[eng] = timePer(reps, n, invoke)
		out = append(out, layerMetric{"engine.invoke_ns." + string(eng), perEngine[eng], "ns", reps})
		if eng == planprt.EngineJIT {
			jitAllocs = mallocsPer(n, invoke)
		}
		if ctx.sends == 0 {
			return nil, fmt.Errorf("engine %s: gateway channel sent nothing", eng)
		}
	}

	// The hand-written handler: the paper's built-in comparison point,
	// written against the same value API and the same context.
	ctx := &recCtx{}
	conns := map[string]value.Host{}
	var count int64
	server0, server1 := value.Host(httpd.Server0Addr), value.Host(httpd.Server1Addr)
	virtual := value.Host(httpd.VirtualAddr)
	native := timePer(reps, n, func() {
		iph, tcph := pkt.Vs[0].AsIP(), pkt.Vs[1].AsTCP()
		if iph.Dst == virtual && tcph.DstPort == httpd.HTTPPort {
			key := value.EncodeKey(value.TupleV(value.HostV(iph.Src), value.Int(int64(tcph.SrcPort))))
			srv, ok := conns[key]
			if !ok {
				srv = server0
				if count%2 == 1 {
					srv = server1
				}
				conns[key] = srv
			}
			if tcph.Flags&value.TCPSyn != 0 {
				count++
			}
			h := *iph
			h.Dst = srv
			ctx.OnRemote("network", value.TupleV(value.IP(&h), pkt.Vs[1], pkt.Vs[2]))
		} else {
			ctx.OnRemote("network", pkt)
		}
	})
	ratio := 0.0
	if native > 0 {
		ratio = perEngine[planprt.EngineJIT] / native
	}
	out = append(out,
		layerMetric{"engine.invoke_ns.native", native, "ns", reps},
		layerMetric{"engine.invoke_allocs.jit", jitAllocs, "count", n},
		layerMetric{"engine.jit_native_ratio", ratio, "ratio", reps},
	)
	return out, nil
}

func mustInfo(src string) *typecheck.Info {
	p, err := planprt.Load(src, planprt.Config{Verify: planprt.VerifyPrivileged})
	if err != nil {
		panic(err)
	}
	return p.Info
}

// ---------------------------------------------------------------------------
// planprt: dispatch, codec and cache, from one shimmed gateway round

func planprtRungs(seed int64, sz sizes) ([]layerMetric, error) {
	// One traced, capturing sim_gateway round gives the Process count
	// and time and the packets the gateway really saw; one plain round
	// gives the simulator's event rate without the shim in the way.
	var captured []*substrate.Packet
	w := newSimGateway(seed, sz)
	w.capture = &captured
	tr := newTracer()
	if _, err := w.round(0, 0, tr); err != nil {
		return nil, err
	}
	probe := *w.first
	proc := tr.aggregates()["planprt.process"]
	w.capture = nil
	start := time.Now()
	if _, err := w.round(0, 1, nil); err != nil {
		return nil, err
	}
	plainWall := time.Since(start)

	// Replay the captured packets through the codec alone.
	info := mustInfo(asp.HTTPGateway)
	pktType := info.ChannelsByName("network")[0].Decl.PacketType()
	vals := make([]value.Value, 0, len(captured))
	for _, pkt := range captured {
		if v, ok := planprt.Decode(pkt, pktType); ok {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("planprt: none of %d captured packets decodes as the gateway's packet type", len(captured))
	}
	reps := sz.pick(5, 1)
	decode := timePer(reps, 1, func() {
		for _, pkt := range captured {
			planprt.Decode(pkt, pktType)
		}
	}) / float64(len(captured))
	encode := timePer(reps, 1, func() {
		for _, v := range vals {
			if _, err := planprt.Encode(v); err != nil {
				panic(err)
			}
		}
	}) / float64(len(vals))

	if _, err := planprt.Load(asp.HTTPGateway, deployConfig); err != nil {
		return nil, err
	}
	warm := timePer(reps, sz.pick(200, 5), func() { planprt.Load(asp.HTTPGateway, deployConfig) })

	processNs := 0.0
	if proc.Count > 0 {
		processNs = float64(proc.SumNs) / float64(proc.Count)
	}
	return []layerMetric{
		{"planprt.process_ns", processNs, "ns", int(proc.Count)},
		{"planprt.process_calls", float64(proc.Count), "count", 1},
		{"planprt.decode_ns", decode, "ns", len(captured)},
		{"planprt.encode_ns", encode, "ns", len(vals)},
		{"planprt.load_warm_us", warm / 1e3, "us", reps},
		{"planprt.exceptions", float64(probe.exceptions), "count", 1},
		{"netsim.events", float64(probe.events), "count", 1},
		{"netsim.events_s", float64(probe.events) / plainWall.Seconds(), "1/s", 1},
		{"netsim.queue_drops", float64(probe.queueDrops + probe.gwDrops), "count", 1},
	}, nil
}

// ---------------------------------------------------------------------------
// netsim: bare forwarding, fan-out, node build, sharding

// forwardTopology is a — r — c with 1 Gb/s links; send pushes a burst
// of smallest-payload packets through the router.
func forwardNs(observe bool, reps, rounds int) (float64, error) {
	sim := netsim.New(netsim.WithSeed(1))
	a := netsim.NewNode(sim, "a", netsim.MustAddr("10.0.0.1"))
	r := netsim.NewNode(sim, "r", netsim.MustAddr("10.0.0.254"))
	c := netsim.NewNode(sim, "c", netsim.MustAddr("10.0.1.1"))
	r.Forwarding = true
	l1 := netsim.Connect(sim, a, r, netsim.LinkConfig{Bandwidth: 1_000_000_000})
	l2 := netsim.Connect(sim, r, c, netsim.LinkConfig{Bandwidth: 1_000_000_000})
	a.SetDefaultRoute(l1.Ifaces()[0])
	r.AddRoute(c.Addr, l2.Ifaces()[0])
	c.SetDefaultRoute(l2.Ifaces()[1])
	var counts obs.CountingSink
	if observe {
		sim.Events().Subscribe(&counts)
	}
	got := 0
	c.BindUDP(9, func(*netsim.Packet) { got++ })
	const burst = 64
	pkts := make([]*netsim.Packet, burst)
	for i := range pkts {
		pkts[i] = netsim.NewUDP(a.Addr, c.Addr, 1, 9, make([]byte, 64))
	}
	sent := 0
	ns := timePer(reps, rounds, func() {
		for _, pkt := range pkts {
			pkt.IP.TTL = 64
			a.Send(pkt.Own())
		}
		sent += burst
		sim.Run()
	}) / burst
	if got != sent {
		return 0, fmt.Errorf("netsim: forwarded %d of %d packets", got, sent)
	}
	if observe && counts.Total() == 0 {
		return 0, fmt.Errorf("netsim: the observer saw no events")
	}
	return ns, nil
}

// fanoutNs is one packet in, four interfaces out.
func fanoutNs(reps, rounds int) (float64, error) {
	sim := netsim.New(netsim.WithSeed(1))
	src := netsim.NewNode(sim, "src", netsim.MustAddr("10.0.0.1"))
	r := netsim.NewNode(sim, "r", netsim.MustAddr("10.0.0.254"))
	r.Forwarding = true
	up := netsim.Connect(sim, src, r, netsim.LinkConfig{Bandwidth: 1_000_000_000})
	src.SetDefaultRoute(up.Ifaces()[0])
	group := netsim.MustAddr("224.0.0.7")
	const leaves = 4
	got := 0
	for i := 0; i < leaves; i++ {
		leaf := netsim.NewNode(sim, fmt.Sprintf("leaf%d", i), netsim.MustAddr(fmt.Sprintf("10.0.1.%d", i+1)))
		down := netsim.Connect(sim, r, leaf, netsim.LinkConfig{Bandwidth: 1_000_000_000})
		r.AddMulticastRoute(group, down.Ifaces()[0])
		leaf.SetDefaultRoute(down.Ifaces()[1])
		leaf.JoinGroup(group)
		leaf.BindUDP(9, func(*netsim.Packet) { got++ })
	}
	pkt := netsim.NewUDP(src.Addr, group, 1, 9, make([]byte, 64))
	sent := 0
	ns := timePer(reps, rounds, func() {
		pkt.IP.TTL = 64
		src.Send(pkt.Own())
		sent++
		sim.Run()
	})
	if got != leaves*sent {
		return 0, fmt.Errorf("netsim: fan-out delivered %d of %d", got, leaves*sent)
	}
	return ns, nil
}

func netsimRungs(seed int64, sz sizes) ([]layerMetric, error) {
	reps := sz.pick(5, 1)
	fwd, err := forwardNs(false, reps, sz.pick(2000, 10))
	if err != nil {
		return nil, err
	}
	fwdObs, err := forwardNs(true, reps, sz.pick(2000, 10))
	if err != nil {
		return nil, err
	}
	fan, err := fanoutNs(reps, sz.pick(50_000, 100))
	if err != nil {
		return nil, err
	}

	cfg := city.Full
	if sz.smoke {
		cfg = city.CI
	}
	cfg.Seed = seed
	timeCity := func(shards int, dur time.Duration) (float64, *city.Result, error) {
		c := cfg
		c.Shards, c.Duration = shards, dur
		runtime.GC()
		start := time.Now()
		res, err := city.Run(c)
		return time.Since(start).Seconds(), res, err
	}
	buildS, built, err := timeCity(1, 0)
	if err != nil {
		return nil, err
	}
	one, _, err := timeCity(1, cfg.Duration)
	if err != nil {
		return nil, err
	}
	four, _, err := timeCity(4, cfg.Duration)
	if err != nil {
		return nil, err
	}
	return []layerMetric{
		{"netsim.forward_ns", fwd, "ns", reps},
		{"netsim.forward_observed_ns", fwdObs, "ns", reps},
		{"netsim.fanout_ns", fan, "ns", reps},
		{"netsim.build_us_node", buildS * 1e6 / float64(built.Nodes), "us", 1},
		{"netsim.shard4_ratio", four / one, "ratio", 1},
		{"obs.overhead_ratio", fwdObs / fwd, "ratio", reps},
	}, nil
}

// ---------------------------------------------------------------------------
// rtnet: one hop of bare forwarding, no ASP, smallest packet

// hopNs bounces empty UDP packets a → r → b → r → a, one in flight, and
// returns the round trip divided by its four hops, plus the packets the
// line dropped.
func hopNs(udp bool, reps, n int) (float64, int64, error) {
	nw := rtnet.New(1)
	defer nw.Close()
	nodes, err := rtnet.Line(nw, []rtnet.LineHost{
		{Name: "a", Addr: substrate.MustAddr("10.9.0.1")},
		{Name: "r", Addr: substrate.MustAddr("10.9.0.2"), Forwarding: true},
		{Name: "b", Addr: substrate.MustAddr("10.9.0.3")},
	}, 100_000_000, udp)
	if err != nil {
		return 0, 0, err
	}
	a, b := nodes[0], nodes[2]
	b.BindUDP(9, func(req *substrate.Packet) {
		b.Send(substrate.NewUDP(b.Address(), req.IP.Src, 9, req.UDP.SrcPort, nil).Own())
	})
	back := make(chan struct{}, 1)
	a.BindUDP(7, func(*substrate.Packet) { back <- struct{}{} })
	nw.Start()
	// As in rt_gateway: a whole watchdog interval without an echo means
	// the one in flight is lost.
	watchdog := time.NewTicker(rtTimeout)
	defer watchdog.Stop()
	lost, echoes, echoesAtTick := false, 0, -1
	ns := timePer(reps, n, func() {
		if lost {
			return
		}
		a.Send(substrate.NewUDP(a.Address(), b.Address(), 7, 9, nil).Own())
		for {
			select {
			case <-back:
				echoes++
				return
			case <-watchdog.C:
				if lost = echoes == echoesAtTick; lost {
					return
				}
				echoesAtTick = echoes
			}
		}
	}) / 4
	if lost {
		return 0, 0, fmt.Errorf("rtnet: an echo did not return within %v (udp=%v)", rtTimeout, udp)
	}
	var dropped int64
	for name, v := range nw.Metrics().Snapshot() {
		if strings.HasSuffix(name, "dropped_pkts") {
			dropped += v
		}
	}
	return ns, dropped, nil
}

func rtnetRungs(_ int64, sz sizes) ([]layerMetric, error) {
	reps := sz.pick(5, 1)
	ch, d1, err := hopNs(false, reps, sz.pick(5000, 50))
	if err != nil {
		return nil, err
	}
	// The UDP variant crosses the host's loopback interface. A sandbox
	// without sockets gets a 0 and a note, not a failed pass.
	udp, d2, err := hopNs(true, reps, sz.pick(1000, 20))
	if err != nil {
		fmt.Fprintf(os.Stderr, "planpbench: rtnet.hop_ns.udp not measured: %v\n", err)
		udp, d2 = 0, 0
	}

	return []layerMetric{
		{"rtnet.hop_ns.chan", ch, "ns", reps},
		{"rtnet.hop_ns.udp", udp, "ns", reps},
		{"rtnet.dropped_pkts", float64(d1 + d2), "count", 1},
	}, nil
}

// ---------------------------------------------------------------------------
// planpd and fleet: each control verb on its own, then whole deployments

func controlRungs(seed int64, sz sizes) ([]layerMetric, error) {
	// One node, its planpd server, and the span-recording transport.
	tr := newTracer()
	nw := rtnet.New(seed)
	defer nw.Close()
	node := rtnet.NewNode(nw, "n0", substrate.MustAddr("10.8.0.1"))
	rt := &handlerTransport{handlers: map[string]http.Handler{"n0": planpd.NewServer(node, nil).Handler()}, tr: tr}
	nw.Start()
	client := &http.Client{Transport: rt}
	call := func(method, path string, q url.Values, body string) error {
		u := "http://n0" + path
		if q != nil {
			u += "?" + q.Encode()
		}
		req, err := http.NewRequest(method, u, strings.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("planpd: %s %s: %s", method, path, resp.Status)
		}
		return nil
	}
	src := asp.HTTPGateway
	iters := sz.pick(150, 3)
	for i := 0; i < iters; i++ {
		v := url.Values{"version": {fmt.Sprintf("p%d", i)}, "verify": {"privileged"}}
		for _, c := range []struct {
			method, path string
			q            url.Values
			body         string
		}{
			{http.MethodGet, "/healthz", nil, ""},
			{http.MethodPost, "/asp/stage", v, src},
			{http.MethodPost, "/asp/activate", v, ""},
			{http.MethodGet, "/stats", nil, ""},
			{http.MethodPost, "/asp/rollback", v, ""},
		} {
			if err := call(c.method, c.path, c.q, c.body); err != nil {
				return nil, err
			}
		}
	}
	verbs := tr.aggregates()
	mean := func(name string) (float64, int) {
		a := verbs[name]
		if a.Count == 0 {
			return 0, 0
		}
		return float64(a.SumNs) / float64(a.Count) / 1e3, int(a.Count)
	}
	var out []layerMetric
	for _, v := range []string{"health", "stage", "activate", "rollback", "stats"} {
		us, n := mean("planpd." + v)
		out = append(out, layerMetric{"planpd." + v + "_us", us, "us", n})
	}

	// A short traced deploy round: whole deployments, the transport's
	// call count, the controller's retry counter, the cache's counters.
	d := newDeploy(seed, sz)
	d.perRnd = sz.pick(200, 8)
	dtr := newTracer()
	planprt.ResetCache()
	if err := d.setup(dtr); err != nil {
		return nil, err
	}
	defer d.close()
	if _, err := d.round(0, 0, dtr); err != nil {
		return nil, err
	}
	dep := dtr.aggregates()["fleet.deploy"]
	hit := 0.0
	if d.hits+d.miss > 0 {
		hit = float64(d.hits) / float64(d.hits+d.miss)
	}

	// The controller's precheck is a planprt.Load of the spec's source:
	// cold for never-seen text, warm otherwise; the workload alternates.
	reps := sz.pick(5, 1)
	i := 0
	cold := timePer(reps, sz.pick(20, 2), func() {
		i++
		planprt.Load(fmt.Sprintf("%s\n-- precheck %d\n", src, i), deployConfig)
	})
	warm := timePer(reps, sz.pick(20, 2), func() { planprt.Load(src, deployConfig) })

	out = append(out,
		layerMetric{"fleet.deploy_us", float64(dep.SumNs) / float64(dep.Count) / 1e3, "us", int(dep.Count)},
		layerMetric{"fleet.precheck_us", (cold + warm) / 2 / 1e3, "us", reps},
		layerMetric{"fleet.http_calls_op", float64(d.rt.calls.Load()) / float64(d.perRnd), "count", d.perRnd},
		layerMetric{"fleet.retries", float64(d.reg.Counter("fleet.http_retries").Value()), "count", 1},
		layerMetric{"planprt.cache_hit_ratio", hit, "ratio", int(d.hits + d.miss)},
	)
	return out, nil
}
