// compile — figure 3: cold loads of the nine in-tree ASPs.
//
// Why: lexer → parser → typecheck → verify → codegen is all of the work
// and nothing else is; single-threaded and allocation-heavy. Only a
// front-end or code-generation change moves it.
package main

import (
	"fmt"
	"strings"
	"time"

	"planp.dev/planp/asp"
	"planp.dev/planp/bench/golden"
	"planp.dev/planp/internal/lang/bytecode"
	"planp.dev/planp/internal/lang/engine"
	"planp.dev/planp/internal/lang/interp"
	"planp.dev/planp/internal/lang/jit"
	"planp.dev/planp/internal/lang/typecheck"
	"planp.dev/planp/internal/lang/value"
	"planp.dev/planp/internal/lang/verify"
	"planp.dev/planp/internal/planprt"
	"planp.dev/planp/internal/substrate"
)

// program is one in-tree ASP with the probe packet the engine
// cross-check feeds it.
type program struct {
	name, src string
	probe     func() *substrate.Packet
}

var (
	probeClient  = substrate.MustAddr("10.0.1.1")
	probeElse    = substrate.MustAddr("10.0.2.9")
	probeVirtual = substrate.MustAddr("10.0.0.100")
)

func tcpProbe(payload []byte) func() *substrate.Packet {
	return func() *substrate.Packet {
		return substrate.NewTCP(probeClient, probeVirtual, 4001, 80, 7, substrate.FlagSyn, payload)
	}
}

func udpProbe(dstPort uint16, payload []byte) func() *substrate.Packet {
	return func() *substrate.Packet {
		return substrate.NewUDP(probeClient, probeElse, 4001, dstPort, payload)
	}
}

// programs lists the nine ASPs: figure 3's five first, in figure order,
// then the three other gateway policies and the compute kernel. Names
// match bench/golden/verdicts.txt.
func programs() []program {
	return []program{
		{"audio-router", asp.AudioRouter, udpProbe(5004, make([]byte, 160))},
		{"audio-client", asp.AudioClient, udpProbe(5004, make([]byte, 160))},
		{"http-gateway", asp.HTTPGateway, tcpProbe([]byte("GET /index.html"))},
		{"mpeg-monitor", asp.MPEGMonitor, tcpProbe([]byte{'P', 0, 0, 0, 9})},
		{"mpeg-client", asp.MPEGClient, udpProbe(7000, make([]byte, 64))},
		{"gw-random", asp.HTTPGatewayRandom, tcpProbe([]byte("GET /index.html"))},
		{"gw-leastconn", asp.HTTPGatewayLeastConn, tcpProbe([]byte("GET /index.html"))},
		{"gw-failover", asp.HTTPGatewayFailover, tcpProbe([]byte("GET /index.html"))},
		{"bench-compute", asp.BenchCompute, udpProbe(9, []byte("abcdefgh"))},
	}
}

// coldConfig is a load that measures the pipeline: no cache, and the
// privileged policy so the analyses run on every program and record
// their verdicts instead of rejecting.
var coldConfig = planprt.Config{Engine: planprt.EngineJIT, Verify: planprt.VerifyPrivileged, NoCache: true}

type compile struct {
	progs  []program
	order  []int
	cycles int
	quanta []float64 // the round's buffer, reused
}

func newCompile(seed int64, sz sizes) *compile {
	progs := programs()
	return &compile{progs: progs, order: shuffledOrder(len(progs), seed), cycles: sz.pick(100, 20)}
}

func (w *compile) name() string { return "compile" }
func (w *compile) link() string { return "none (in-process calls)" }
func (w *compile) phases() []phase {
	// A quantum is one load; loads of one program are one kind.
	return []phase{{name: "cold loads", share: 1, rate: true, kinds: len(w.order)}}
}
func (w *compile) setup(*tracer) error { return nil }
func (w *compile) close()              {}

func (w *compile) round(_ int, idx int64, tr *tracer) (roundResult, error) {
	n := w.cycles * len(w.order)
	res := roundResult{ops: n, quanta: w.quanta[:0]}
	var seq int64
	for c := 0; c < w.cycles; c++ {
		for _, i := range w.order {
			ts := tr.now()
			start := time.Now()
			p, err := planprt.Load(w.progs[i].src, coldConfig)
			res.quanta = append(res.quanta, float64(time.Since(start))/1e3)
			tr.finish("planprt.load", "", idx<<32|seq, seq, ts, tr.now())
			seq++
			if err != nil || p.Compiled == nil {
				res.failed++
			}
		}
	}
	w.quanta = res.quanta
	if res.failed > 0 {
		return res, fmt.Errorf("%w: %d of %d cold loads failed", errCheck, res.failed, n)
	}
	return res, nil
}

// check: the verifier's verdict on each program equals the hand-written
// table, and the three engines emit the same sends for one probe packet.
func (w *compile) check() error {
	table := golden.Verdicts()
	if len(table) != len(w.progs) {
		return fmt.Errorf("%w: verdict table has %d rows, want %d", errCheck, len(table), len(w.progs))
	}
	for _, p := range w.progs {
		want, ok := table[p.name]
		if !ok {
			return fmt.Errorf("%w: no verdict row for %s", errCheck, p.name)
		}
		loaded, err := planprt.Load(p.src, coldConfig)
		if err != nil {
			return fmt.Errorf("%w: %s: %v", errCheck, p.name, err)
		}
		got := golden.Verdict{
			Network:    loaded.Verify.AllOK(),
			SingleNode: verify.VerifyWith(loaded.Info, verify.Options{SingleNode: true}).AllOK(),
		}
		if got != want {
			return fmt.Errorf("%w: %s verifies %+v, table says %+v", errCheck, p.name, got, want)
		}
		if err := enginesAgree(p, loaded.Info); err != nil {
			return fmt.Errorf("%w: %s: %v", errCheck, p.name, err)
		}
	}
	return nil
}

// enginesAgree runs the probe through interp, bytecode and JIT and
// compares what each sent and delivered.
func enginesAgree(p program, info *typecheck.Info) error {
	engines := []struct {
		name    string
		compile func(*typecheck.Info) (engine.Compiled, error)
	}{{"interp", interp.Compile}, {"bytecode", bytecode.Compile}, {"jit", jit.Compile}}
	var first string
	for _, e := range engines {
		c, err := e.compile(info)
		if err != nil {
			return fmt.Errorf("%s: %v", e.name, err)
		}
		ctx := newRecCtx()
		inst, err := c.NewInstance(ctx)
		if err != nil {
			return fmt.Errorf("%s: %v", e.name, err)
		}
		ci, v, ok := matchChannel(info, p.probe())
		if !ok {
			return fmt.Errorf("probe packet matches no network channel")
		}
		got := "ok"
		if err := inst.Invoke(ci, ctx, v); err != nil {
			got = "exception"
		}
		got += "\n" + ctx.transcript()
		if e.name == "interp" {
			first = got
			if len(ctx.sent) == 0 && len(ctx.delivered) == 0 {
				return fmt.Errorf("probe packet produced no output; it checks nothing")
			}
		} else if got != first {
			return fmt.Errorf("%s disagrees with interp:\n%s\nvs\n%s", e.name, got, first)
		}
	}
	return nil
}

// matchChannel applies the runtime's dispatch rule: the first network
// channel whose packet type decodes the packet.
func matchChannel(info *typecheck.Info, pkt *substrate.Packet) (int, value.Value, bool) {
	for _, ch := range info.ChannelsByName("network") {
		if v, ok := planprt.Decode(pkt, ch.Decl.PacketType()); ok {
			return ch.Index, v, true
		}
	}
	return 0, value.Unit, false
}

// recCtx is a recording prims.Context: the fake network the engine
// cross-check and the engine rungs run against.
type recCtx struct {
	sent      []string
	delivered []string
	keep      bool // record transcripts (off in timed loops)
	sends     int
	rnd       uint64
}

func newRecCtx() *recCtx { return &recCtx{keep: true, rnd: 0x9E3779B97F4A7C15} }

func (c *recCtx) OnRemote(ch string, pkt value.Value) {
	c.sends++
	if c.keep {
		c.sent = append(c.sent, fmt.Sprintf("remote %s %s", ch, pkt))
	}
}
func (c *recCtx) OnNeighbor(ch string, pkt value.Value) {
	c.sends++
	if c.keep {
		c.sent = append(c.sent, fmt.Sprintf("neighbor %s %s", ch, pkt))
	}
}
func (c *recCtx) Deliver(pkt value.Value) {
	c.sends++
	if c.keep {
		c.delivered = append(c.delivered, fmt.Sprintf("deliver %s", pkt))
	}
}
func (c *recCtx) Print(string)                     {}
func (c *recCtx) ThisHost() value.Host             { return value.Host(probeElse) }
func (c *recCtx) Now() int64                       { return 1000 }
func (c *recCtx) LinkLoadTo(value.Host) int64      { return 90 }
func (c *recCtx) LinkBandwidthTo(value.Host) int64 { return 10_000_000 }
func (c *recCtx) Rand(n int64) int64 {
	c.rnd ^= c.rnd << 13
	c.rnd ^= c.rnd >> 7
	c.rnd ^= c.rnd << 17
	return int64(c.rnd % uint64(n))
}

func (c *recCtx) transcript() string {
	return strings.Join(c.sent, "\n") + "\n" + strings.Join(c.delivered, "\n")
}
