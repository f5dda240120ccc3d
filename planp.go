// Package planp is a Go implementation of PLAN-P — the domain-specific
// language for Application-Specific Protocols (ASPs) from "Adapting
// Distributed Applications Using Extensible Networks" (Thibault, Marant,
// Muller; ICDCS 1999 / INRIA RR-3484) — together with the extensible
// network runtime and a deterministic network simulator to run ASPs on.
//
// An ASP is a small protocol program downloaded into routers and end
// hosts that changes how an existing application's packets are treated
// — degrading audio under congestion, balancing HTTP connections across
// a cluster, sharing a video stream between clients — without modifying
// the application itself.
//
// The pipeline mirrors the paper's runtime: source text is parsed and
// type-checked, the safety analyses of §2.1 run at download time (late
// checking), and the program is compiled by one of the paper's two
// engines — the portable tree-walking interpreter, or the
// closure-specializing JIT derived from it (§2.2).
//
// Quick start (the package's Example, compiled and run by go test):
//
//	net := planp.NewNetwork()
//	built, _ := net.Build(&planp.Topology{
//		Nodes: []planp.NodeSpec{
//			{Name: "a", Addr: planp.MustAddr("10.0.0.1")},
//			{Name: "b", Addr: planp.MustAddr("10.0.0.2")},
//		},
//		Links: []planp.LinkSpec{{A: "a", B: "b", Bandwidth: 10e6}},
//	})
//	a, b := built.Nodes[0], built.Nodes[1]
//
//	proto, _ := planp.Compile(src)
//	proto.DownloadTo(b, os.Stdout)
//
//	a.Send(planp.NewUDP(a.Addr, b.Addr, 1000, 9, []byte("hi")))
//	net.Run()
//
// A network is declared as a Topology, the specs every experiment in
// this repository builds from; Network.Build says how it is routed.
//
// Every simulation carries an observability layer (docs/OBSERVABILITY.md):
// subscribe to packet-level events with WithObserver or WithTraceWriter,
// and read cumulative statistics from net.Metrics().
package planp

import (
	"io"
	"time"

	"planp.dev/planp/internal/lang/engine"
	"planp.dev/planp/internal/lang/parser"
	"planp.dev/planp/internal/lang/typecheck"
	"planp.dev/planp/internal/lang/verify"
	"planp.dev/planp/internal/planprt"
)

// Engine selects a PLAN-P execution engine.
type Engine = planprt.EngineKind

// Available engines.
const (
	// Interp is the portable reference interpreter: slowest, simplest,
	// the engine new language features are debugged in.
	Interp = planprt.EngineInterp
	// JIT is the closure-specializing compiler derived from the
	// interpreter — the production engine, competitive with native Go
	// handlers (the paper's headline result).
	JIT = planprt.EngineJIT
)

// VerifyPolicy controls late checking at compile/download time.
type VerifyPolicy = planprt.VerifyPolicy

// Verification policies.
const (
	// VerifyNetwork requires the full network-wide safety analyses;
	// the protocol may then be installed on any number of nodes.
	VerifyNetwork = planprt.VerifyNetwork
	// VerifySingleNode verifies under a single-node deployment
	// assumption; installation on a second node is refused.
	VerifySingleNode = planprt.VerifySingleNode
	// VerifyPrivileged skips rejection (the authenticated-download
	// path for protocols that legitimately fail the conservative
	// analyses, e.g. multicast). Results are still recorded.
	VerifyPrivileged = planprt.VerifyPrivileged
)

// Report is the outcome of the four safety analyses (§2.1): local and
// global termination, guaranteed delivery, and linear duplication.
type Report = verify.Result

// Option configures Compile.
type Option func(*planprt.Config)

// WithEngine selects the execution engine (default JIT). Compile
// refuses any engine but Interp and JIT.
func WithEngine(e Engine) Option {
	return func(c *planprt.Config) { c.Engine = e }
}

// WithVerification selects the late-checking policy (default
// VerifyNetwork).
func WithVerification(p VerifyPolicy) Option {
	return func(c *planprt.Config) { c.Verify = p }
}

// Protocol is a compiled, verified ASP ready for download.
type Protocol struct {
	prog *planprt.Program
}

// Compile parses, type-checks, verifies, and compiles PLAN-P source.
// Verification failure under VerifyNetwork/VerifySingleNode is an error
// — the paper's late-checking rejection.
func Compile(src string, opts ...Option) (*Protocol, error) {
	var cfg planprt.Config
	for _, opt := range opts {
		opt(&cfg)
	}
	if _, err := planprt.ParseConfig(string(cfg.Engine), ""); err != nil {
		return nil, err
	}
	p, err := planprt.Load(src, cfg)
	if err != nil {
		return nil, err
	}
	return &Protocol{prog: p}, nil
}

// Check parses and type-checks source without verifying or compiling
// it, returning the resolution info (tooling entry point).
func Check(src string) (*typecheck.Info, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return typecheck.Check(prog)
}

// Report returns the safety-analysis results recorded at compile time.
func (p *Protocol) Report() *Report { return p.prog.Verify }

// CodegenTime is the time the engine spent compiling — the measurement
// of the paper's figure 3.
func (p *Protocol) CodegenTime() time.Duration { return p.prog.CodegenTime }

// EngineName identifies the engine the protocol was compiled for.
func (p *Protocol) EngineName() string { return p.prog.Compiled.EngineName() }

// DownloadTo installs the protocol on a node, replacing its standard
// packet processing. out receives the program's print/println output
// (nil discards it). Each download gets fresh protocol/channel state.
func (p *Protocol) DownloadTo(node *Node, out io.Writer) (*Runtime, error) {
	return planprt.Install(node, p.prog, out)
}

// Runtime is one installed protocol on one node.
type Runtime = planprt.Runtime

// Instance exposes a downloaded protocol's state (monitoring/tests).
type Instance = engine.Instance
