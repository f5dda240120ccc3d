// The native ("built-in C") gateway: the same load-balancing behavior as
// asp/http_gateway.planp, hand-written in Go against the abstract
// substrate API — like the ASP, it runs unchanged on the simulator or a
// real-time backend. Figure 8's curve b; the ASP gateway is curve c.
package httpd

import (
	"time"

	"planp.dev/planp/internal/substrate"
)

// Cluster addressing, shared with asp/http_gateway.planp.
var (
	VirtualAddr = substrate.MustAddr("10.0.0.100")
	Server0Addr = substrate.MustAddr("10.0.0.81")
	Server1Addr = substrate.MustAddr("10.0.0.109")
)

// GatewayCPU is the gateway's per-packet processing cost with the
// compiled engines (JIT or native — the paper's headline result is that
// these are equal). Calibrated so the gateway saturates near 1.75x a
// single server's throughput, the operating point figure 8 reports.
const GatewayCPU = 272 * time.Microsecond

// EngineCPUFactor scales GatewayCPU for the engine ablation: the
// interpreter pays AST-walking dispatch on every packet. The ratio
// follows the measured per-packet engine microbenchmarks (see
// bench_test.go).
func EngineCPUFactor(engine string) time.Duration {
	switch engine {
	case "interp":
		return 8 * GatewayCPU
	default: // jit, native
		return GatewayCPU
	}
}

// connKey identifies a client connection.
type connKey struct {
	src  substrate.Addr
	port uint16
}

// NativeGateway is the hand-written load balancer.
type NativeGateway struct {
	node  substrate.Node
	conns map[connKey]substrate.Addr
	count int64
}

var _ substrate.Processor = (*NativeGateway)(nil)

// InstallNativeGateway installs the baseline on a node.
func InstallNativeGateway(node substrate.Node) *NativeGateway {
	g := &NativeGateway{node: node, conns: map[connKey]substrate.Addr{}}
	node.SetProcessor(g)
	return g
}

// Process implements the request/response rewriting of §3.2.
func (g *NativeGateway) Process(pkt *substrate.Packet, in substrate.Iface) bool {
	if pkt.TCP == nil {
		return false
	}
	switch {
	case pkt.IP.Dst == VirtualAddr && pkt.TCP.DstPort == HTTPPort:
		key := connKey{src: pkt.IP.Src, port: pkt.TCP.SrcPort}
		srv, ok := g.conns[key]
		if !ok {
			if g.count%2 == 0 {
				srv = Server0Addr
			} else {
				srv = Server1Addr
			}
			g.conns[key] = srv
		}
		if pkt.TCP.Flags&substrate.FlagSyn != 0 {
			g.count++
		}
		out := pkt.Clone()
		out.IP.Dst = srv
		g.node.Relay(out, in)
		return true

	case pkt.TCP.SrcPort == HTTPPort && (pkt.IP.Src == Server0Addr || pkt.IP.Src == Server1Addr):
		out := pkt.Clone()
		out.IP.Src = VirtualAddr
		g.node.Relay(out, in)
		return true

	default:
		g.node.Relay(pkt.Clone(), in)
		return true
	}
}
