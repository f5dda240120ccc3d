// Header-access primitives: the packet-inspection and rewriting layer of
// PLAN-P. Headers are immutable values, so every *Set primitive returns a
// fresh header; this mirrors the functional packet treatment in the
// paper's listings (ipDestSet in figure 2).
package prims

import (
	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/value"
)

func init() {
	// ---- IP header ----
	mono("ipSrc", types(ast.IPT), ast.HostT, func(_ Context, a []value.Value) value.Value {
		return value.HostV(a[0].AsIP().Src)
	})
	mono("ipDst", types(ast.IPT), ast.HostT, func(_ Context, a []value.Value) value.Value {
		return value.HostV(a[0].AsIP().Dst)
	})
	mono("ipProto", types(ast.IPT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(a[0].AsIP().Proto))
	})
	mono("ipTTL", types(ast.IPT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(a[0].AsIP().TTL))
	})
	mono("ipLen", types(ast.IPT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(a[0].AsIP().Len))
	})
	mono("ipID", types(ast.IPT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(a[0].AsIP().ID))
	})
	mono("ipSrcSet", types(ast.IPT, ast.HostT), ast.IPT, func(_ Context, a []value.Value) value.Value {
		h := *a[0].AsIP()
		h.Src = a[1].AsHost()
		return value.IP(&h)
	})
	mono("ipDestSet", types(ast.IPT, ast.HostT), ast.IPT, func(_ Context, a []value.Value) value.Value {
		h := *a[0].AsIP()
		h.Dst = a[1].AsHost()
		return value.IP(&h)
	})
	mono("ipTTLSet", types(ast.IPT, ast.IntT), ast.IPT, func(_ Context, a []value.Value) value.Value {
		h := *a[0].AsIP()
		ttl := a[1].AsInt()
		if ttl < 0 || ttl > 255 {
			value.Raise("ipTTLSet: TTL %d out of range", ttl)
		}
		h.TTL = uint8(ttl)
		return value.IP(&h)
	})
	mono("ipLenSet", types(ast.IPT, ast.IntT), ast.IPT, func(_ Context, a []value.Value) value.Value {
		h := *a[0].AsIP()
		n := a[1].AsInt()
		if n < 0 {
			value.Raise("ipLenSet: negative length %d", n)
		}
		h.Len = int(n)
		return value.IP(&h)
	})
	mono("mkIP", types(ast.HostT, ast.HostT, ast.IntT), ast.IPT, func(_ Context, a []value.Value) value.Value {
		proto := a[2].AsInt()
		if proto < 0 || proto > 255 {
			value.Raise("mkIP: protocol %d out of range", proto)
		}
		return value.IP(&value.IPHeader{Src: a[0].AsHost(), Dst: a[1].AsHost(), Proto: uint8(proto), TTL: 64})
	})

	// ---- TCP header ----
	mono("tcpSrc", types(ast.TCPT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(a[0].AsTCP().SrcPort))
	})
	mono("tcpDst", types(ast.TCPT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(a[0].AsTCP().DstPort))
	})
	mono("tcpSeq", types(ast.TCPT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(a[0].AsTCP().Seq))
	})
	mono("tcpAck", types(ast.TCPT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(a[0].AsTCP().Ack))
	})
	mono("tcpWindow", types(ast.TCPT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(a[0].AsTCP().Window))
	})
	mono("tcpSynFlag", types(ast.TCPT), ast.BoolT, func(_ Context, a []value.Value) value.Value {
		return value.Bool(a[0].AsTCP().Flags&value.TCPSyn != 0)
	})
	mono("tcpAckFlag", types(ast.TCPT), ast.BoolT, func(_ Context, a []value.Value) value.Value {
		return value.Bool(a[0].AsTCP().Flags&value.TCPAck != 0)
	})
	mono("tcpFinFlag", types(ast.TCPT), ast.BoolT, func(_ Context, a []value.Value) value.Value {
		return value.Bool(a[0].AsTCP().Flags&value.TCPFin != 0)
	})
	mono("tcpRstFlag", types(ast.TCPT), ast.BoolT, func(_ Context, a []value.Value) value.Value {
		return value.Bool(a[0].AsTCP().Flags&value.TCPRst != 0)
	})
	mono("tcpSrcSet", types(ast.TCPT, ast.IntT), ast.TCPT, func(_ Context, a []value.Value) value.Value {
		h := *a[0].AsTCP()
		h.SrcPort = checkPort("tcpSrcSet", a[1].AsInt())
		return value.TCP(&h)
	})
	mono("tcpDstSet", types(ast.TCPT, ast.IntT), ast.TCPT, func(_ Context, a []value.Value) value.Value {
		h := *a[0].AsTCP()
		h.DstPort = checkPort("tcpDstSet", a[1].AsInt())
		return value.TCP(&h)
	})

	// ---- UDP header ----
	mono("udpSrc", types(ast.UDPT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(a[0].AsUDP().SrcPort))
	})
	mono("udpDst", types(ast.UDPT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(a[0].AsUDP().DstPort))
	})
	mono("udpLen", types(ast.UDPT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(a[0].AsUDP().Len))
	})
	mono("udpSrcSet", types(ast.UDPT, ast.IntT), ast.UDPT, func(_ Context, a []value.Value) value.Value {
		h := *a[0].AsUDP()
		h.SrcPort = checkPort("udpSrcSet", a[1].AsInt())
		return value.UDP(&h)
	})
	mono("udpDstSet", types(ast.UDPT, ast.IntT), ast.UDPT, func(_ Context, a []value.Value) value.Value {
		h := *a[0].AsUDP()
		h.DstPort = checkPort("udpDstSet", a[1].AsInt())
		return value.UDP(&h)
	})
	mono("mkUDP", types(ast.IntT, ast.IntT), ast.UDPT, func(_ Context, a []value.Value) value.Value {
		return value.UDP(&value.UDPHeader{
			SrcPort: checkPort("mkUDP", a[0].AsInt()),
			DstPort: checkPort("mkUDP", a[1].AsInt()),
		})
	})

	// ---- Host conversions ----
	mono("hostToInt", types(ast.HostT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(a[0].AsHost()))
	})
	mono("intToHost", types(ast.IntT), ast.HostT, func(_ Context, a []value.Value) value.Value {
		n := a[0].AsInt()
		if n < 0 || n > 0xFFFFFFFF {
			value.Raise("intToHost: %d out of range", n)
		}
		return value.HostV(value.Host(n))
	})
	mono("hostToString", types(ast.HostT), ast.StringT, func(_ Context, a []value.Value) value.Value {
		return value.Str(a[0].AsHost().String())
	})

	// ---- Network environment (effectful / runtime-dependent) ----
	mono("thisHost", nil, ast.HostT, func(ctx Context, _ []value.Value) value.Value {
		return value.HostV(ctx.ThisHost())
	})
	mono("time", nil, ast.IntT, func(ctx Context, _ []value.Value) value.Value {
		return value.Int(ctx.Now())
	})
	mono("rand", types(ast.IntT), ast.IntT, func(ctx Context, a []value.Value) value.Value {
		n := a[0].AsInt()
		if n <= 0 {
			value.Raise("rand: bound must be positive, got %d", n)
		}
		return value.Int(ctx.Rand(n))
	})
	mono("linkLoadTo", types(ast.HostT), ast.IntT, func(ctx Context, a []value.Value) value.Value {
		return value.Int(ctx.LinkLoadTo(a[0].AsHost()))
	})
	mono("linkBandwidthTo", types(ast.HostT), ast.IntT, func(ctx Context, a []value.Value) value.Value {
		return value.Int(ctx.LinkBandwidthTo(a[0].AsHost()))
	})
}

func checkPort(prim string, p int64) uint16 {
	if p < 0 || p > 65535 {
		value.Raise("%s: port %d out of range", prim, p)
	}
	return uint16(p)
}
