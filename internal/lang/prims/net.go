// Header-access primitives: the packet-inspection and rewriting layer of
// PLAN-P. A *Set primitive returns a rewritten copy of its header, as in
// the paper's listings (ipDestSet in figure 2). Each is declared once, by
// read or build, and that body is every entry an engine calls.
package prims

import (
	"math"

	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/value"
	"planp.dev/planp/internal/substrate"
)

// kinds boxes what a header primitive returns.
var kinds = map[ast.Type]value.Kind{ast.IntT: value.KindInt, ast.HostT: value.KindHost, ast.BoolT: value.KindBool,
	ast.IPT: value.KindIP, ast.TCPT: value.KindTCP, ast.UDPT: value.KindUDP}

// read declares the reader name(h : t) : ret, the word field reads off h.
func read[H any](name string, t, ret ast.Type, field func(*H) int64) {
	kind, word := kinds[ret], func(v *value.Value) int64 { return field(v.Ref.(*H)) }
	register(Prim{Name: name, Params: types(t), Ret: ret, Word: word,
		Fn: func(_ Context, a []value.Value) value.Value { return value.Value{Kind: kind, I: word(&a[0])} }})
}

// build declares name(params) : ret, the header fill writes whole: Fn in
// a fresh one, Into in the one mem holds, made the first time.
func build[H any](name string, params []ast.Type, ret ast.Type, fill func(h *H, a []value.Value)) {
	kind := kinds[ret]
	in := func(a []value.Value, h *H) value.Value { fill(h, a); return value.Value{Kind: kind, Ref: h} }
	register(Prim{Name: name, Params: params, Ret: ret,
		Fn: func(_ Context, a []value.Value) value.Value { return in(a, new(H)) },
		Into: func(a []value.Value, mem *value.Value) value.Value {
			if mem.Ref == nil {
				mem.Ref = new(H)
			}
			return in(a, mem.Ref.(*H))
		}})
}

// set declares the setter name(h : t, x : arg) : t, h as put changes it.
func set[H any](name string, t, arg ast.Type, put func(h *H, x int64)) {
	build(name, types(t, arg), t, func(h *H, a []value.Value) { *h = *a[0].Ref.(*H); put(h, a[1].I) })
}

func init() {
	// ---- IP header ----
	read("ipSrc", ast.IPT, ast.HostT, func(h *value.IPHeader) int64 { return int64(h.Src) })
	read("ipDst", ast.IPT, ast.HostT, func(h *value.IPHeader) int64 { return int64(h.Dst) })
	read("ipProto", ast.IPT, ast.IntT, func(h *value.IPHeader) int64 { return int64(h.Proto) })
	read("ipTTL", ast.IPT, ast.IntT, func(h *value.IPHeader) int64 { return int64(h.TTL) })
	read("ipLen", ast.IPT, ast.IntT, func(h *value.IPHeader) int64 { return int64(h.Len) })
	read("ipID", ast.IPT, ast.IntT, func(h *value.IPHeader) int64 { return int64(h.ID) })
	set("ipSrcSet", ast.IPT, ast.HostT, func(h *value.IPHeader, x int64) { h.Src = value.Host(x) })
	set("ipDestSet", ast.IPT, ast.HostT, func(h *value.IPHeader, x int64) { h.Dst = value.Host(x) })
	set("ipTTLSet", ast.IPT, ast.IntT, func(h *value.IPHeader, x int64) { h.TTL = uint8(inRange(x, 255, "ipTTLSet: TTL %d out of range")) })
	set("ipLenSet", ast.IPT, ast.IntT, func(h *value.IPHeader, x int64) { h.Len = int(inRange(x, math.MaxInt, "ipLenSet: negative length %d")) })
	build("mkIP", types(ast.HostT, ast.HostT, ast.IntT), ast.IPT, func(h *value.IPHeader, a []value.Value) {
		proto := uint8(inRange(a[2].I, 255, "mkIP: protocol %d out of range"))
		*h = value.IPHeader{IPHeader: substrate.IPHeader{Src: value.Host(a[0].I), Dst: value.Host(a[1].I), Proto: proto, TTL: 64}}
	})

	// ---- TCP header ----
	read("tcpSrc", ast.TCPT, ast.IntT, func(h *value.TCPHeader) int64 { return int64(h.SrcPort) })
	read("tcpDst", ast.TCPT, ast.IntT, func(h *value.TCPHeader) int64 { return int64(h.DstPort) })
	read("tcpSeq", ast.TCPT, ast.IntT, func(h *value.TCPHeader) int64 { return int64(h.Seq) })
	read("tcpAck", ast.TCPT, ast.IntT, func(h *value.TCPHeader) int64 { return int64(h.Ack) })
	read("tcpWindow", ast.TCPT, ast.IntT, func(h *value.TCPHeader) int64 { return int64(h.Window) })
	for i, name := range []string{"tcpSynFlag", "tcpAckFlag", "tcpFinFlag", "tcpRstFlag"} { // substrate.FlagSyn << i
		read(name, ast.TCPT, ast.BoolT, func(h *value.TCPHeader) int64 { return int64(h.Flags >> i & 1) })
	}
	set("tcpSrcSet", ast.TCPT, ast.IntT, func(h *value.TCPHeader, x int64) { h.SrcPort = port(x, "tcpSrcSet: port %d out of range") })
	set("tcpDstSet", ast.TCPT, ast.IntT, func(h *value.TCPHeader, x int64) { h.DstPort = port(x, "tcpDstSet: port %d out of range") })

	// ---- UDP header ----
	read("udpSrc", ast.UDPT, ast.IntT, func(h *value.UDPHeader) int64 { return int64(h.SrcPort) })
	read("udpDst", ast.UDPT, ast.IntT, func(h *value.UDPHeader) int64 { return int64(h.DstPort) })
	read("udpLen", ast.UDPT, ast.IntT, func(h *value.UDPHeader) int64 { return int64(h.Len) })
	set("udpSrcSet", ast.UDPT, ast.IntT, func(h *value.UDPHeader, x int64) { h.SrcPort = port(x, "udpSrcSet: port %d out of range") })
	set("udpDstSet", ast.UDPT, ast.IntT, func(h *value.UDPHeader, x int64) { h.DstPort = port(x, "udpDstSet: port %d out of range") })
	build("mkUDP", types(ast.IntT, ast.IntT), ast.UDPT, func(h *value.UDPHeader, a []value.Value) {
		const msg = "mkUDP: port %d out of range"
		*h = value.UDPHeader{UDPHeader: substrate.UDPHeader{SrcPort: port(a[0].I, msg), DstPort: port(a[1].I, msg)}}
	})

	// ---- Host conversions ----
	def("hostToInt", types(ast.HostT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(a[0].AsHost()))
	})
	def("intToHost", types(ast.IntT), ast.HostT, func(_ Context, a []value.Value) value.Value {
		return value.HostV(value.Host(inRange(a[0].AsInt(), 0xFFFFFFFF, "intToHost: %d out of range")))
	})
	def("hostToString", types(ast.HostT), ast.StringT, func(_ Context, a []value.Value) value.Value {
		return value.Str(a[0].AsHost().String())
	})

	// ---- Network environment (effectful / runtime-dependent) ----
	def("thisHost", nil, ast.HostT, func(ctx Context, _ []value.Value) value.Value {
		return value.HostV(ctx.ThisHost())
	})
	def("time", nil, ast.IntT, func(ctx Context, _ []value.Value) value.Value {
		return value.Int(ctx.Now())
	})
	def("rand", types(ast.IntT), ast.IntT, func(ctx Context, a []value.Value) value.Value {
		n := a[0].AsInt()
		if n <= 0 {
			value.Raise("rand: bound must be positive, got %d", n)
		}
		return value.Int(ctx.Rand(n))
	})
	def("linkLoadTo", types(ast.HostT), ast.IntT, func(ctx Context, a []value.Value) value.Value {
		return value.Int(ctx.LinkLoadTo(a[0].AsHost()))
	})
	def("linkBandwidthTo", types(ast.HostT), ast.IntT, func(ctx Context, a []value.Value) value.Value {
		return value.Int(ctx.LinkBandwidthTo(a[0].AsHost()))
	})
}

// inRange returns x if it is in [0, hi] and raises msg, a format of x,
// if not.
func inRange(x, hi int64, msg string) int64 {
	if x < 0 || x > hi {
		value.Raise(msg, x)
	}
	return x
}

func port(x int64, msg string) uint16 { return uint16(inRange(x, 65535, msg)) }
