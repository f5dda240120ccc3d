// Packet model: an IP-flavoured header with optional TCP/UDP transport
// headers and a raw payload. PLAN-P operates on existing packet formats
// unchanged (§2), so these are the header values a program reads and
// rewrites: internal/lang/value adds only the lengths ipLen and udpLen
// read, which internal/planprt fills in at decode. The model is substrate-neutral: simulator
// media and real-time channel/socket links carry the same struct.
package substrate

import "fmt"

// IP protocol numbers used by the substrate.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// Header byte sizes used for Packet.Size accounting.
const (
	IPHeaderLen  = 20
	TCPHeaderLen = 20
	UDPHeaderLen = 8
)

// TCP flag bits: what tcpSynFlag and the other PLAN-P flag readers test.
const (
	FlagSyn = 1 << iota
	FlagAck
	FlagFin
	FlagRst
	FlagPsh
)

// IPHeader is the network-layer header.
type IPHeader struct {
	Src   Addr
	Dst   Addr
	Proto uint8
	TTL   uint8
	ID    uint32
}

// TCPHeader is the (simplified) TCP transport header.
type TCPHeader struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   uint8
	Window  uint16
}

// UDPHeader is the UDP transport header.
type UDPHeader struct {
	SrcPort uint16
	DstPort uint16
}

// Packet is one datagram in flight. Packets are passed by pointer but
// treated as immutable once transmitted; rewriting protocols build a
// modified Clone (header rewrites) or CloneMut (payload rewrites).
//
// # Copy-on-write ownership
//
// Because transmitted packets are immutable, Clone is a copy-on-write
// shallow copy: the clone shares the payload bytes and the transport
// header structs with the original. Code that needs to mutate payload
// BYTES in place must use CloneMut (a deep copy); every in-tree rewriter
// (audio degradation, gateway address rewriting) instead builds fresh
// payload slices, which is equally safe.
//
// The unexported owned flag supports the zero-allocation forward path:
// it marks a packet whose ONLY live reference is the delivery chain it
// is currently on (freshly built hop copies and runtime-encoded sends).
// A router receiving an owned packet may reuse it in place for the next
// hop — decrement TTL, retransmit — instead of cloning. Ownership is
// deliberately conservative: it is cleared whenever the pointer becomes
// visible to more than one party (broadcast/multicast fan-out, taps,
// local delivery).
//
// On concurrent backends the same contract doubles as the memory
// model: transmitting a packet hands it to the receiving node's
// goroutine (a channel send establishes the happens-before edge), so a
// sender honoring Own must not touch the packet afterwards, and a
// disowned packet shared by a fan-out is read-only everywhere.
type Packet struct {
	IP      IPHeader
	TCP     *TCPHeader // exactly one of TCP/UDP is set for transport traffic
	UDP     *UDPHeader
	Payload []byte

	// ChanTag identifies the user-defined PLAN-P channel this packet
	// was sent on; empty for ordinary traffic (handled by "network"
	// channels, §2).
	ChanTag string

	// owned marks a packet exclusively referenced by its current
	// delivery chain (see the ownership comment above).
	owned bool
}

// Own asserts that the caller holds the only live reference to p and
// relinquishes it: after transmitting an owned packet the caller must
// not read or write it again. Senders that build a fresh packet per send
// (load generators, sources) call this so downstream routers can forward
// the packet in place without cloning. It returns p for use in send
// expressions.
func (p *Packet) Own() *Packet {
	p.owned = true
	return p
}

// Disown clears exclusive ownership (the pointer is about to be shared
// with more than one party, so nobody may reuse the packet in place).
// The guard makes Disown idempotent without a write: once a packet is
// shared, several parties may disown it concurrently (fan-out receivers
// on different simulator shards), and a read of an already-false flag
// is race-free where an unconditional store is not.
func (p *Packet) Disown() {
	if p.owned {
		p.owned = false
	}
}

// Owned reports whether the packet is exclusively referenced by its
// current delivery chain (backends use this to elide hop copies).
func (p *Packet) Owned() bool { return p.owned }

// Size returns the on-wire size in bytes (headers + payload).
func (p *Packet) Size() int {
	n := IPHeaderLen + len(p.Payload)
	if p.TCP != nil {
		n += TCPHeaderLen
	}
	if p.UDP != nil {
		n += UDPHeaderLen
	}
	if p.ChanTag != "" {
		n += 2 + len(p.ChanTag) // tag option
	}
	return n
}

// Clone returns a copy-on-write shallow copy: a fresh Packet (so the IP
// header — the part rewriting protocols and per-hop forwarding mutate —
// is independent) sharing the payload bytes and transport header structs
// with the original. Transmitted packets are immutable, so sharing is
// never observable; callers that will mutate payload bytes or transport
// header fields must use CloneMut. The clone is exclusively owned by the
// caller.
func (p *Packet) Clone() *Packet {
	q := &Packet{IP: p.IP, TCP: p.TCP, UDP: p.UDP, Payload: p.Payload, ChanTag: p.ChanTag, owned: true}
	return q
}

// CloneMut returns a deep copy (headers and payload): the explicit path
// for protocols that genuinely rewrite bytes or transport headers in
// place rather than building replacement slices.
func (p *Packet) CloneMut() *Packet {
	q := &Packet{IP: p.IP, ChanTag: p.ChanTag, owned: true}
	if p.TCP != nil {
		tcp := *p.TCP
		q.TCP = &tcp
	}
	if p.UDP != nil {
		udp := *p.UDP
		q.UDP = &udp
	}
	if p.Payload != nil {
		q.Payload = make([]byte, len(p.Payload))
		copy(q.Payload, p.Payload)
	}
	return q
}

// String renders the packet for diagnostics.
func (p *Packet) String() string {
	switch {
	case p.TCP != nil:
		return fmt.Sprintf("tcp %s:%d->%s:%d seq=%d flags=%#x len=%d",
			p.IP.Src, p.TCP.SrcPort, p.IP.Dst, p.TCP.DstPort, p.TCP.Seq, p.TCP.Flags, len(p.Payload))
	case p.UDP != nil:
		return fmt.Sprintf("udp %s:%d->%s:%d len=%d",
			p.IP.Src, p.UDP.SrcPort, p.IP.Dst, p.UDP.DstPort, len(p.Payload))
	default:
		return fmt.Sprintf("ip %s->%s proto=%d len=%d", p.IP.Src, p.IP.Dst, p.IP.Proto, len(p.Payload))
	}
}

// NewUDP builds a UDP packet, header and packet in one allocation.
func NewUDP(src, dst Addr, srcPort, dstPort uint16, payload []byte) *Packet {
	b := &struct {
		pkt Packet
		udp UDPHeader
	}{
		pkt: Packet{IP: IPHeader{Src: src, Dst: dst, Proto: ProtoUDP, TTL: 64}, Payload: payload},
		udp: UDPHeader{SrcPort: srcPort, DstPort: dstPort},
	}
	b.pkt.UDP = &b.udp
	return &b.pkt
}

// NewTCP builds a TCP packet, header and packet in one allocation.
func NewTCP(src, dst Addr, srcPort, dstPort uint16, seq uint32, flags uint8, payload []byte) *Packet {
	b := &struct {
		pkt Packet
		tcp TCPHeader
	}{
		pkt: Packet{IP: IPHeader{Src: src, Dst: dst, Proto: ProtoTCP, TTL: 64}, Payload: payload},
		tcp: TCPHeader{SrcPort: srcPort, DstPort: dstPort, Seq: seq, Flags: flags, Window: 65535},
	}
	b.pkt.TCP = &b.tcp
	return &b.pkt
}
