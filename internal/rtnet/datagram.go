// Datagram links: an endpoint whose transport is a UDP socket. Send marshals
// the packet with the substrate wire codec behind a one-byte frame type
// and writes it to the peer's socket; a reader goroutine decodes what
// arrives and enqueues it on the owning node. The loopback pair
// (NewUDPLink — both ends in this process, the transport cmd/planpd
// demos live ASP downloads over when in-process channels would be
// cheating) is this endpoint bare; a cross-host link (remote.go) is the
// same endpoint plus a session.
package rtnet

import (
	"fmt"
	"net"
	"sync"

	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/substrate"
)

// maxDatagram bounds one framed, wire-encoded packet to what a single
// UDP datagram can carry; larger packets are dropped (rtnet does not
// fragment).
const maxDatagram = 65000

// dgram is an endpoint over a UDP socket.
type dgram struct {
	endpoint
	in      substrate.Iface // the exported endpoint wrapping this one: what received packets arrive on
	sess    *RemoteIface    // nil on the loopback pair: no handshake, always admitted
	conn    *net.UDPConn    // local endpoint (reads arrive here)
	peerUDP *net.UDPAddr    // where carry writes

	wmu sync.Mutex // guards buf across the serialize-and-write
	buf []byte

	codecRejects *obs.Counter
}

// open wires the endpoint and starts its reader.
func (d *dgram) open(nw *Net, node *Node, peer string, bandwidthBps int64, in substrate.Iface, conn *net.UDPConn, peerUDP *net.UDPAddr) {
	d.setup(nw, node, peer, bandwidthBps, d)
	d.in, d.conn, d.peerUDP = in, conn, peerUDP
	d.codecRejects = nw.reg.Counter("rtnet.codec_rejected")
	node.AddIface(in)
	nw.wg.Add(1)
	go d.read(nw)
}

// retain: the caller of Send keeps its packet on a datagram link and
// may rewrite headers or payload at once, so what outlives the call is
// a deep copy.
func (d *dgram) retain(pkt *substrate.Packet) *substrate.Packet { return pkt.CloneMut() }

// carry serializes pkt into the scratch buffer and writes the
// datagram, if the session (if any) admits data. This is the only
// socket write of a data frame, so a failed write is a counted
// "socket" drop on every datagram link, delayed copies included.
func (d *dgram) carry(pkt *substrate.Packet) string {
	if d.sess != nil && !d.sess.Up() {
		return "link-down"
	}
	d.wmu.Lock()
	defer d.wmu.Unlock()
	wire, err := substrate.AppendWire(append(d.buf[:0], frameData), pkt)
	if err != nil || len(wire) > maxDatagram {
		return "oversize"
	}
	d.buf = wire[:0]
	if _, err := d.conn.WriteToUDP(wire, d.peerUDP); err != nil {
		return "socket"
	}
	return ""
}

// decodeDatagram is the one way a received datagram becomes a frame
// and, for a data frame, its packet. It never panics on hostile input
// (fuzzed). The parse builds a fresh private packet — the reader holds
// the only reference — so it is returned owned: the node may mutate it
// in place.
func decodeDatagram(b []byte) (remoteFrame, *substrate.Packet, error) {
	f, err := parseRemoteFrame(b)
	if err != nil || f.typ != frameData {
		return f, nil, err
	}
	pkt, err := substrate.ParseWire(f.data)
	if err != nil {
		return f, nil, err
	}
	return f, pkt.Own(), nil
}

// read is the endpoint's receive loop: decode datagrams off the socket,
// let the session (if any) consume control frames and refuse data it
// has no handshake for, and enqueue the rest on the owning node. It
// exits when the socket is closed (network Close).
func (d *dgram) read(nw *Net) {
	defer nw.wg.Done()
	buf := make([]byte, maxDatagram+1)
	for {
		n, from, err := d.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		f, pkt, err := decodeDatagram(buf[:n])
		switch {
		case err != nil, d.sess == nil && pkt == nil:
			// Garbage, truncated, larger than anything we transmit — or a
			// control frame on a link with no session to answer it.
			// Counted under its own metric so wire-format trouble is
			// distinguishable from congestion drops.
			d.codecRejects.Inc()
			substrate.Lost(d, nil, "codec-reject")
		case d.sess != nil && !d.sess.handle(f, from):
			// The session consumed or refused it.
		case !d.node.enqueue(pkt, d.in, nil):
			substrate.Lost(d, pkt, "queue")
		}
	}
}

// UDPIface is one direction of a loopback-UDP duplex link: an endpoint
// over the datagram transport, with no session.
type UDPIface struct{ dgram }

// NewUDPLink connects a and b with a duplex link over a pair of
// loopback UDP sockets. The sockets are owned by the network and closed
// by Close. Kernel-level datagram loss (socket buffer overflow) shows
// up as ordinary packet loss, which is the point: this link is real.
func NewUDPLink(nw *Net, a, b *Node, bandwidthBps int64) (*UDPIface, *UDPIface, error) {
	connA, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, nil, fmt.Errorf("rtnet: udp link endpoint: %w", err)
	}
	connB, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		connA.Close()
		return nil, nil, fmt.Errorf("rtnet: udp link endpoint: %w", err)
	}
	nw.register(connA)
	nw.register(connB)
	ab, ba := &UDPIface{}, &UDPIface{}
	ab.open(nw, a, b.Hostname(), bandwidthBps, ab, connA, connB.LocalAddr().(*net.UDPAddr))
	ba.open(nw, b, a.Hostname(), bandwidthBps, ba, connB, connA.LocalAddr().(*net.UDPAddr))
	return ab, ba, nil
}
