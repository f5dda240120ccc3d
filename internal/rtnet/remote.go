// Cross-host links: one direction of a duplex rtnet link whose peer
// lives in ANOTHER process — usually another machine. This is what
// turns a set of planpd daemons into the paper's extensible network
// for real: each daemon owns its local nodes and the outbound halves
// of its links; packets cross hosts as UDP datagrams carrying the
// substrate wire codec, fronted by a handshake.
//
// A remote link is the datagram endpoint of datagram.go plus a session:
// this file holds only what the session adds — the frame codec, the
// handshake, liveness, the admission check, the goodbye.
//
// # Framing
//
// Every datagram starts with a one-byte frame type. Data frames carry
// one wire-encoded packet (substrate.AppendWire); control frames carry
// the handshake and liveness machinery:
//
//	HELLO/WELCOME  version(2) session(8) addr(4) bandwidth(8)
//	               node(len-str) link(len-str)
//	REJECT         code(1) version(2) msg(len-str)
//	PING/PONG      session(8)
//	BYE            (empty)
//
// A frame that does not parse is counted under rtnet.codec_rejected —
// never silently dropped.
//
// # Handshake
//
// Both endpoints send HELLO until they hear the peer. A HELLO (or
// WELCOME) is validated against the local endpoint's expectations:
// protocol version, peer node identity (name and address), link name,
// and link parameters. A mismatch answers with a structured REJECT
// frame — the rejected side surfaces it via LastReject and the
// "rejected:<reason>" link event, so a version-skewed daemon fails
// loudly instead of blackholing. A valid HELLO is answered with
// WELCOME and brings the link up.
//
// Each endpoint owns a random session nonce, minted at construction.
// A HELLO carrying a NEW session from an already-known peer is a peer
// restart: the link comes back up as "up:reconnect" and the stale
// session's liveness state is discarded.
//
// # Liveness
//
// While up, each endpoint PINGs every ProbeInterval and expects to
// hear SOMETHING (pong, data, ping) within ProbeTimeout; silence marks
// the link down ("down:probe-timeout") and falls back to HELLO
// probing, which is also how the link heals. A gracefully shutting
// down daemon sends BYE first, so its peers log "down:goodbye"
// immediately instead of waiting out a probe timeout.
package rtnet

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/substrate"
)

// RemoteProtoVersion is the cross-host link protocol version carried
// in every HELLO/WELCOME. Endpoints reject peers speaking any other
// version — the wire codec has no compatibility story across versions,
// so refusing loudly beats corrupting silently.
const RemoteProtoVersion = 1

// Frame types (first byte of every remote-link datagram).
const (
	frameData    byte = 0x01
	frameHello   byte = 0x02
	frameWelcome byte = 0x03
	frameReject  byte = 0x04
	framePing    byte = 0x05
	framePong    byte = 0x06
	frameBye     byte = 0x07
)

// Structured rejection codes (RejectError.Code).
const (
	// RejectVersion: the peer speaks a different RemoteProtoVersion.
	RejectVersion byte = 1
	// RejectIdentity: the peer's claimed node name/address is not the
	// one this endpoint is configured to link with — including the
	// duplicate-identity case (a peer claiming OUR name).
	RejectIdentity byte = 2
	// RejectLink: the peer addresses a different link name.
	RejectLink byte = 3
	// RejectParams: link parameters (bandwidth) disagree between the
	// two ends' configurations.
	RejectParams byte = 4
)

// RejectError is the structured handshake rejection one endpoint sent
// the other. The rejected side retains the most recent one (LastReject)
// and emits it as a "rejected:<reason>" link event.
type RejectError struct {
	Code        byte   `json:"code"`
	PeerVersion uint16 `json:"peer_version"`
	Msg         string `json:"msg"`
}

// Error renders the rejection.
func (e *RejectError) Error() string {
	return fmt.Sprintf("rtnet: handshake rejected by peer (code %d, peer version %d): %s",
		e.Code, e.PeerVersion, e.Msg)
}

// RemoteSpec configures one endpoint of a cross-host link. The two
// ends must agree on LinkName and BandwidthBps and each must name the
// other in PeerNode/PeerAddr; Listen/Peer mirror each other.
type RemoteSpec struct {
	// LinkName is the link's topology-wide name ("gateway-server0"),
	// identical on both ends; the handshake enforces it.
	LinkName string
	// Listen is the local UDP endpoint ("127.0.0.1:9701", ":9701").
	Listen string
	// Peer is the remote endpoint's UDP address ("198.51.100.7:9701").
	Peer string
	// PeerNode and PeerAddr identify the node expected at the far end;
	// a HELLO claiming anything else is rejected.
	PeerNode string
	PeerAddr substrate.Addr
	// BandwidthBps is the link's nominal capacity; both ends must
	// configure the same value (the handshake enforces it).
	BandwidthBps int64
	// ProbeInterval is the liveness cadence (default 500ms);
	// ProbeTimeout the silence that marks the link down (default 4×
	// interval).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
}

func (s *RemoteSpec) defaults() {
	if s.ProbeInterval <= 0 {
		s.ProbeInterval = 500 * time.Millisecond
	}
	if s.ProbeTimeout <= 0 {
		s.ProbeTimeout = 4 * s.ProbeInterval
	}
}

// Link states (RemoteIface.State).
const (
	// LinkConnecting: no valid handshake yet — HELLOs are going out.
	LinkConnecting = "connecting"
	// LinkUp: handshake complete, liveness healthy, data flows.
	LinkUp = "up"
	// LinkDown: the peer said goodbye, went silent, or rejected us;
	// HELLO probing continues, so the state can recover to up.
	LinkDown = "down"
)

// RemoteIface is the local endpoint of a cross-host link: the outbound
// direction of the local node's attachment. It is an endpoint over the
// datagram transport (substrate.Iface, substrate.FaultPort — chaos
// degrades the outbound direction, the natural grain of a link whose
// other half lives in another process) plus the session that decides
// when the link is up.
type RemoteIface struct {
	dgram
	spec    RemoteSpec
	session uint64
	done    chan struct{}

	mu          sync.Mutex // guards the session state below
	state       string
	peerSession uint64
	lastHeard   time.Time
	lastReject  *RejectError
	closed      bool

	upGauge     *obs.Gauge
	rejectsSent *obs.Counter
	rejectsRecv *obs.Counter
	reconnects  *obs.Counter
	goodbyes    *obs.Counter
}

// NewRemoteLink attaches local to a cross-host link endpoint described
// by spec. The socket binds immediately and the handshake begins; the
// returned interface reports LinkConnecting until the peer answers.
// The endpoint is owned by the network and shut down (with a BYE) by
// its Close.
func NewRemoteLink(nw *Net, local *Node, spec RemoteSpec) (*RemoteIface, error) {
	spec.defaults()
	switch {
	case spec.LinkName == "" || len(spec.LinkName) > 255:
		return nil, fmt.Errorf("rtnet: remote link needs a LinkName of 1..255 bytes")
	case spec.PeerNode == "" || len(spec.PeerNode) > 255:
		return nil, fmt.Errorf("rtnet: remote link %s needs a PeerNode of 1..255 bytes", spec.LinkName)
	case len(local.Hostname()) > 255:
		return nil, fmt.Errorf("rtnet: node name %q too long for the link handshake", local.Hostname())
	case spec.PeerAddr == 0:
		return nil, fmt.Errorf("rtnet: remote link %s needs the peer's node address", spec.LinkName)
	}
	laddr, err := net.ResolveUDPAddr("udp", spec.Listen)
	if err != nil {
		return nil, fmt.Errorf("rtnet: remote link %s listen %q: %w", spec.LinkName, spec.Listen, err)
	}
	paddr, err := net.ResolveUDPAddr("udp", spec.Peer)
	if err != nil {
		return nil, fmt.Errorf("rtnet: remote link %s peer %q: %w", spec.LinkName, spec.Peer, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("rtnet: remote link %s: %w", spec.LinkName, err)
	}

	reg := nw.reg
	i := &RemoteIface{
		spec:    spec,
		session: rand.Uint64(),
		done:    make(chan struct{}),
		state:   LinkConnecting,

		upGauge:     reg.Gauge("link." + local.Hostname() + ":" + spec.PeerNode + ".up"),
		rejectsSent: reg.Counter("rtnet.handshake_rejected"),
		rejectsRecv: reg.Counter("rtnet.rejected_by_peer"),
		reconnects:  reg.Counter("rtnet.reconnects"),
		goodbyes:    reg.Counter("rtnet.goodbyes"),
	}
	i.sess = i
	nw.register(i)
	i.open(nw, local, spec.PeerNode, spec.BandwidthBps, i, conn, paddr)
	nw.wg.Add(1)
	go i.maintain(nw)
	return i, nil
}

// LocalAddr returns the bound UDP endpoint (useful when Listen used
// port 0).
func (i *RemoteIface) LocalAddr() *net.UDPAddr { return i.conn.LocalAddr().(*net.UDPAddr) }

// LinkName returns the link's topology-wide name.
func (i *RemoteIface) LinkName() string { return i.spec.LinkName }

// PeerNode returns the configured peer node name.
func (i *RemoteIface) PeerNode() string { return i.spec.PeerNode }

// Label returns the endpoint's "<local>:<peer>" metric/event key.
func (i *RemoteIface) Label() string { return i.label }

// State returns the link state: LinkConnecting, LinkUp, or LinkDown.
func (i *RemoteIface) State() string {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.state
}

// Up reports whether the handshake is complete and liveness healthy.
func (i *RemoteIface) Up() bool { return i.State() == LinkUp }

// LastReject returns the most recent structured rejection the peer
// sent us, or nil.
func (i *RemoteIface) LastReject() *RejectError {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.lastReject
}

// ---------------------------------------------------------------------------
// Frame codec

// appendPeerFrame appends a HELLO or WELCOME frame.
func appendPeerFrame(dst []byte, typ byte, session uint64, node string, addr substrate.Addr, link string, bw int64) []byte {
	dst = append(dst, typ)
	dst = binary.BigEndian.AppendUint16(dst, RemoteProtoVersion)
	dst = binary.BigEndian.AppendUint64(dst, session)
	dst = binary.BigEndian.AppendUint32(dst, uint32(addr))
	dst = binary.BigEndian.AppendUint64(dst, uint64(bw))
	dst = append(dst, byte(len(node)))
	dst = append(dst, node...)
	dst = append(dst, byte(len(link)))
	dst = append(dst, link...)
	return dst
}

func appendRejectFrame(dst []byte, code byte, msg string) []byte {
	if len(msg) > 255 {
		msg = msg[:255]
	}
	dst = append(dst, frameReject, code)
	dst = binary.BigEndian.AppendUint16(dst, RemoteProtoVersion)
	dst = append(dst, byte(len(msg)))
	dst = append(dst, msg...)
	return dst
}

// remoteHello is a decoded HELLO/WELCOME payload.
type remoteHello struct {
	version uint16
	session uint64
	addr    substrate.Addr
	bw      int64
	node    string
	link    string
}

// remoteFrame is one decoded datagram. Exactly one of hello/reject/
// data is meaningful, keyed by typ; data aliases the receive buffer
// and must be parsed (ParseWire copies) before the next read.
type remoteFrame struct {
	typ     byte
	hello   remoteHello // frameHello, frameWelcome
	reject  RejectError // frameReject
	session uint64      // framePing, framePong
	data    []byte      // frameData
}

// errFrame distinguishes framing rejections (counted under
// rtnet.codec_rejected) in one place.
func errFrame(format string, args ...any) error {
	return fmt.Errorf("rtnet: remote frame: "+format, args...)
}

// parseRemoteFrame decodes one remote-link datagram. It never panics
// on hostile input (fuzzed) and rejects trailing garbage.
func parseRemoteFrame(b []byte) (remoteFrame, error) {
	var f remoteFrame
	if len(b) == 0 {
		return f, errFrame("empty datagram")
	}
	if len(b) > maxDatagram {
		return f, errFrame("oversized datagram (%d bytes)", len(b))
	}
	f.typ = b[0]
	b = b[1:]
	switch f.typ {
	case frameData:
		if len(b) == 0 {
			return f, errFrame("data frame with no packet")
		}
		f.data = b
		return f, nil
	case frameHello, frameWelcome:
		if len(b) < 2+8+4+8+1 {
			return f, errFrame("truncated handshake frame (%d bytes)", len(b))
		}
		f.hello.version = binary.BigEndian.Uint16(b[0:2])
		f.hello.session = binary.BigEndian.Uint64(b[2:10])
		f.hello.addr = substrate.Addr(binary.BigEndian.Uint32(b[10:14]))
		f.hello.bw = int64(binary.BigEndian.Uint64(b[14:22]))
		b = b[22:]
		var ok bool
		if f.hello.node, b, ok = takeString(b); !ok {
			return f, errFrame("truncated node name")
		}
		if f.hello.link, b, ok = takeString(b); !ok {
			return f, errFrame("truncated link name")
		}
		if len(b) != 0 {
			return f, errFrame("%d trailing bytes after handshake frame", len(b))
		}
		if f.hello.bw < 0 {
			return f, errFrame("negative bandwidth")
		}
		return f, nil
	case frameReject:
		if len(b) < 1+2+1 {
			return f, errFrame("truncated reject frame (%d bytes)", len(b))
		}
		f.reject.Code = b[0]
		f.reject.PeerVersion = binary.BigEndian.Uint16(b[1:3])
		var ok bool
		if f.reject.Msg, b, ok = takeString(b[3:]); !ok {
			return f, errFrame("truncated reject message")
		}
		if len(b) != 0 {
			return f, errFrame("%d trailing bytes after reject frame", len(b))
		}
		return f, nil
	case framePing, framePong:
		if len(b) != 8 {
			return f, errFrame("ping/pong frame must carry an 8-byte session, got %d bytes", len(b))
		}
		f.session = binary.BigEndian.Uint64(b)
		return f, nil
	case frameBye:
		if len(b) != 0 {
			return f, errFrame("%d trailing bytes after bye frame", len(b))
		}
		return f, nil
	default:
		return f, errFrame("unknown frame type %#x", f.typ)
	}
}

// takeString pops a length-prefixed string.
func takeString(b []byte) (s string, rest []byte, ok bool) {
	if len(b) < 1 {
		return "", b, false
	}
	n := int(b[0])
	if len(b) < 1+n {
		return "", b, false
	}
	return string(b[1 : 1+n]), b[1+n:], true
}

// ---------------------------------------------------------------------------
// Control plane: handshake, liveness, shutdown

// writeFrame sends one control frame to the peer endpoint; write
// errors are unreported (the liveness machinery is what notices a dead
// peer).
func (i *RemoteIface) writeFrame(frame []byte) {
	i.conn.WriteToUDP(frame, i.peerUDP)
}

func (i *RemoteIface) sendHello(typ byte) {
	i.writeFrame(appendPeerFrame(nil, typ, i.session,
		i.node.Hostname(), i.node.Address(), i.spec.LinkName, i.spec.BandwidthBps))
}

// maintain is the endpoint's liveness loop: HELLO while the link is
// forming (or broken), PING while it is up, probe-timeout detection.
func (i *RemoteIface) maintain(nw *Net) {
	defer nw.wg.Done()
	tick := time.NewTicker(i.spec.ProbeInterval)
	defer tick.Stop()
	i.sendHello(frameHello)
	for {
		select {
		case <-i.done:
			return
		case <-nw.quit:
			return
		case <-tick.C:
		}
		i.mu.Lock()
		state, lastHeard := i.state, i.lastHeard
		if state == LinkUp && time.Since(lastHeard) > i.spec.ProbeTimeout {
			i.setStateLocked(LinkDown, "down:probe-timeout")
			state = LinkDown
		}
		i.mu.Unlock()
		if state == LinkUp {
			var buf [9]byte
			buf[0] = framePing
			binary.BigEndian.PutUint64(buf[1:], i.session)
			i.writeFrame(buf[:])
		} else {
			i.sendHello(frameHello)
		}
	}
}

// handle runs one decoded frame from the socket through the session
// and reports whether it is a data frame the link admits (the datagram
// reader then enqueues its packet). Control frames drive the link state
// machine. Data from a peer we have no live handshake with is dropped
// (counted): after a local restart the peer must re-HELLO before its
// packets are trusted.
func (i *RemoteIface) handle(f remoteFrame, from *net.UDPAddr) bool {
	if !udpAddrEqual(from, i.peerUDP) {
		// A frame from an endpoint this link is not configured to
		// talk to. HELLOs get a structured refusal (the sender is
		// probably a misconfigured daemon that deserves to know);
		// everything else is counted and ignored.
		if f.typ == frameHello {
			i.rejectsSent.Inc()
			i.conn.WriteToUDP(appendRejectFrame(nil, RejectIdentity,
				fmt.Sprintf("link %s: unexpected peer endpoint %s", i.spec.LinkName, from)), from)
		} else {
			i.node.net.reg.Counter("rtnet.unknown_peer").Inc()
		}
		return false
	}
	switch f.typ {
	case frameHello:
		i.onHello(f.hello, true)
	case frameWelcome:
		i.onHello(f.hello, false)
	case frameReject:
		rej := f.reject
		i.rejectsRecv.Inc()
		i.mu.Lock()
		i.lastReject = &rej
		i.setStateLocked(LinkDown, "rejected:"+rej.Msg)
		i.mu.Unlock()
	case framePing:
		i.touch()
		var out [9]byte
		out[0] = framePong
		binary.BigEndian.PutUint64(out[1:], i.session)
		i.writeFrame(out[:])
	case framePong:
		i.touch()
	case frameBye:
		i.goodbyes.Inc()
		i.mu.Lock()
		if i.state != LinkDown {
			i.setStateLocked(LinkDown, "down:goodbye")
		}
		i.mu.Unlock()
	case frameData:
		i.mu.Lock()
		up := i.state == LinkUp
		if up {
			i.lastHeard = time.Now()
		}
		i.mu.Unlock()
		if !up {
			substrate.Lost(i, nil, "no-handshake")
		}
		return up
	}
	return false
}

// touch records proof of life from the peer.
func (i *RemoteIface) touch() {
	i.mu.Lock()
	i.lastHeard = time.Now()
	i.mu.Unlock()
}

// validateHello checks a HELLO/WELCOME against this endpoint's
// configuration, returning a structured rejection or nil.
func (i *RemoteIface) validateHello(h remoteHello) *RejectError {
	switch {
	case h.version != RemoteProtoVersion:
		return &RejectError{Code: RejectVersion, PeerVersion: h.version,
			Msg: fmt.Sprintf("protocol version %d, this endpoint speaks %d", h.version, RemoteProtoVersion)}
	case h.node == i.node.Hostname():
		return &RejectError{Code: RejectIdentity, PeerVersion: h.version,
			Msg: fmt.Sprintf("duplicate node identity %q (the peer claims this endpoint's own name)", h.node)}
	case h.node != i.spec.PeerNode || h.addr != i.spec.PeerAddr:
		return &RejectError{Code: RejectIdentity, PeerVersion: h.version,
			Msg: fmt.Sprintf("peer identity %s/%s, this endpoint links with %s/%s",
				h.node, h.addr, i.spec.PeerNode, i.spec.PeerAddr)}
	case h.link != i.spec.LinkName:
		return &RejectError{Code: RejectLink, PeerVersion: h.version,
			Msg: fmt.Sprintf("link name %q, this endpoint is %q", h.link, i.spec.LinkName)}
	case h.bw != i.spec.BandwidthBps:
		return &RejectError{Code: RejectParams, PeerVersion: h.version,
			Msg: fmt.Sprintf("bandwidth %d bps, this endpoint is configured for %d", h.bw, i.spec.BandwidthBps)}
	}
	return nil
}

// onHello handles a HELLO (answer expected) or WELCOME (no answer)
// from the configured peer endpoint.
func (i *RemoteIface) onHello(h remoteHello, answer bool) {
	if rej := i.validateHello(h); rej != nil {
		i.rejectsSent.Inc()
		i.emit(obs.KindLink, "rejected-peer:"+rej.Msg)
		i.writeFrame(appendRejectFrame(nil, rej.Code, rej.Msg))
		return
	}
	i.mu.Lock()
	prev := i.peerSession
	i.peerSession = h.session
	i.lastHeard = time.Now()
	i.lastReject = nil
	reconnect := prev != 0 && prev != h.session
	if i.state != LinkUp {
		detail := "up"
		if reconnect {
			detail = "up:reconnect"
		}
		i.setStateLocked(LinkUp, detail)
	} else if reconnect {
		// The peer restarted between our probes: a new daemon
		// incarnation took the session over without us ever seeing the
		// link down.
		i.setStateLocked(LinkUp, "up:reconnect")
	}
	i.mu.Unlock()
	if reconnect {
		i.reconnects.Inc()
	}
	if answer {
		i.sendHello(frameWelcome)
	}
}

// setStateLocked transitions the link state, keeping the gauge and the
// event stream in step. Callers hold i.mu; the event publish is
// deferred out of the lock by obs contract (bus subscribers must be
// concurrency-safe on rtnet anyway, and Publish itself does not block
// on i.mu).
func (i *RemoteIface) setStateLocked(state, detail string) {
	i.state = state
	if state == LinkUp {
		i.upGauge.Set(1)
	} else {
		i.upGauge.Set(0)
	}
	i.emit(obs.KindLink, detail)
}

func (i *RemoteIface) emit(kind obs.Kind, detail string) {
	if bus := i.node.net.bus; bus.Active() {
		bus.Publish(obs.Event{
			Kind: kind, At: i.node.net.Now(), Node: i.label, Detail: detail,
		})
	}
}

// Close sends the goodbye frame and shuts the endpoint down (io.Closer,
// called by the owning network's Close). Idempotent.
func (i *RemoteIface) Close() error {
	i.mu.Lock()
	if i.closed {
		i.mu.Unlock()
		return nil
	}
	i.closed = true
	if i.state == LinkUp {
		i.setStateLocked(LinkDown, "down:closed")
	}
	i.mu.Unlock()
	close(i.done)
	i.writeFrame([]byte{frameBye})
	return i.conn.Close()
}

func udpAddrEqual(a, b *net.UDPAddr) bool {
	return a.Port == b.Port && a.IP.Equal(b.IP)
}
