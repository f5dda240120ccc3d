// Package mpeg implements the §3.3 experiment: a point-to-point MPEG
// video server (the OGI player stand-in), clients, and the monitor /
// capture ASP deployment that turns one server connection into
// multipoint delivery on a shared segment.
//
// Wire protocol (shared with asp/mpeg_monitor.planp and
// asp/mpeg_client.planp):
//
//	request   TCP  client -> server:7000   'R' stream:int32
//	setup     TCP  server:7000 -> client   'S' stream:int32 setup:blob
//	teardown  TCP  client -> server:7000   'F' stream:int32
//	data      UDP  server:7000 -> client:7001  'D' frame:byte seq:int32 payload
//	query     UDP  client -> monitor:7002  'Q' stream:int32
//	reply     tagged channel "mreply"      primary:host stream:int32 setup:blob
package mpeg

import (
	"sync"
	"time"

	"planp.dev/planp/internal/substrate"
)

// Protocol ports (shared with the ASP sources).
const (
	ServerPort = 7000
	DataPort   = 7001
	QueryPort  = 7002
)

// Message tags.
const (
	TagRequest  = 'R'
	TagSetup    = 'S'
	TagTeardown = 'F'
	TagData     = 'D'
	TagQuery    = 'Q'
)

// Stream parameters: a 1.5 Mb/s MPEG-1 stream at 25 frames/s with a
// 12-frame GOP (IBBPBBPBBPBB).
const (
	FrameInterval = 40 * time.Millisecond
	GOPPattern    = "IBBPBBPBBPBB"
	IFrameBytes   = 12000
	PFrameBytes   = 5000
	BFrameBytes   = 2200
)

// frameSize returns the byte size for the GOP position.
func frameSize(pos int) (byte, int) {
	switch GOPPattern[pos%len(GOPPattern)] {
	case 'I':
		return 'I', IFrameBytes
	case 'P':
		return 'P', PFrameBytes
	default:
		return 'B', BFrameBytes
	}
}

// putU32 appends a big-endian uint32.
func putU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// u32 reads a big-endian uint32 at offset i (caller checks bounds).
func u32(b []byte, i int) uint32 {
	return uint32(b[i])<<24 | uint32(b[i+1])<<16 | uint32(b[i+2])<<8 | uint32(b[i+3])
}

// controlMsg builds 'R'/'F'/'Q' payloads.
func controlMsg(tag byte, stream uint32) []byte {
	return putU32([]byte{tag}, stream)
}

// setupMsg builds the 'S' payload.
func setupMsg(stream uint32, setup []byte) []byte {
	return append(putU32([]byte{TagSetup}, stream), setup...)
}

// dataMsg builds a 'D' payload.
func dataMsg(stream uint32, frame byte, seq uint32, size int) []byte {
	b := putU32([]byte{TagData}, stream)
	b = append(b, frame)
	b = putU32(b, seq)
	return append(b, make([]byte, size)...)
}

// connection is one active point-to-point stream at the server.
type connection struct {
	stream  uint32
	client  substrate.Addr
	port    uint16
	seq     uint32
	pos     int
	stopped bool
}

// Server is the unmodified point-to-point video server: one stream per
// requesting client, no awareness of sharing. It runs on either
// substrate backend; on rtnet, control handlers and frame ticks arrive
// on different goroutines, so all mutable state is behind mu.
type Server struct {
	Node substrate.Node

	mu    sync.Mutex
	conns map[uint32]*connection // keyed by stream; one viewer each

	// Connections counts every connection ever opened — the server
	// load figure the experiment compares (§3.3: with the ASPs, it
	// stays at 1 regardless of the number of viewers). Read the fields
	// directly only after the simulation has stopped; concurrent
	// readers (rtnet) must use Stats.
	Connections int64
	FramesSent  int64
	BytesSent   int64
}

// NewServer binds the video server on node.
func NewServer(node substrate.Node) *Server {
	s := &Server{Node: node, conns: map[uint32]*connection{}}
	node.BindTCP(ServerPort, s.onControl)
	return s
}

// Stats reports (connections, frames, bytes) under the lock — safe
// while the server is live on the real-time backend.
func (s *Server) Stats() (conns, frames, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Connections, s.FramesSent, s.BytesSent
}

func (s *Server) onControl(pkt *substrate.Packet) {
	b := pkt.Payload
	if len(b) < 5 || pkt.TCP == nil {
		return
	}
	stream := u32(b, 1)
	switch b[0] {
	case TagRequest:
		// The point-to-point server serves each request with its own
		// connection; a second request for the same stream replaces
		// the first (the experiment never does this — sharing is the
		// ASPs' job, invisible to the server).
		conn := &connection{stream: stream, client: pkt.IP.Src, port: pkt.TCP.SrcPort}
		s.mu.Lock()
		s.conns[stream] = conn
		s.Connections++
		s.mu.Unlock()
		// Setup response: decoder initialization blob (opaque bytes
		// derived from the stream id).
		setup := []byte{byte(stream), 0xBE, 0xEF, byte(stream >> 8)}
		resp := substrate.NewTCP(s.Node.Address(), pkt.IP.Src, ServerPort, pkt.TCP.SrcPort, 0, substrate.FlagAck, setupMsg(stream, setup))
		s.Node.Send(resp.Own())
		s.stream(conn)
	case TagTeardown:
		s.mu.Lock()
		if conn, ok := s.conns[stream]; ok && conn.client == pkt.IP.Src {
			conn.stopped = true
			delete(s.conns, stream)
		}
		s.mu.Unlock()
	}
}

// stream emits frames at the frame rate until torn down.
func (s *Server) stream(conn *connection) {
	var tick func()
	tick = func() {
		s.mu.Lock()
		if conn.stopped {
			s.mu.Unlock()
			return
		}
		frame, size := frameSize(conn.pos)
		conn.pos++
		conn.seq++
		stream, client, seq := conn.stream, conn.client, conn.seq
		s.FramesSent++
		s.BytesSent += int64(size)
		s.mu.Unlock()
		pkt := substrate.NewUDP(s.Node.Address(), client, ServerPort, DataPort, dataMsg(stream, frame, seq, size))
		s.Node.Send(pkt.Own())
		s.Node.Env().After(FrameInterval, tick)
	}
	s.Node.Env().After(FrameInterval, tick)
}

// Client is the (slightly modified, as in the paper) video player: it
// first asks the monitor whether the stream is already on the segment,
// then either consumes captured traffic or opens its own connection.
type Client struct {
	Node    substrate.Node
	Server  substrate.Addr
	Monitor substrate.Addr
	Stream  uint32

	// UseMonitor mirrors the paper's client modification; false gives
	// the baseline client that always connects directly.
	UseMonitor bool

	// mu guards the playback state below: on rtnet the data, reply,
	// and control handlers run on the node's delivery goroutine while
	// the fallback timer fires on a timer goroutine. Read the fields
	// directly only after the simulation has stopped; concurrent
	// readers must use Stats.
	mu          sync.Mutex
	Frames      int64
	Bytes       int64
	IFrames     int64
	Setup       []byte
	SharedWith  substrate.Addr // primary client when viewing a shared stream
	Connected   bool           // opened its own server connection
	QueryAnswer bool
	ctrlPort    uint16
}

// NewClient binds a player on node.
func NewClient(node substrate.Node, server, monitor substrate.Addr, stream uint32, useMonitor bool) *Client {
	c := &Client{Node: node, Server: server, Monitor: monitor, Stream: stream,
		UseMonitor: useMonitor, ctrlPort: uint16(20000 + stream%1000)}
	node.BindUDP(DataPort, c.onData)
	node.BindUDP(QueryPort, c.onReply)
	node.BindTCP(c.ctrlPort, c.onControl)
	return c
}

// Stats reports (frames, bytes, iframes) under the lock — safe while
// the player is live on the real-time backend.
func (c *Client) Stats() (frames, bytes, iframes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Frames, c.Bytes, c.IFrames
}

// Start begins playback: query the monitor (if enabled) or connect.
func (c *Client) Start() {
	if c.UseMonitor {
		q := substrate.NewUDP(c.Node.Address(), c.Monitor, QueryPort, QueryPort, controlMsg(TagQuery, c.Stream))
		c.Node.Send(q.Own())
		// If the monitor does not answer promptly (no monitor on the
		// segment), fall back to a direct connection.
		c.Node.Env().After(500*time.Millisecond, func() {
			c.mu.Lock()
			fallback := !c.QueryAnswer && !c.Connected
			if fallback {
				c.Connected = true
			}
			c.mu.Unlock()
			if fallback {
				c.connect()
			}
		})
		return
	}
	c.mu.Lock()
	c.Connected = true
	c.mu.Unlock()
	c.connect()
}

// connect sends the stream request; the caller has already marked the
// client Connected (the flag and the send are split so the lock is not
// held across Send).
func (c *Client) connect() {
	req := substrate.NewTCP(c.Node.Address(), c.Server, c.ctrlPort, ServerPort, 0, substrate.FlagSyn|substrate.FlagPsh, controlMsg(TagRequest, c.Stream))
	c.Node.Send(req.Own())
}

// Teardown closes the client's own connection (no-op for shared
// viewers).
func (c *Client) Teardown() {
	c.mu.Lock()
	connected := c.Connected
	c.mu.Unlock()
	if !connected {
		return
	}
	fin := substrate.NewTCP(c.Node.Address(), c.Server, c.ctrlPort, ServerPort, 1, substrate.FlagFin|substrate.FlagPsh, controlMsg(TagTeardown, c.Stream))
	c.Node.Send(fin.Own())
}

// onControl handles the server's setup response.
func (c *Client) onControl(pkt *substrate.Packet) {
	b := pkt.Payload
	if len(b) >= 5 && b[0] == TagSetup && u32(b, 1) == c.Stream {
		c.mu.Lock()
		c.Setup = append([]byte(nil), b[5:]...)
		c.mu.Unlock()
	}
}

// onData consumes stream data — whether addressed to us or captured off
// the segment by the client ASP.
func (c *Client) onData(pkt *substrate.Packet) {
	b := pkt.Payload
	if len(b) < 10 || b[0] != TagData || u32(b, 1) != c.Stream {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Without a setup blob the decoder cannot start.
	if c.Setup == nil {
		return
	}
	c.Frames++
	c.Bytes += int64(len(b) - 10)
	if b[5] == 'I' {
		c.IFrames++
	}
}

// onReply handles the monitor's answer (delivered by the mreply channel
// of the client ASP: payload host:4 stream:4 len-prefixed? — the reply
// arrives as the raw encoded packet of the ASP's tuple).
func (c *Client) onReply(pkt *substrate.Packet) {
	// The capture ASP runs promiscuously and also delivers replies
	// addressed to other clients on the segment; only ours counts.
	if pkt.IP.Dst != c.Node.Address() {
		return
	}
	b := pkt.Payload
	// Encoded tuple payload: host(4) int(4) blob(rest).
	if len(b) < 8 {
		return
	}
	c.mu.Lock()
	c.QueryAnswer = true
	primary := substrate.Addr(u32(b, 0))
	stream := u32(b, 4)
	if stream != c.Stream {
		c.mu.Unlock()
		return
	}
	if primary == 0 {
		// Not on the segment: open our own connection.
		connect := !c.Connected
		if connect {
			c.Connected = true
		}
		c.mu.Unlock()
		if connect {
			c.connect()
		}
		return
	}
	c.SharedWith = primary
	c.Setup = append([]byte(nil), b[8:]...)
	c.mu.Unlock()
}
