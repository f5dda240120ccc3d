// Package httpd implements the §3.2 experiment: a simulated HTTP server
// farm (the Apache stand-in), trace-replaying clients, the PLAN-P
// gateway download, a native Go gateway baseline, and the figure-8
// offered-load sweep.
package httpd

import (
	"time"

	"planp.dev/planp/internal/netsim"
)

// HTTPPort is the service port.
const HTTPPort = 80

// MTU is the data-packet payload size responses are chunked into.
const MTU = 1400

// zeroPage is the body of every response packet: the simulated servers
// send zeros, and a transmitted payload is immutable (the substrate's
// rule; CorruptPayload goes through CloneMut), so every packet of every
// server can carry a slice of the same page.
var zeroPage [MTU]byte

// Server simulates an Apache instance: a bounded worker pool with a
// per-request service time (base CPU + per-byte cost), replaying the
// queueing behavior that makes a single machine saturate.
type Server struct {
	Node    *netsim.Node
	Workers int           // paper: 5-10 Apache children
	BaseCPU time.Duration // fixed cost per request
	PerByte time.Duration // additional cost per response byte

	queue     []*netsim.Packet // waiting requests are queue[head:]
	head      int
	busy      int
	failed    bool
	Served    int64
	SentBytes int64
	QueueMax  int
}

// Fail simulates a machine crash: the server stops answering (requests
// already in service are lost too). Used by the failover experiment.
func (s *Server) Fail() {
	s.failed = true
	s.queue, s.head = nil, 0
}

// ServerConfig holds tunables; zero values take defaults calibrated so
// one server saturates around 300 requests/s (a late-90s Apache on an
// Ultra-1 against a mixed trace).
type ServerConfig struct {
	Workers int
	BaseCPU time.Duration
	PerByte time.Duration
}

func (c *ServerConfig) fill() {
	if c.Workers == 0 {
		c.Workers = 8
	}
	if c.BaseCPU == 0 {
		c.BaseCPU = 20 * time.Millisecond
	}
	if c.PerByte == 0 {
		c.PerByte = 700 * time.Nanosecond
	}
}

// NewServer binds a server app on node.
func NewServer(node *netsim.Node, cfg ServerConfig) *Server {
	cfg.fill()
	s := &Server{Node: node, Workers: cfg.Workers, BaseCPU: cfg.BaseCPU, PerByte: cfg.PerByte}
	node.BindTCP(HTTPPort, s.onRequest)
	return s
}

// onRequest queues an incoming request packet.
func (s *Server) onRequest(pkt *netsim.Packet) {
	if s.failed {
		return // crashed machines answer nothing
	}
	if pkt.TCP == nil || pkt.TCP.Flags&netsim.FlagSyn == 0 {
		return // only request packets start work
	}
	if s.busy < s.Workers {
		s.serve(pkt)
		return
	}
	s.queue = append(s.queue, pkt)
	if n := len(s.queue) - s.head; n > s.QueueMax {
		s.QueueMax = n
	}
}

// serve runs one request to completion after its service time.
func (s *Server) serve(req *netsim.Packet) {
	s.busy++
	size := requestedSize(req)
	st := s.BaseCPU + time.Duration(size)*s.PerByte
	// Add ±20% deterministic jitter from the simulation RNG so workers
	// don't complete in lockstep.
	jitter := time.Duration(float64(st) * 0.2 * (s.Node.Sim().Rand().Float64()*2 - 1))
	s.Node.Sim().After(st+jitter, func() {
		s.busy--
		if s.failed {
			return // the response dies with the machine
		}
		s.respond(req, size)
		if s.head < len(s.queue) {
			next := s.queue[s.head]
			s.head++
			// Past saturation the queue is thousands deep: the served
			// prefix is closed up once it is half the slice, not per pop.
			if 2*s.head >= len(s.queue) {
				n := copy(s.queue, s.queue[s.head:])
				clear(s.queue[n:])
				s.queue, s.head = s.queue[:n], 0
			}
			s.serve(next)
		}
	})
}

// respond streams the response back: full MTU chunks, the last one
// flagged FIN so the client can count completion.
func (s *Server) respond(req *netsim.Packet, size int) {
	s.Served++
	s.SentBytes += int64(size)
	seq := uint32(0)
	for sent := 0; sent < size; {
		chunk := size - sent
		if chunk > MTU {
			chunk = MTU
		}
		sent += chunk
		flags := uint8(netsim.FlagAck)
		if sent >= size {
			flags |= netsim.FlagFin
		}
		resp := netsim.NewTCP(s.Node.Addr, req.IP.Src, HTTPPort, req.TCP.SrcPort, seq, flags, zeroPage[:chunk:chunk])
		seq++
		s.Node.Send(resp.Own())
	}
}

// requestedSize decodes the response size a request asks for (the trace
// entry's size travels in the request payload: 4 bytes big-endian).
func requestedSize(req *netsim.Packet) int {
	b := req.Payload
	if len(b) < 4 {
		return 1024
	}
	return int(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]))
}

// encodeRequest builds a request payload asking for size bytes.
func encodeRequest(size int) []byte {
	return []byte{byte(size >> 24), byte(size >> 16), byte(size >> 8), byte(size)}
}
