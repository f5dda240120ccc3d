// Package httpd implements the §3.2 experiment: HTTP servers (the
// Apache stand-in), trace-replaying clients, the PLAN-P gateway
// download, a native Go gateway baseline, and the figure-8 offered-load
// sweep. Only experiment.go names a backend; the rest runs on either.
package httpd

import (
	"encoding/binary"
	"sync"
	"time"

	"planp.dev/planp/internal/substrate"
)

// HTTPPort is the service port.
const HTTPPort = 80

// MTU is the data-packet payload size responses are chunked into.
const MTU = 1400

// zeroPage is the body of every response packet: the servers send
// zeros, and a transmitted payload is immutable (the substrate's rule;
// CorruptPayload goes through CloneMut), so every packet of every
// server can carry a slice of the same page.
var zeroPage [MTU]byte

// ServerConfig is a server's service model, taken literally: at most
// Workers requests in service at once (0: no limit), each taking BaseCPU
// plus PerByte per response byte, ±20 %. A request whose service time is
// zero is answered on arrival.
type ServerConfig struct {
	Workers int           // paper: 5-10 Apache children
	BaseCPU time.Duration // fixed cost per request
	PerByte time.Duration // additional cost per response byte
}

// Apache is the calibrated §3.2 server: one saturates around 300
// requests/s (a late-90s Apache on an Ultra-1 against a mixed trace).
var Apache = ServerConfig{Workers: 8, BaseCPU: 20 * time.Millisecond, PerByte: 700 * time.Nanosecond}

// Server is one HTTP server: a worker pool with a per-request service
// time, replaying the queueing behavior that makes a single machine
// saturate. On rtnet its binding and its timers run on different
// goroutines, so mu guards the fields below it.
type Server struct {
	Node substrate.Node
	ServerConfig

	mu       sync.Mutex
	queue    []*substrate.Packet // waiting requests are queue[head:]
	head     int
	busy     int
	failed   bool
	Served   int64
	QueueMax int
}

// NewServer binds a server app on node.
func NewServer(node substrate.Node, cfg ServerConfig) *Server {
	s := &Server{Node: node, ServerConfig: cfg}
	node.BindTCP(HTTPPort, s.onRequest)
	return s
}

// Count returns Served, read under the server's lock.
func (s *Server) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Served
}

// Fail simulates a machine crash: the server stops answering (requests
// already in service are lost too). Used by the failover experiment.
func (s *Server) Fail() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failed = true
	s.queue, s.head = nil, 0
}

// onRequest serves or queues an incoming request packet.
func (s *Server) onRequest(req *substrate.Packet) {
	if req.TCP == nil || req.TCP.Flags&substrate.FlagSyn == 0 {
		return // only request packets start work
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.failed: // crashed machines answer nothing
	case s.Workers == 0 || s.busy < s.Workers:
		s.serve(req)
	default:
		s.queue = append(s.queue, req)
		if n := len(s.queue) - s.head; n > s.QueueMax {
			s.QueueMax = n
		}
	}
}

// serve answers req after its service time; s.mu is held.
func (s *Server) serve(req *substrate.Packet) {
	size := requestedSize(req)
	st := s.BaseCPU + time.Duration(size)*s.PerByte
	if st == 0 {
		s.respond(req, size)
		return
	}
	s.busy++
	env := s.Node.Env()
	// ±20% jitter from the environment's stream so workers don't
	// complete in lockstep.
	jitter := time.Duration(float64(st) * 0.2 * (env.Float64()*2 - 1))
	env.After(st+jitter, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.busy--
		if s.failed {
			return // the response dies with the machine
		}
		s.respond(req, size)
		for s.busy < s.Workers && s.head < len(s.queue) {
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
// flagged FIN so the client can count completion; s.mu is held.
func (s *Server) respond(req *substrate.Packet, size int) {
	s.Served++
	src := s.Node.Address()
	seq := uint32(0)
	for sent := 0; sent < size; seq++ {
		chunk := min(size-sent, MTU)
		sent += chunk
		flags := uint8(substrate.FlagAck)
		if sent >= size {
			flags |= substrate.FlagFin
		}
		s.Node.Send(substrate.NewTCP(src, req.IP.Src, HTTPPort, req.TCP.SrcPort, seq, flags, zeroPage[:chunk:chunk]).Own())
	}
}

// NewRequest builds the request a client at src sends from port to dst
// for a size-byte response: a SYN to HTTPPort whose payload is length
// bytes, at least the four (big-endian) that carry size.
func NewRequest(src, dst substrate.Addr, port uint16, size, length int) *substrate.Packet {
	b := make([]byte, max(length, 4))
	binary.BigEndian.PutUint32(b, uint32(size))
	return substrate.NewTCP(src, dst, port, HTTPPort, 0, substrate.FlagSyn|substrate.FlagPsh, b)
}

// requestedSize decodes the response size a request asks for.
func requestedSize(req *substrate.Packet) int {
	if len(req.Payload) < 4 {
		return 1024
	}
	return int(binary.BigEndian.Uint32(req.Payload))
}
