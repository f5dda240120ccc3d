// Trace-replaying HTTP clients: Poisson arrivals at a configured offered
// rate, one connection per request, completion counted on the FIN
// packet (figure 8's y-axis).
package httpd

import (
	"sync"
	"time"

	"planp.dev/planp/internal/substrate"
)

// Client replays trace accesses against a target address at an offered
// request rate. On rtnet its binding and its timers run on different
// goroutines, so mu guards the fields below it.
type Client struct {
	Node   substrate.Node
	Target substrate.Addr
	Rate   float64 // offered requests per second
	Trace  *Trace

	mu        sync.Mutex
	nextPort  uint16
	inFlight  map[uint16]time.Duration // src port -> request start
	Issued    int64
	Completed int64
	Latency   time.Duration // cumulative completion latency

	// WarmedCompleted counts completions inside the measurement window
	// [warmup, end) — excluding both warmup and the post-run drain.
	warmupAt        time.Duration
	endAt           time.Duration
	WarmedCompleted int64
}

// NewClient binds a client app on node targeting target.
func NewClient(node substrate.Node, target substrate.Addr, rate float64, tr *Trace) *Client {
	c := &Client{
		Node: node, Target: target, Rate: rate, Trace: tr,
		nextPort: 10000, inFlight: map[uint16]time.Duration{},
	}
	node.BindRaw(c.onPacket)
	return c
}

// Start begins issuing requests until end; completions after warmup are
// counted separately for steady-state throughput.
func (c *Client) Start(end, warmup time.Duration) {
	c.mu.Lock()
	c.warmupAt, c.endAt = warmup, end
	c.mu.Unlock()
	env := c.Node.Env()
	var issue func()
	issue = func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if env.Now() >= end {
			return
		}
		c.request(env)
		env.After(c.gap(env), issue)
	}
	env.After(c.gap(env), issue)
}

// gap draws the time to the next arrival.
func (c *Client) gap(env substrate.Env) time.Duration {
	if gap := time.Duration(env.ExpFloat64() / c.Rate * float64(time.Second)); gap > 0 {
		return gap
	}
	return time.Microsecond
}

// Count returns Issued and Completed, read under the client's lock.
func (c *Client) Count() (issued, completed int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Issued, c.Completed
}

// request sends the next trace access; c.mu is held.
func (c *Client) request(env substrate.Env) {
	entry := c.Trace.Next()
	port := c.nextPort
	c.nextPort++
	if c.nextPort < 10000 {
		c.nextPort = 10000 // wrap far from ephemeral floor
	}
	c.inFlight[port] = env.Now()
	c.Issued++
	c.Node.Send(NewRequest(c.Node.Address(), c.Target, port, entry.Size, 0).Own())
}

// onPacket counts completions.
func (c *Client) onPacket(pkt *substrate.Packet) {
	if pkt.TCP == nil || pkt.TCP.SrcPort != HTTPPort || pkt.TCP.Flags&substrate.FlagFin == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	port := pkt.TCP.DstPort
	start, ok := c.inFlight[port]
	if !ok {
		return
	}
	delete(c.inFlight, port)
	now := c.Node.Env().Now()
	c.Completed++
	c.Latency += now - start
	if now >= c.warmupAt && now < c.endAt {
		c.WarmedCompleted++
	}
}

// MeanLatency returns the average completion latency.
func (c *Client) MeanLatency() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.Completed == 0 {
		return 0
	}
	return c.Latency / time.Duration(c.Completed)
}
