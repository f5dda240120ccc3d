// The §3.2 demo: the HTTP load-balancing cluster (client — gateway —
// two servers) as a built-in topology. demo.json is an ordinary
// topology file, so the network, routes, chaos wiring and control plane
// all come from NewDaemon; what lives here is only the application
// layer the topology language does not describe — the two httpd
// servers, the client's response counter, and the request driver.
package testbed

import (
	_ "embed"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"planp.dev/planp/internal/apps/httpd"
	"planp.dev/planp/internal/planpd"
	"planp.dev/planp/internal/substrate"
)

//go:embed demo.json
var demoJSON []byte

// Demo is the one-daemon §3.2 cluster. Requests address the virtual
// server; without a gateway protocol they are forwarded clusterward and
// die at server0 (no binding for the virtual address), which is exactly
// the state downloading asp/http_gateway.planp onto the gateway fixes.
type Demo struct {
	*Daemon

	servers     [2]*httpd.Server
	responses   atomic.Int64
	fromVirtual atomic.Int64
}

// NewDemo builds the demo daemon; a non-empty control overrides the
// topology's control address (planpd's -listen).
func NewDemo(control string, opts Options) (*Demo, error) {
	topo, err := ParseTopology(demoJSON)
	if err != nil {
		return nil, err
	}
	if control != "" {
		topo.Daemons[0].Control = control
	}
	d, err := NewDaemon(topo, topo.Daemons[0].Name, opts)
	if err != nil {
		return nil, err
	}
	m := &Demo{Daemon: d}
	// Backend servers answer each request on arrival (no service time,
	// so Net.Quiesce covers the whole exchange).
	for i, name := range []string{"server0", "server1"} {
		m.servers[i] = httpd.NewServer(d.Node(name), httpd.ServerConfig{})
	}
	// Client: count responses; the gateway protocol must make them
	// appear to come from the virtual server.
	d.Node("client").BindRaw(func(resp *substrate.Packet) {
		m.responses.Add(1)
		if resp.IP.Src == httpd.VirtualAddr {
			m.fromVirtual.Add(1)
		}
	})
	return m, nil
}

// SendRequest originates one request from the client to the virtual
// server, asking for a 5-byte body: the demo counts where requests land,
// not bytes. port identifies the connection — the gateway ASP balances
// per-connection, so distinct ports exercise the policy.
func (m *Demo) SendRequest(port uint16) {
	client := m.Node("client")
	client.Send(httpd.NewRequest(client.Address(), httpd.VirtualAddr, port, 5, 0).Own())
}

// Served returns how many requests each backend server answered.
func (m *Demo) Served() (server0, server1 int64) {
	return m.servers[0].Count(), m.servers[1].Count()
}

// Responses returns (total responses at the client, responses whose
// source was the virtual server address).
func (m *Demo) Responses() (total, fromVirtual int64) {
	return m.responses.Load(), m.fromVirtual.Load()
}

// linkDrops sums the daemon's link.*.dropped_pkts: packets a link's
// queue refused (fault drops count apart, in fault_dropped_pkts).
func (m *Demo) linkDrops() int64 {
	var n int64
	for name, v := range m.Net.Metrics().Snapshot() {
		if strings.HasPrefix(name, "link.") && strings.HasSuffix(name, ".dropped_pkts") {
			n += v
		}
	}
	return n
}

// Handler is the daemon's control API plus POST /demo/requests?n=N,
// which fires N client requests and reports the burst's own counts:
// where they landed, the responses, and the packets the links dropped
// (the client outpaces the gateway, so past the client link's
// 512-packet queue a large burst is mostly dropped).
func (m *Demo) Handler() http.Handler {
	mux := m.Daemon.Handler()
	mux.HandleFunc("POST /demo/requests", func(w http.ResponseWriter, r *http.Request) {
		n, err := strconv.Atoi(planpd.QueryValue(r.URL.RawQuery, "n"))
		if err != nil || n <= 0 || n > 1<<16 {
			http.Error(w, "n must be in [1, 65536]", http.StatusBadRequest)
			return
		}
		s0, s1 := m.Served()
		total, fromVirtual := m.Responses()
		drops := m.linkDrops()
		for i := 0; i < n; i++ {
			m.SendRequest(uint16(10000 + i%55536)) // ports 10000–65535
		}
		// Real-time backend: the burst is still in flight when the sends
		// return. Settle before reading the counters so the response
		// reflects this burst, not the previous one.
		settled := m.Net.Quiesce(10 * time.Second)
		e0, e1 := m.Served()
		eTotal, eVirtual := m.Responses()
		planpd.WriteJSON(w, http.StatusOK, map[string]any{
			"sent": n, "settled": settled, "server0": e0 - s0, "server1": e1 - s1,
			"responses": eTotal - total, "from_virtual": eVirtual - fromVirtual, "dropped": m.linkDrops() - drops,
		})
	})
	return mux
}
