package httpd_test

import (
	"testing"
	"time"

	"planp.dev/planp/internal/apps/httpd"
	"planp.dev/planp/internal/rtnet"
	"planp.dev/planp/internal/substrate"
)

// TestHTTPOnRTNet is the §3.2 cluster on the real-time backend, built
// from the same server, client and native gateway figure 8 runs on the
// simulator: Apache-shaped servers (a bounded worker pool) with a 1 ms
// service time on timer goroutines, a Poisson client issuing from its
// own, and the gateway balancing on its node goroutine. Every request
// issued completes, and both servers serve.
func TestHTTPOnRTNet(t *testing.T) {
	nw := rtnet.New(1)
	defer nw.Close()
	client := rtnet.NewNode(nw, "client", substrate.MustAddr("10.0.1.1"))
	gw := rtnet.NewNode(nw, "gateway", substrate.MustAddr("10.0.0.1"))
	s0 := rtnet.NewNode(nw, "server0", httpd.Server0Addr)
	s1 := rtnet.NewNode(nw, "server1", httpd.Server1Addr)
	gw.Forwarding = true
	gc, cg := rtnet.NewLink(nw, gw, client, 100_000_000)
	g0, sg0 := rtnet.NewLink(nw, gw, s0, 100_000_000)
	g1, sg1 := rtnet.NewLink(nw, gw, s1, 100_000_000)
	client.SetDefaultRoute(cg)
	s0.SetDefaultRoute(sg0)
	s1.SetDefaultRoute(sg1)
	gw.AddRoute(client.Address(), gc)
	gw.AddRoute(httpd.Server0Addr, g0)
	gw.AddRoute(httpd.Server1Addr, g1)
	gw.AddRoute(httpd.VirtualAddr, g0)

	httpd.InstallNativeGateway(gw)
	cfg := httpd.ServerConfig{Workers: httpd.Apache.Workers, BaseCPU: time.Millisecond}
	servers := []*httpd.Server{httpd.NewServer(s0, cfg), httpd.NewServer(s1, cfg)}
	tr := httpd.NewTrace(httpd.TraceConfig{Accesses: 100, Documents: 10, ZipfS: 1.2, MeanSize: 2000, Seed: 3})
	c := httpd.NewClient(client, httpd.VirtualAddr, 300, tr)
	nw.Start()

	end := nw.Now() + 500*time.Millisecond
	c.Start(end, 0)
	deadline := time.Now().Add(10 * time.Second)
	for {
		issued, completed := c.Count()
		if nw.Now() > end && issued == completed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests completed", completed, issued)
		}
		time.Sleep(10 * time.Millisecond)
	}
	issued, _ := c.Count()
	served0, served1 := servers[0].Count(), servers[1].Count()
	if issued == 0 || served0 == 0 || served1 == 0 || served0+served1 != issued {
		t.Fatalf("issued %d, served %d + %d", issued, served0, served1)
	}
	if c.MeanLatency() <= 0 {
		t.Errorf("mean latency %v", c.MeanLatency())
	}
}
