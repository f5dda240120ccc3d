package httpd_test

import (
	"testing"
	"time"

	"planp.dev/planp/internal/apps/httpd"
	"planp.dev/planp/internal/rtnet"
)

// TestHTTPOnRTNet is the §3.2 cluster on the real-time backend, built
// from the spec figure 8 simulates — both LANs shared segments — with
// the same server, client and native gateway: Apache-shaped servers (a
// bounded worker pool) with a 1 ms service time on timer goroutines, a
// Poisson client on each client host issuing from its own, and the
// gateway balancing on its node goroutine. Every request issued
// completes, and both servers serve.
func TestHTTPOnRTNet(t *testing.T) {
	nw := rtnet.New(1)
	defer nw.Close()
	b, err := rtnet.Build(nw, &httpd.Cluster, false)
	if err != nil {
		t.Fatal(err)
	}
	httpd.InstallNativeGateway(b.Node("gateway"))
	cfg := httpd.ServerConfig{Workers: httpd.Apache.Workers, BaseCPU: time.Millisecond}
	servers := []*httpd.Server{httpd.NewServer(b.Node("serverA"), cfg), httpd.NewServer(b.Node("serverB"), cfg)}
	var clients []*httpd.Client
	for i, name := range []string{"client1", "client2"} {
		tr := httpd.NewTrace(httpd.TraceConfig{Accesses: 100, Documents: 10, ZipfS: 1.2, MeanSize: 2000, Seed: int64(3 + i)})
		clients = append(clients, httpd.NewClient(b.Node(name), httpd.VirtualAddr, 150, tr))
	}
	nw.Start()

	end := nw.Now() + 500*time.Millisecond
	for _, c := range clients {
		c.Start(end, 0)
	}
	var issued int64
	deadline := time.Now().Add(10 * time.Second)
	for {
		// Read the clock first: once it is past end no client issues
		// again, so the counts read after it are final.
		past := nw.Now() > end
		var completed int64
		issued = 0
		for _, c := range clients {
			i, done := c.Count()
			issued, completed = issued+i, completed+done
		}
		if past && issued == completed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests completed", completed, issued)
		}
		time.Sleep(10 * time.Millisecond)
	}
	served0, served1 := servers[0].Count(), servers[1].Count()
	if issued == 0 || served0 == 0 || served1 == 0 || served0+served1 != issued {
		t.Fatalf("issued %d, served %d + %d", issued, served0, served1)
	}
	for _, c := range clients {
		if c.MeanLatency() <= 0 {
			t.Errorf("mean latency %v", c.MeanLatency())
		}
	}
}
