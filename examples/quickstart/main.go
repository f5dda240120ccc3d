// Quickstart: write an ASP, verify it, download it into a router, and
// watch it rewrite live traffic.
//
// The protocol is a tiny firewall/redirector: TCP traffic for port 8080
// on the old server is transparently redirected to a new server, and
// everything else passes through — the application-adaptation move of
// the paper in ten lines of PLAN-P.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	planp "planp.dev/planp"
)

const protocol = `
-- Redirect traffic for the retired server 10.0.2.1:8080 to its
-- replacement at 10.0.2.2, without touching either application.
val oldServer : host = 10.0.2.1
val newServer : host = 10.0.2.2

channel network(ps : int, ss : unit, p : ip*tcp*blob) is
  if ipDst(#1 p) = oldServer andalso tcpDst(#2 p) = 8080 then
    (println("redirecting connection from " ^ hostToString(ipSrc(#1 p)));
     OnRemote(network, (ipDestSet(#1 p, newServer), #2 p, #3 p));
     (ps + 1, ss))
  else
    (OnRemote(network, p); (ps, ss))
`

func main() {
	// Compile: parse, type-check, run the §2.1 safety analyses, and
	// specialize with the JIT. The redirect rewrites destinations to a
	// fixed literal, which is single-node-safe.
	proto, err := planp.Compile(protocol, planp.WithVerification(planp.VerifySingleNode))
	if err != nil {
		log.Fatalf("compile: %v", err)
	}
	fmt.Printf("compiled with %s engine in %v\n", proto.EngineName(), proto.CodegenTime())
	fmt.Println("late checking:")
	fmt.Print(proto.Report())

	// Topology: client -- router -- {old server, new server}.
	net := planp.NewNetwork()
	client := net.NewHost("client", "10.0.1.1")
	router := net.NewRouter("router", "10.0.0.254")
	oldSrv := net.NewHost("old-server", "10.0.2.1")
	newSrv := net.NewHost("new-server", "10.0.2.2")
	net.Wire(client, router, planp.LinkConfig{Bandwidth: 10_000_000})
	net.Wire(router, oldSrv, planp.LinkConfig{Bandwidth: 100_000_000})
	net.Wire(router, newSrv, planp.LinkConfig{Bandwidth: 100_000_000})
	client.SetDefaultRoute(client.Interfaces()[0])

	// Both servers run an application on port 8080.
	oldSrv.BindTCP(8080, func(p *planp.Packet) {
		fmt.Printf("OLD server got: %s\n", p.Payload)
	})
	newSrv.BindTCP(8080, func(p *planp.Packet) {
		fmt.Printf("NEW server got: %s\n", p.Payload)
	})

	// Download the ASP into the router.
	rt, err := proto.DownloadTo(router, os.Stdout)
	if err != nil {
		log.Fatalf("download: %v", err)
	}

	// The client still addresses the OLD server.
	for i := 0; i < 3; i++ {
		req := planp.NewTCP(client.Addr, planp.MustAddr("10.0.2.1"),
			uint16(40000+i), 8080, 0, 0, []byte(fmt.Sprintf("request %d", i+1)))
		client.Send(req)
	}
	// Unrelated traffic passes through untouched.
	client.Send(planp.NewTCP(client.Addr, planp.MustAddr("10.0.2.1"), 40100, 22, 0, 0, []byte("ssh")))
	oldSrv.BindTCP(22, func(p *planp.Packet) {
		fmt.Printf("OLD server ssh: %s\n", p.Payload)
	})

	net.Run()

	fmt.Printf("\nrouter stats: %d packets processed, %d redirected (protocol state)\n",
		rt.Stats().Processed, rt.Instance().Proto.AsInt())
}
