package planp_test

import (
	"fmt"
	"log"
	"os"

	planp "planp.dev/planp"
)

// The package documentation's quick start: declare two hosts on a link,
// download a protocol into one, and send it a packet.
func Example() {
	net := planp.NewNetwork()
	built, err := net.Build(&planp.Topology{
		Nodes: []planp.NodeSpec{
			{Name: "a", Addr: planp.MustAddr("10.0.0.1")},
			{Name: "b", Addr: planp.MustAddr("10.0.0.2")},
		},
		Links: []planp.LinkSpec{{A: "a", B: "b", Bandwidth: 10e6}},
	})
	if err != nil {
		log.Fatal(err)
	}
	a, b := built.Nodes[0], built.Nodes[1]

	proto, err := planp.Compile(`
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (println("protocol saw " ^ blobToString(#3 p)); deliver(p); (ps + 1, ss))
`)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := proto.DownloadTo(b, os.Stdout); err != nil {
		log.Fatal(err)
	}
	b.BindUDP(9, func(p *planp.Packet) { fmt.Printf("b got %s\n", p.Payload) })

	a.Send(planp.NewUDP(a.Addr, b.Addr, 1000, 9, []byte("hi")))
	net.Run()
	// Output:
	// protocol saw hi
	// b got hi
}
