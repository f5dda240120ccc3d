package rtnet

import (
	"bytes"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
	"time"

	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/substrate"
)

// faultRig is one sender→receiver datagram link, built for
// TestLinkFaultMatrix: left (addr 1) transmits to right (addr 2).
type faultRig struct {
	out substrate.FaultPort // left's endpoint toward right
	reg *obs.Registry       // left's network: where the link's counters live
}

// newFaultRig builds a started left→right link of the given kind with
// recv bound to right's UDP port 7.
func newFaultRig(t *testing.T, kind string, bw int64, recv substrate.AppFunc) faultRig {
	t.Helper()
	if kind == "remote" {
		na, nb, ia, ib := remotePair(t, func(a, b *RemoteSpec) { a.BandwidthBps, b.BandwidthBps = bw, bw })
		nb.NodeByName("right").BindUDP(7, recv)
		na.Start()
		nb.Start()
		waitState(t, ia, LinkUp)
		waitState(t, ib, LinkUp)
		return faultRig{out: ia, reg: na.Metrics()}
	}
	nw := New(1)
	t.Cleanup(nw.Close)
	left, right := NewNode(nw, "left", 1), NewNode(nw, "right", 2)
	right.BindUDP(7, recv)
	ab, _, err := NewUDPLink(nw, left, right, bw)
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	return faultRig{out: ab, reg: nw.Metrics()}
}

// TestLinkFaultMatrix pins what a fault verdict does to a transmission
// on the datagram link kinds, loopback-UDP and cross-host, whose caller
// keeps its packet and rewrites it as soon as Send returns: copies
// delivered, the counter a loss lands in under its registered name,
// corruption never writing through the sender's packet, delayed copies
// being the endpoint's own, and Load metering pkt.Size() per copy. The
// conformance suite's LinkFault case runs the same verdicts on netsim
// and on rtnet's channel links.
func TestLinkFaultMatrix(t *testing.T) {
	const (
		sends = 5
		delay = 30 * time.Millisecond
		bw    = 200_000
	)
	faults := []struct {
		name    string
		act     substrate.FaultAction
		copies  int // per Send
		corrupt bool
	}{
		{"drop", substrate.FaultAction{Drop: true}, 0, false},
		{"dup2", substrate.FaultAction{Dup: 2}, 3, false},
		{"delay", substrate.FaultAction{Delay: delay}, 1, false},
		{"corrupt", substrate.FaultAction{Corrupt: true, CorruptBit: 11}, 1, true},
		{"delay+dup", substrate.FaultAction{Delay: delay, Dup: 1}, 2, false},
	}
	payload := bytes.Repeat([]byte{0xA5}, 100)
	for _, kind := range []string{"udp", "remote"} {
		for _, fc := range faults {
			t.Run(kind+"/"+fc.name, func(t *testing.T) {
				var (
					mu       sync.Mutex
					arrivals []time.Time
					got      [][]byte
				)
				rig := newFaultRig(t, kind, bw, func(pkt *substrate.Packet) {
					mu.Lock()
					arrivals = append(arrivals, time.Now())
					got = append(got, append([]byte(nil), pkt.Payload...))
					mu.Unlock()
				})
				rig.out.SetFault(func(*substrate.Packet) substrate.FaultAction { return fc.act })

				var size int
				t0 := time.Now()
				for k := 0; k < sends; k++ {
					pkt := substrate.NewUDP(1, 2, 9, 7, append([]byte(nil), payload...))
					size = pkt.Size()
					rig.out.Send(pkt)
					// The caller keeps its packet on a datagram link and may
					// rewrite it at once, delay pending or not: a copy that
					// aliased it would arrive scrambled or on the wrong port.
					pkt.Payload[0] ^= 0xFF
					pkt.UDP.DstPort = 9
				}

				want := sends * fc.copies
				count := func() int64 { mu.Lock(); defer mu.Unlock(); return int64(len(got)) }
				if want > 0 {
					waitCounter(t, count, int64(want))
				}
				// Every copy is out; Load reads N × pkt.Size() once the
				// meter's current bucket completes, and keeps reading it
				// until the first copy leaves the window.
				window := substrate.DefaultMeterWindow
				wantLoad := int64(want*size) * 8 * int64(time.Second) / int64(window-window/10) * 100 / bw
				deadline := time.Now().Add(2 * time.Second)
				for rig.out.Load() != wantLoad && time.Now().Before(deadline) {
					time.Sleep(2 * time.Millisecond)
				}
				if load := rig.out.Load(); load != wantLoad {
					t.Errorf("Load() = %d after %d copies of %d bytes, want %d", load, want, size, wantLoad)
				}
				time.Sleep(50 * time.Millisecond) // stragglers: an extra copy would land by now

				mu.Lock()
				defer mu.Unlock()
				if len(got) != want {
					t.Fatalf("receiver saw %d packets, want %d", len(got), want)
				}
				for k, p := range got {
					if fc.act.Delay > 0 && arrivals[k].Sub(t0) < fc.act.Delay {
						t.Errorf("copy %d arrived after %v, before the %v delay", k, arrivals[k].Sub(t0), fc.act.Delay)
					}
					flipped := 0
					for j := range p {
						flipped += bits.OnesCount8(p[j] ^ payload[j])
					}
					if len(p) != len(payload) || (fc.corrupt && flipped != 1) || (!fc.corrupt && flipped != 0) {
						t.Errorf("copy %d: %d payload bits differ from what was sent (corrupt=%v)", k, flipped, fc.corrupt)
					}
				}
				snap := rig.reg.Snapshot()
				wantFault := int64(0)
				if fc.act.Drop {
					wantFault = sends
				}
				if n := snap["link.left:right.fault_dropped_pkts"]; n != wantFault {
					t.Errorf("fault_dropped_pkts = %d, want %d", n, wantFault)
				}
				if n := snap["link.left:right.dropped_pkts"]; n != 0 {
					t.Errorf("dropped_pkts = %d, want 0: a fault verdict is never a congestion drop", n)
				}
			})
		}
	}
}

// TestChannelSendAllocs: the faultless Send of an owned packet over a
// channel link is the rt_gateway hot path, whose alloc_b_op the
// benchmark holds to the byte. Reaching the transport may cost a dynamic
// call, never an interface box or a closure.
func TestChannelSendAllocs(t *testing.T) {
	nw := New(1)
	t.Cleanup(nw.Close)
	ab, _ := NewLink(nw, NewNode(nw, "a", 1), NewNode(nw, "b", 2), 10e6)
	const runs = 200 // under queueCap: the network is not started, nothing drains
	pkts := make([]*substrate.Packet, runs+1)
	for k := range pkts {
		pkts[k] = substrate.NewUDP(1, 2, 9, 7, []byte("x")).Own()
	}
	k := 0
	if got := testing.AllocsPerRun(runs, func() { ab.Send(pkts[k]); k++ }); got != 0 {
		t.Fatalf("faultless channel Send allocates %v times per packet, want 0", got)
	}
}

// TestNewSeedsRNG: the seed given to New is the Env RNG's seed, and
// every Env draw comes from that one stream.
func TestNewSeedsRNG(t *testing.T) {
	for _, seed := range []int64{7, 8} {
		nw := New(seed)
		ref := rand.New(rand.NewSource(seed))
		for k := 0; k < 8; k++ {
			if got, want := nw.Int63n(1<<62), ref.Int63n(1<<62); got != want {
				t.Fatalf("seed %d draw %d: Int63n = %d, want %d", seed, k, got, want)
			}
			if got, want := nw.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d draw %d: Float64 = %v, want %v", seed, k, got, want)
			}
			if got, want := nw.ExpFloat64(), ref.ExpFloat64(); got != want {
				t.Fatalf("seed %d draw %d: ExpFloat64 = %v, want %v", seed, k, got, want)
			}
		}
		nw.Close()
	}
}
