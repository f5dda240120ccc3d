package substrate

import (
	"runtime"
	"sync"
	"testing"

	"planp.dev/planp/internal/obs"
)

// testIfc is an interface identity that transmits nothing.
type testIfc struct{ name string }

func (*testIfc) Send(*Packet)     {}
func (*testIfc) Load() int64      { return 0 }
func (*testIfc) Bandwidth() int64 { return 0 }

// testEnv is the part of an Env a Stack reads while it is configured:
// the registry its counters live in.
type testEnv struct {
	Env
	reg *obs.Registry
}

func (e testEnv) Metrics() *obs.Registry { return e.reg }

func newTestStack() *Stack {
	s := &Stack{}
	s.Init(testEnv{reg: obs.NewRegistry()}, "n", 1)
	return s
}

func TestTablesSnapshotIsImmutable(t *testing.T) {
	s := newTestStack()
	var links []Iface
	for k := 0; k < 3; k++ { // three appends leave the writers' slice with spare capacity
		links = append(links, &testIfc{string(rune('a' + k))})
		s.AddIface(links[k])
	}
	s.AddRoute(9, links[0])
	s.AddMulticastRoute(0xE0000001, links[1])
	s.BindUDP(7, func(*Packet) {})

	snap := s.load()
	ifs := s.Interfaces()
	whole := append([]Iface(nil), ifs[:cap(ifs)]...)
	via := s.Route(9)

	late := &testIfc{"late"}
	s.AddIface(late)
	s.AddRoute(9, late)
	s.AddRoute(10, late)
	s.SetDefaultRoute(late)
	s.AddMulticastRoute(0xE0000001, late)
	s.JoinGroup(0xE0000001)
	s.BindUDP(8, func(*Packet) {})
	s.BindRaw(func(*Packet) {})
	s.Tap(func(*Packet) {})

	if got := s.Interfaces(); len(got) != 4 || got[3] != Iface(late) || s.Route(9) != Iface(late) {
		t.Fatalf("the new configuration was not published: %d interfaces, Route(9) = %v", len(got), s.Route(9))
	}
	for k, ifc := range ifs[:cap(ifs)] {
		if ifc != whole[k] {
			t.Errorf("Interfaces() taken earlier changed at [%d] (len %d, cap %d)", k, len(ifs), cap(ifs))
		}
	}
	if len(ifs) != 3 || via != links[0] {
		t.Errorf("earlier reads changed: %d interfaces, Route(9) = %v", len(ifs), via)
	}
	if len(snap.ifaces) != 3 || len(snap.routes) != 1 || snap.routes[9] != links[0] ||
		snap.defaultIf != nil || len(snap.apps) != 1 || len(snap.rawApps) != 0 ||
		len(snap.mroutes[0xE0000001]) != 1 || len(snap.joined) != 0 || len(snap.taps) != 0 {
		t.Errorf("a published snapshot was written to: %+v", snap)
	}
}

// TestReadersRacePublish: after a write, every reader that finds the
// tables withdrawn tries to publish them; the ones that lose must not
// write to what the winner published. Run under -race.
func TestReadersRacePublish(t *testing.T) {
	s := newTestStack()
	ifc := &testIfc{"out"}
	s.AddIface(ifc)
	s.SetDefaultRoute(ifc)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if len(s.Interfaces()) == 0 || s.Route(0) != Iface(ifc) {
					t.Error("a reader saw the tables without the interface and default route")
					return
				}
			}
		}()
	}
	for k := 0; k < 200; k++ {
		s.AddRoute(Addr(k+1), ifc)
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
}

// sinkMap keeps the reference map of TestConfigureBeforeFirstReadIsLinear
// on the heap, where the Stack's map lives.
var sinkMap map[Addr]Iface

// TestConfigureBeforeFirstReadIsLinear: a build writes the writers' copy
// in place, so n routes installed before the first packet cost what one
// map of n entries costs, not a copy of the table per route.
func TestConfigureBeforeFirstReadIsLinear(t *testing.T) {
	const routes = 4096
	ifc := &testIfc{"out"}
	plain := allocBytes(func() {
		m := map[Addr]Iface{}
		for k := 0; k < routes; k++ {
			m[Addr(k)] = ifc
		}
		sinkMap = m
	})
	s := newTestStack()
	got := allocBytes(func() {
		for k := 0; k < routes; k++ {
			s.AddRoute(Addr(k), ifc)
		}
	})
	if got >= 2*plain {
		t.Errorf("%d AddRoute calls allocated %d B, one map of %d entries %d B: want under twice that", routes, got, routes, plain)
	}
	if s.Route(routes-1) != Iface(ifc) {
		t.Errorf("Route(%d) = %v after the build", routes-1, s.Route(routes-1))
	}
}

// allocBytes returns the bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
