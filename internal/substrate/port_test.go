package substrate

import (
	"testing"
	"time"

	"planp.dev/planp/internal/obs"
)

// recordingMedium carries every copy and, like the peer that takes an
// owned packet, rewrites what it took.
type recordingMedium struct {
	env     Env
	ct      LinkCounters
	carried []*Packet
	ttls    []uint8 // each copy's TTL as it was carried
	delays  []time.Duration
}

func (m *recordingMedium) Carry(pkt *Packet, delay time.Duration) string {
	m.carried = append(m.carried, pkt)
	m.ttls = append(m.ttls, pkt.IP.TTL)
	m.delays = append(m.delays, delay)
	pkt.IP.TTL = 0
	return ""
}

func (m *recordingMedium) Wire() (string, Env, LinkCounters) { return "a:b", m.env, m.ct }

// TestTransmitOrder: the FaultAction rule's order. The duplicates are
// cloned before the original leaves, the original is carried first and
// the duplicates after it, and every copy carries the delay.
func TestTransmitOrder(t *testing.T) {
	reg := obs.NewRegistry()
	m := &recordingMedium{env: idleEnv{testEnv{reg: reg}}, ct: NewLinkCounters(reg, "a:b")}
	var p Port
	p.SetFault(func(*Packet) FaultAction { return FaultAction{Dup: 2, Delay: time.Second} })
	pkt := NewUDP(1, 2, 9, 7, []byte{0}).Own()
	pkt.IP.TTL = 9
	p.Transmit(m, pkt)

	if len(m.carried) != 3 || m.carried[0] != pkt {
		t.Fatalf("carried %d copies, the original first: %v; want 3 and true", len(m.carried), len(m.carried) > 0 && m.carried[0] == pkt)
	}
	for k := range m.carried {
		if m.delays[k] != time.Second {
			t.Errorf("copy %d carried delay %v, want 1s", k, m.delays[k])
		}
	}
	// The medium rewrote the original when it took it; clones taken
	// after that would have inherited the rewrite.
	for k, ttl := range m.ttls[1:] {
		if ttl != 9 {
			t.Errorf("duplicate %d was cloned after the original left", k)
		}
	}
}

// idleEnv is a testEnv whose bus nobody listens to.
type idleEnv struct{ testEnv }

func (idleEnv) Events() *obs.Bus { return nil }
