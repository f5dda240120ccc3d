package substrate

import "testing"

// TestPacketPathAllocs (one per package on the packet path; CI runs them
// by name): NewTCP and NewUDP build packet and transport header in one
// allocation, and the shared block changes nothing about copying — a
// Clone shares the header, a CloneMut owns its own.
func TestPacketPathAllocs(t *testing.T) {
	payload := []byte("GET /")
	var p *Packet
	if n := testing.AllocsPerRun(200, func() { p = NewTCP(1, 2, 3, 80, 7, FlagSyn, payload) }); n != 1 {
		t.Errorf("NewTCP allocates %.1f/op, want 1", n)
	}
	if n := testing.AllocsPerRun(200, func() { p = NewUDP(1, 2, 3, 53, payload) }); n != 1 {
		t.Errorf("NewUDP allocates %.1f/op, want 1", n)
	}
	if p.UDP == nil || *p.UDP != (UDPHeader{SrcPort: 3, DstPort: 53}) || p.TCP != nil || p.IP.Proto != ProtoUDP || p.IP.TTL != 64 || p.Owned() {
		t.Errorf("NewUDP built %+v", p)
	}

	p = NewTCP(1, 2, 3, 80, 7, FlagSyn, payload)
	if want := (TCPHeader{SrcPort: 3, DstPort: 80, Seq: 7, Flags: FlagSyn, Window: 65535}); *p.TCP != want || p.UDP != nil || p.IP.Proto != ProtoTCP {
		t.Errorf("NewTCP built %+v / %+v", p, p.TCP)
	}
	if c := p.Clone(); c.TCP != p.TCP || &c.Payload[0] != &p.Payload[0] || c == p {
		t.Error("Clone of a NewTCP packet does not share header and payload")
	}
	m := p.CloneMut()
	m.TCP.DstPort, m.Payload[0] = 8080, 'P'
	if p.TCP.DstPort != 80 || payload[0] != 'G' {
		t.Error("CloneMut of a NewTCP packet writes through to the original")
	}
}
