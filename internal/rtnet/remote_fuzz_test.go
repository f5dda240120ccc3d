package rtnet

import (
	"bytes"
	"testing"

	"planp.dev/planp/internal/substrate"
)

// FuzzParseRemoteFrame hammers the cross-host frame decoder with
// hostile datagrams. The decoder's contract: never panic, never accept
// a frame with trailing garbage, and round-trip every frame our own
// encoders produce.
func FuzzParseRemoteFrame(f *testing.F) {
	// Seed corpus: one of each frame our encoders emit, plus wire-coded
	// data and classic truncations.
	f.Add(appendPeerFrame(nil, frameHello, 12345, "gateway", 42, "gateway-server0", 10_000_000))
	f.Add(appendPeerFrame(nil, frameWelcome, 1, "a", 1, "a-b", 0))
	f.Add(appendRejectFrame(nil, RejectVersion, "protocol version 2, this endpoint speaks 1"))
	f.Add([]byte{framePing, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{framePong, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{frameBye})
	wire, err := substrate.AppendWire([]byte{frameData}, substrate.NewUDP(1, 2, 9, 7, []byte("payload")))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wire)
	f.Add([]byte{})
	f.Add([]byte{frameHello})
	f.Add([]byte{frameHello, 0, 1})
	f.Add([]byte{frameReject, RejectIdentity})
	f.Add([]byte{0x00, 0x01, 0x02})

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := parseRemoteFrame(b)
		if err != nil {
			return
		}
		switch fr.typ {
		case frameData:
			if len(fr.data) == 0 {
				t.Fatalf("accepted a data frame with no packet bytes")
			}
		case frameHello, frameWelcome:
			// Accepted handshake frames must re-encode byte-identically
			// when they claim our protocol version — the codec has no
			// room for two encodings of one frame.
			if fr.hello.version == RemoteProtoVersion {
				enc := appendPeerFrame(nil, fr.typ, fr.hello.session,
					fr.hello.node, fr.hello.addr, fr.hello.link, fr.hello.bw)
				if !bytes.Equal(enc, b) {
					t.Fatalf("handshake frame did not round-trip:\n in  %x\n out %x", b, enc)
				}
			}
			if len(fr.hello.node) > 255 || len(fr.hello.link) > 255 {
				t.Fatalf("accepted oversized handshake strings")
			}
			if fr.hello.bw < 0 {
				t.Fatalf("accepted negative bandwidth")
			}
		case frameReject:
			if fr.reject.PeerVersion == RemoteProtoVersion {
				enc := appendRejectFrame(nil, fr.reject.Code, fr.reject.Msg)
				if !bytes.Equal(enc, b) {
					t.Fatalf("reject frame did not round-trip:\n in  %x\n out %x", b, enc)
				}
			}
		case framePing, framePong, frameBye:
			// Session payloads have no further invariants.
		default:
			t.Fatalf("decoder accepted unknown frame type %#x", fr.typ)
		}
	})
}

// FuzzParseWireDatagram drives the receive path's own decode step,
// decodeDatagram, with b as the packet bytes of a data frame — any
// input must yield an owned packet or an error, never a panic, and a
// decoded packet must re-encode.
func FuzzParseWireDatagram(f *testing.F) {
	good, err := substrate.AppendWire(nil, substrate.NewUDP(0x0A000001, 0x0A000002, 9, 7, []byte("x")))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, pkt, err := decodeDatagram(append([]byte{frameData}, b...))
		if err != nil {
			return
		}
		if fr.typ != frameData || pkt == nil || !pkt.Owned() {
			t.Fatalf("data frame decoded to typ %#x, packet %v", fr.typ, pkt)
		}
		if _, err := substrate.AppendWire(nil, pkt); err != nil {
			t.Fatalf("decoded packet failed to re-encode: %v", err)
		}
	})
}
