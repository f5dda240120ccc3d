package asp_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/lang/diag"
	"planp.dev/planp/internal/lang/parser"
	"planp.dev/planp/internal/lang/typecheck"
)

// wantRe matches one expectation annotation inside a malformed program:
//
//	-- want: <line>:<col>-<line>:<col> <message substring>
var wantRe = regexp.MustCompile(`(?m)^-- want: (\d+):(\d+)-(\d+):(\d+) (.+)$`)

// TestMalformedCorpus runs the checker over every program in
// testdata/malformed and compares the collected diagnostics — all of
// them, with exact start and end positions — against the program's own
// "-- want:" annotations. This pins multi-error collection (independent
// errors in one run) and span accuracy (both columns of the underline).
func TestMalformedCorpus(t *testing.T) {
	files, err := filepath.Glob("testdata/malformed/*.planp")
	if err != nil || len(files) == 0 {
		t.Fatalf("no malformed corpus found: %v", err)
	}
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			src := string(raw)
			wants := wantRe.FindAllStringSubmatch(src, -1)
			if len(wants) == 0 {
				t.Fatalf("%s has no -- want: annotations", path)
			}

			prog, err := parser.Parse(src)
			if err == nil {
				_, err = typecheck.Check(prog)
			}
			if err == nil {
				t.Fatalf("%s checked cleanly, want %d diagnostics", path, len(wants))
			}
			ds := diag.Of(err)
			if len(ds) != len(wants) {
				t.Fatalf("%s produced %d diagnostics, want %d:\n%v", path, len(ds), len(wants), err)
			}
			for i, w := range wants {
				want := fmt.Sprintf("%s:%s - %s:%s", w[1], w[2], w[3], w[4])
				got := fmt.Sprintf("%s - %s", ds[i].Pos, ds[i].End)
				if got != want {
					t.Errorf("diagnostic %d spans %s, want %s (%s)", i, got, want, ds[i].Msg)
				}
				if !strings.Contains(ds[i].Msg, w[5]) {
					t.Errorf("diagnostic %d = %q, want substring %q", i, ds[i].Msg, w[5])
				}
			}
		})
	}
}

// TestTypecheckErrorAccessors: a multi-error check is one *typecheck.
// Error, reachable via errors.As, exposing every diagnostic and the
// first one individually; its rendered form names each position.
func TestTypecheckErrorAccessors(t *testing.T) {
	raw, err := os.ReadFile("testdata/malformed/scalars.planp")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	_, err = typecheck.Check(prog)
	var te *typecheck.Error
	if !errors.As(err, &te) {
		t.Fatalf("error is %T, want *typecheck.Error: %v", err, err)
	}
	if len(te.Diagnostics()) != 4 {
		t.Fatalf("Diagnostics() = %d entries, want 4", len(te.Diagnostics()))
	}
	if first := te.First(); first != te.Diagnostics()[0] {
		t.Errorf("First() = %+v, want the first diagnostic", first)
	}
	// One rendered line per error, each carrying its position.
	lines := strings.Split(err.Error(), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered error has %d lines, want 4:\n%s", len(lines), err)
	}
	for i, ln := range lines {
		if !strings.Contains(ln, te.Diagnostics()[i].Pos.String()) {
			t.Errorf("line %d %q does not name its position %s", i, ln, te.Diagnostics()[i].Pos)
		}
	}
}

// TestSignatureExtraction: every in-tree program yields a channel
// signature with resolved packet types and valid source spans — the
// artifact the fleet compatibility gate compares across versions.
func TestSignatureExtraction(t *testing.T) {
	files, err := filepath.Glob("*.planp")
	if err != nil || len(files) == 0 {
		t.Fatalf("no in-tree programs found: %v", err)
	}
	for _, path := range files {
		t.Run(path, func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			info := check(t, path, string(raw))
			sig := info.Sig
			if sig == nil {
				t.Fatal("Check left Info.Sig nil")
			}
			if sig.ProtoState == "" {
				t.Error("signature has no protocol-state type")
			}
			if len(sig.Channels) == 0 {
				t.Fatal("signature lists no channels")
			}
			for _, ch := range sig.Channels {
				if ch.Name == "" || ch.Packet == "" {
					t.Errorf("channel entry incomplete: %+v", ch)
				}
				if !ch.Pos.IsValid() || !ch.End.IsValid() {
					t.Errorf("channel %s(%s) header span invalid: %s-%s", ch.Name, ch.Packet, ch.Pos, ch.End)
				}
				for _, snd := range ch.Sends {
					if snd.Channel == "" || snd.Packet == "" {
						t.Errorf("channel %s: unresolved send %+v", ch.Name, snd)
					}
					if !snd.Pos.IsValid() || !snd.End.IsValid() {
						t.Errorf("channel %s: send to %s has invalid span %s-%s", ch.Name, snd.Channel, snd.Pos, snd.End)
					}
				}
			}
		})
	}
}

// TestSignatureMPEGMonitor pins the richest in-tree signature: the
// monitor's four channel definitions (one reply channel plus three
// network overloads) and its cross-channel send.
func TestSignatureMPEGMonitor(t *testing.T) {
	info := check(t, "mpeg-monitor", asp.MPEGMonitor)
	sig := info.Sig
	if got := len(sig.Channels); got != 4 {
		t.Fatalf("mpeg-monitor defines %d channels, want 4", got)
	}
	if got := len(sig.ChannelsNamed("network")); got != 3 {
		t.Errorf("network has %d overloads, want 3", got)
	}
	var query *typecheck.ChannelSig
	for i := range sig.Channels {
		if sig.Channels[i].Name == "network" && sig.Channels[i].Packet == "ip*udp*char*int" {
			query = &sig.Channels[i]
		}
	}
	if query == nil {
		t.Fatal("query overload ip*udp*char*int not in signature")
	}
	if len(query.Sends) != 1 {
		t.Fatalf("query overload records %d sends, want 1: %+v", len(query.Sends), query.Sends)
	}
	snd := query.Sends[0]
	if snd.Channel != "mreply" || snd.Packet != "ip*udp*host*int*blob" || snd.Flood {
		t.Errorf("query send = %+v, want OnRemote(mreply, ip*udp*host*int*blob)", snd)
	}
}

// pinnedDigests are the in-tree programs' signature digests. Persisted
// deployment histories and the health probe's ?signature= compare them
// across releases, so a change to how a signature is represented in
// memory must leave every one as it is.
var pinnedDigests = map[string]string{
	"audio_client.planp":           "843dd2d99efa1f7c3da08e4eceb023d7",
	"audio_router.planp":           "2eb77e044352c9719a3847a3bb5e44be",
	"bench_compute.planp":          "29c4dcd3b0ef8085146581c7898e10d0",
	"http_gateway.planp":           "05030ba6eba78120d70342c638cb3bf0",
	"http_gateway_failover.planp":  "773d3af85d8bc689cd2e576d48d226c3",
	"http_gateway_leastconn.planp": "d3b98559ae7f04cc81ee650b275052fc",
	"http_gateway_random.planp":    "d74974850fd9133681965c96d80dca7d",
	"mpeg_client.planp":            "28e69b7277f8afc8a81b1fa56f12501a",
	"mpeg_monitor.planp":           "1f83f9079dad05c070163dc670dc81cc",
}

// TestSignatureDigest: every in-tree program's signature survives the
// JSON round trip the health probe puts it through — same value, same
// digest — so a signature a controller decoded and one it extracted
// itself are interchangeable; programs with different interfaces have
// different digests; and each digest is the pinned one.
func TestSignatureDigest(t *testing.T) {
	if (*typecheck.Signature)(nil).Digest() != "" {
		t.Error("a nil signature has a digest")
	}
	files, err := filepath.Glob("*.planp")
	if err != nil || len(files) != len(pinnedDigests) {
		t.Fatalf("%d in-tree programs (%v), %d pinned digests", len(files), err, len(pinnedDigests))
	}
	byDigest := map[string]*typecheck.Signature{}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sig := check(t, path, string(raw)).Sig
		d := sig.Digest()
		if len(d) != 32 || strings.Trim(d, "0123456789abcdef") != "" {
			t.Errorf("%s: digest %q is not 128 bits of hex", path, d)
		}
		if want := pinnedDigests[path]; d != want {
			t.Errorf("%s: digest %s, pinned %q", path, d, want)
		}
		raw, err = json.Marshal(sig)
		if err != nil {
			t.Fatal(err)
		}
		var back *typecheck.Signature
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, sig) || back.Digest() != d {
			t.Errorf("%s: signature changed in the JSON round trip", path)
		}
		if other, ok := byDigest[d]; ok && !reflect.DeepEqual(other, sig) {
			t.Errorf("%s shares digest %s with a different signature", path, d)
		}
		byDigest[d] = sig
	}
}
