package planpd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/netsim"
)

// rejectBody is a planpd 422: the rendered error plus one span.
const rejectBody = `{"error":"stage rejected: type error",` +
	`"diagnostics":[{"pos":{"line":3,"col":7},"end":{"line":3,"col":12},"msg":"boom"}]}`

// TestDiagErrorDecoding: a planpd 422 body with structured diagnostics
// decodes into a DiagError that keeps the spans; a non-JSON rejection
// is a DiagError too, with its trimmed text and no diagnostics.
func TestDiagErrorDecoding(t *testing.T) {
	de := rejection("stage", http.StatusUnprocessableEntity, []byte(rejectBody))
	if de.Status != http.StatusUnprocessableEntity || de.Message != "stage rejected: type error" {
		t.Errorf("decoded %+v", de)
	}
	ds := de.Diagnostics()
	if len(ds) != 1 || ds[0].Pos.Line != 3 || ds[0].Pos.Col != 7 || ds[0].Msg != "boom" {
		t.Errorf("diagnostics = %+v", ds)
	}

	plain := rejection("stage", http.StatusBadGateway, []byte("upstream sad\n"))
	if plain.Error() != "stage: HTTP 502: upstream sad" || plain.Diagnostics() != nil {
		t.Errorf("plain-text rejection = %q with diagnostics %+v", plain, plain.Diagnostics())
	}
}

// TestExchangeContract pins what the one control-plane client makes of
// each kind of answer: a 2xx decodes into the caller's wire type; an
// answer over the bound is refused whole, declared or chunked; a body
// short of its Content-Length never arrived; a non-2xx status is a
// DiagError, with spans when it is a Reject and with its text when it
// is not (or names a position this client cannot hold); a 2xx that does
// not decode is a decode error, not a rejection.
func TestExchangeContract(t *testing.T) {
	const limit = 256
	// Pos fields are int32s: a Reject naming line 2^31 is not
	// one this client can decode, so it keeps the text alone.
	const overflowReject = `{"error":"stage rejected",` +
		`"diagnostics":[{"pos":{"line":2147483648,"col":1},"msg":"boom"}]}`
	oversized := `{"node":"` + strings.Repeat("a", limit) + `"}`
	asReject := func(t *testing.T, err error) *DiagError {
		t.Helper()
		var de *DiagError
		if !errors.As(err, &de) || errors.Is(err, ErrNoAnswer) {
			t.Fatalf("error %v (%T), want a *DiagError alone", err, err)
		}
		return de
	}
	for _, tc := range []struct {
		name   string
		status int
		body   string
		length int // Content-Length: 0 the body's own, -1 chunked, else declared
		check  func(t *testing.T, err error, got Health)
	}{
		{name: "2xx decodes", status: http.StatusOK, body: `{"ok":true,"node":"n0"}`,
			check: func(t *testing.T, err error, got Health) {
				if err != nil || !got.OK || got.Node != "n0" {
					t.Errorf("err %v, decoded %+v", err, got)
				}
			}},
		{name: "oversized, declared", status: http.StatusOK, body: oversized,
			check: func(t *testing.T, err error, _ Health) {
				if !errors.Is(err, ErrTooLarge) || !errors.Is(err, ErrNoAnswer) {
					t.Errorf("error %v, want ErrTooLarge and ErrNoAnswer", err)
				}
			}},
		{name: "oversized, chunked", status: http.StatusOK, body: oversized, length: -1,
			check: func(t *testing.T, err error, _ Health) {
				if !errors.Is(err, ErrTooLarge) || !errors.Is(err, ErrNoAnswer) {
					t.Errorf("error %v, want ErrTooLarge and ErrNoAnswer", err)
				}
			}},
		{name: "short of its Content-Length", status: http.StatusOK, body: `{"ok":tr`, length: 64,
			check: func(t *testing.T, err error, _ Health) {
				if !errors.Is(err, ErrNoAnswer) || errors.Is(err, ErrTooLarge) {
					t.Errorf("error %v, want ErrNoAnswer alone", err)
				}
			}},
		{name: "422 Reject", status: http.StatusUnprocessableEntity, body: rejectBody,
			check: func(t *testing.T, err error, _ Health) {
				de := asReject(t, err)
				ds := de.Diagnostics()
				if de.Op != "probe" || de.Status != 422 || de.Message != "stage rejected: type error" ||
					len(ds) != 1 || ds[0].Pos.Line != 3 || ds[0].End.Col != 12 || ds[0].Msg != "boom" {
					t.Errorf("rejection %+v, diagnostics %+v", de, ds)
				}
			}},
		{name: "422 Reject with a position past int32", status: http.StatusUnprocessableEntity, body: overflowReject + "\n",
			check: func(t *testing.T, err error, _ Health) {
				de := asReject(t, err)
				if de.Status != 422 || de.Message != overflowReject || de.Diagnostics() != nil {
					t.Errorf("rejection %+v, want the trimmed text and no diagnostics", de)
				}
			}},
		{name: "plain-text 502", status: http.StatusBadGateway, body: "upstream sad\n",
			check: func(t *testing.T, err error, _ Health) {
				de := asReject(t, err)
				if err.Error() != "probe: HTTP 502: upstream sad" || de.Diagnostics() != nil {
					t.Errorf("rejection %q, diagnostics %+v", err, de.Diagnostics())
				}
			}},
		{name: "2xx that does not decode", status: http.StatusOK, body: `{"ok":"yes"}`,
			check: func(t *testing.T, err error, _ Health) {
				var de *DiagError
				if err == nil || errors.As(err, &de) || errors.Is(err, ErrNoAnswer) ||
					!strings.HasPrefix(err.Error(), "probe: decoding: ") {
					t.Errorf("error %v, want a decode error naming the op", err)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch tc.length {
				case 0:
					w.Header().Set("Content-Length", strconv.Itoa(len(tc.body)))
				case -1:
				default:
					w.Header().Set("Content-Length", strconv.Itoa(tc.length))
				}
				w.WriteHeader(tc.status)
				if tc.length < 0 {
					w.(http.Flusher).Flush()
				}
				io.WriteString(w, tc.body)
			}))
			defer srv.Close()
			var got Health
			err := Exchange(context.Background(), srv.Client(), "probe", http.MethodGet, srv.URL, "", limit, &got)
			tc.check(t, err, got)
		})
	}
}

// TestExchangeSends: a body goes out as text/plain under the caller's
// method, and a request the transport cannot deliver never arrived.
func TestExchangeSends(t *testing.T) {
	var got string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		got = r.Method + " " + r.Header.Get("Content-Type") + " " + string(b)
	}))
	if err := Exchange(context.Background(), srv.Client(), "stage", http.MethodPost, srv.URL, "src", 16, nil); err != nil {
		t.Fatal(err)
	}
	if got != "POST text/plain src" {
		t.Errorf("server saw %q", got)
	}
	srv.Close()
	if err := Exchange(context.Background(), srv.Client(), "stage", http.MethodPost, srv.URL, "src", 16, nil); !errors.Is(err, ErrNoAnswer) {
		t.Errorf("closed server: error %v, want ErrNoAnswer", err)
	}
}

// FuzzHealthzSignature: whatever a prober puts in ?signature=, /healthz
// answers 200 with a Health — on a bare node and on one running an
// in-tree ASP — and leaves the signature out exactly when the query
// names the active version's digest.
func FuzzHealthzSignature(f *testing.F) {
	sim := netsim.New(netsim.WithSeed(1))
	bare := NewServer(netsim.NewNode(sim, "bare", netsim.Addr(0x0A000001)), nil).Handler()
	active := NewServer(netsim.NewNode(sim, "gw", netsim.Addr(0x0A000002)), nil).Handler()
	rec := httptest.NewRecorder()
	active.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/asp?verify=single&version=v1", strings.NewReader(asp.HTTPGateway)))
	if rec.Code != http.StatusOK {
		f.Fatalf("installing the gateway ASP: HTTP %d: %s", rec.Code, rec.Body)
	}
	probe := func(h http.Handler, query string) (Health, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz?"+query, nil))
		var got Health
		if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != http.StatusOK || err != nil {
			return got, fmt.Errorf("HTTP %d (%v): %s", rec.Code, err, rec.Body)
		}
		return got, nil
	}
	h, err := probe(active, "")
	digest := h.SignatureDigest
	if err != nil || digest == "" || h.Signature == nil {
		f.Fatalf("active node's health %+v (%v) names no signature", h, err)
	}

	for _, seed := range []string{"", digest, digest[:len(digest)-1], strings.ToUpper(digest),
		digest + "\x00", "&signature=" + digest, "%zz", "\xff\xfe"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, sig string) {
		query := url.Values{"signature": {sig}}.Encode()
		for _, node := range []struct {
			h      http.Handler
			digest string
		}{{bare, ""}, {active, digest}} {
			got, err := probe(node.h, query)
			if err != nil {
				t.Fatalf("signature=%q: %v, want a 200 Health", sig, err)
			}
			if !got.OK || got.SignatureDigest != node.digest {
				t.Fatalf("signature=%q: health %+v, want ok with digest %q", sig, got, node.digest)
			}
			if wantSig := node.digest != "" && sig != node.digest; (got.Signature != nil) != wantSig {
				t.Fatalf("signature=%q on digest %q: signature sent = %v, want %v", sig, node.digest, got.Signature != nil, wantSig)
			}
		}
	})
}
