package adapt

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// FuzzCanaryRequest hammers the POST /adapt decoder — a body any
// control-plane client can send — through CanaryRequest.Plan and
// ParseGuards. The contract: never panic; the same input gives the same
// error text (a 422 an operator can act on, not one that changes
// between retries); and a guard that is accepted is a finite bound that
// survives String → ParseGuard unchanged. Nothing here touches the
// network: the handler's run loop is not part of the target.
func FuzzCanaryRequest(f *testing.F) {
	f.Add([]byte(`{"version":"v2","source":"channel network(...)","canary":[{"Name":"gw","URL":"http://127.0.0.1:1/node/gw"}],` +
		`"guards":["node.{node}.drops<=0.5","asp.{node}.faults<=2x+1"],"windows":2,"interval_ms":250}`))
	f.Add([]byte(`{"source":"s","canary":[{"Name":"a"}],"guards":["m<=NaN"]}`))
	f.Add([]byte(`{"source":"s","canary":[{"Name":"a"}],"guards":["m<=1x-3"]}`))
	f.Add([]byte(`{"source":"","canary":[]}`))
	f.Add([]byte(`{"guards":[1]}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		var req CanaryRequest
		if json.Unmarshal(body, &req) != nil {
			return // startRun answers 400 before Plan sees anything
		}
		plan, err := req.Plan()
		if _, again := req.Plan(); fmt.Sprint(again) != fmt.Sprint(err) {
			t.Fatalf("same request, different errors:\n%v\n%v", err, again)
		}
		if err != nil {
			return
		}
		if req.Source == "" || len(req.Canary) == 0 {
			t.Fatalf("accepted a request without source or canary: %+v", req)
		}
		for _, g := range plan.Guards {
			back, err := ParseGuard(g.String())
			if err != nil || !reflect.DeepEqual(back, g) {
				t.Fatalf("guard %+v prints as %q, which parses to %+v (%v)", g, g, back, err)
			}
		}
	})
}
