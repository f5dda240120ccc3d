package verify

import (
	"fmt"
	"strings"
	"testing"

	"planp.dev/planp/internal/lang/langtest"
)

// TestPoolDropsOversized: a workspace that grew past maxPooled on a
// program far larger than any in-tree ASP (a channel binding 2 ×
// maxPooled locals, so its frame alone outgrows the arena's bound) is
// dropped, not pooled, so one huge upload does not make every later
// run clear a workspace of its size.
func TestPoolDropsOversized(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("channel network(ps : int, ss : int, p : ip*udp*blob) is\n  let\n")
	for i := 0; i < 2*maxPooled; i++ {
		fmt.Fprintf(&sb, "    val x%d : int = %d\n", i, i)
	}
	sb.WriteString("  in\n    (deliver(p); (ps, ss))\n  end\n")
	if r := Verify(langtest.CheckSrc(t, sb.String())); !r.AllOK() {
		t.Fatalf("oversized program fails verification:\n%s", r)
	}
	for ws, _ := workspaces.Get().(*workspace); ws != nil; ws, _ = workspaces.Get().(*workspace) {
		if cap(ws.avals) > maxPooled || len(ws.avals) > 0 || len(ws.index) > 0 {
			t.Fatalf("pooled workspace holds %d values' room (%d in use) and %d states; the bound is %d and a pooled one is empty",
				cap(ws.avals), len(ws.avals), len(ws.index), maxPooled)
		}
	}
}
