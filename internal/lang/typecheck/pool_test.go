package typecheck

import (
	"fmt"
	"strings"
	"testing"

	"planp.dev/planp/internal/lang/parser"
)

// oversized is a program with n top-level vals and a channel that
// binds n locals: far larger than any in-tree ASP, as an upload of
// planpd's full 1 MiB can be.
func oversized(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "val g%d : int = %d\n", i, i)
	}
	sb.WriteString("channel network(ps : int, ss : int, p : ip*udp*blob) is\n  let\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "    val x%d : int = g%d\n", i, i)
	}
	sb.WriteString("  in\n    (deliver(p); (ps, ss))\n  end\n")
	return sb.String()
}

// TestPoolDropsOversized: a checker whose tables grew past maxPooled is
// dropped, not pooled, so one huge upload does not make every later
// check clear tables of its size.
func TestPoolDropsOversized(t *testing.T) {
	prog, err := parser.Parse(oversized(2 * maxPooled))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Check(prog); err != nil {
		t.Fatal(err)
	}
	for c, _ := checkers.Get().(*checker); c != nil; c, _ = checkers.Get().(*checker) {
		if cap(c.binds) > maxPooled || cap(c.sends) > maxPooled || len(c.globalIdx)+len(c.funIdx)+len(c.inScope)+len(c.sends) > 0 {
			t.Fatalf("pooled checker holds %d bindings' and %d sends' room and %d+%d+%d names and %d sends; the bound is %d and a pooled one is empty",
				cap(c.binds), cap(c.sends), len(c.globalIdx), len(c.funIdx), len(c.inScope), len(c.sends), maxPooled)
		}
	}
}
