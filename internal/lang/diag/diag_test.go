package diag

import (
	"math"
	"testing"

	"planp.dev/planp/internal/lang/token"
)

// TestRenderEdgeColumns: Render takes spans from peers as well as from
// the front end, so a column at the edge of 32 bits must render an
// excerpt clamped to the line, not panic or allocate a line of carets
// as long as the span claims; a column before the line renders none.
func TestRenderEdgeColumns(t *testing.T) {
	const src = "val x : int = 1\nval y\t: int = 2"
	pos := func(line, col int32) token.Pos { return token.Pos{Line: line, Col: col} }
	for _, tc := range []struct {
		name string
		d    Diagnostic
		want string
	}{
		{"a span in the line", Diagnostic{Pos: pos(1, 5), End: pos(1, 6), Msg: "m"},
			"p:1:5: m\n  val x : int = 1\n      ^\n"},
		{"column at MaxInt32", Diagnostic{Pos: pos(2, math.MaxInt32), Msg: "m"},
			"p:2:2147483647: m\n  val y\t: int = 2\n       \t         ^\n"},
		{"end at MaxInt32", Diagnostic{Pos: pos(1, 15), End: pos(1, math.MaxInt32), Msg: "m"},
			"p:1:15: m\n  val x : int = 1\n                ^\n"},
		{"whole line to MaxInt32", Diagnostic{Pos: pos(1, 1), End: pos(1, math.MaxInt32), Msg: "m"},
			"p:1:1: m\n  val x : int = 1\n  ^^^^^^^^^^^^^^^\n"},
		{"column before the line", Diagnostic{Pos: pos(1, math.MinInt32), End: pos(1, math.MaxInt32), Msg: "m"},
			"p:1:-2147483648: m\n"},
		{"line at MaxInt32", Diagnostic{Pos: pos(math.MaxInt32, 1), Msg: "m"},
			"p:2147483647:1: m\n"},
	} {
		if got := Render(src, "p", List{tc.d}); got != tc.want {
			t.Errorf("%s: Render =\n%q\nwant\n%q", tc.name, got, tc.want)
		}
	}
}
