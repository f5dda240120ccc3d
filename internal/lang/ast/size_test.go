package ast

import (
	"reflect"
	"testing"

	"planp.dev/planp/internal/lang/token"
)

// TestNodeSizes pins the layout a cold load allocates: a position is
// two 32-bit fields, so a Pos is 8 bytes and a token 40, and each
// expression node fits the allocator size class named here. A field
// that grows a node past its class costs every parse a heavier tree.
func TestNodeSizes(t *testing.T) {
	for _, tc := range []struct {
		v     any
		size  uintptr
		exact bool // the size itself, not a size class to stay within
	}{
		{token.Pos{}, 8, true},
		{token.Token{}, 40, true},
		{Node{}, 32, true},
		{IntLit{}, 48, false},
		{Var{}, 64, false},
		{Proj{}, 64, false},
		{TupleExpr{}, 64, false},
		{Seq{}, 64, false},
		{Binary{}, 80, false},
		{If{}, 80, false},
		{Let{}, 80, false},
		{Call{}, 96, false},
	} {
		typ := reflect.TypeOf(tc.v)
		if got := typ.Size(); got > tc.size || tc.exact && got != tc.size {
			t.Errorf("%s is %d bytes, want %d (exact: %v)", typ, got, tc.size, tc.exact)
		}
	}
}
