package ast

import (
	"strings"
	"testing"
)

func TestTypeStrings(t *testing.T) {
	cases := map[string]Type{
		"int":                     IntT,
		"ip*tcp*blob":             Tuple{Elems: []Type{IPT, TCPT, BlobT}},
		"(host) hash_table":       Table{Elem: HostT},
		"(int) list":              List{Elem: IntT},
		"(int*host) hash_table":   Table{Elem: Tuple{Elems: []Type{IntT, HostT}}},
		"((int) list) hash_table": Table{Elem: List{Elem: IntT}},
		"int*(bool*char)*string":  Tuple{Elems: []Type{IntT, Tuple{Elems: []Type{BoolT, CharT}}, StringT}},
		"((int) hash_table) list": List{Elem: Table{Elem: IntT}},
		"('a) list":               List{Elem: TypeVar{Name: "a"}},
		"(int*(bool*char)) hash_table*unit": Tuple{Elems: []Type{
			Table{Elem: Tuple{Elems: []Type{IntT, Tuple{Elems: []Type{BoolT, CharT}}}}}, UnitT}},
	}
	for want, typ := range cases {
		if got := typ.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
		if _, ok := typ.(Base); ok || strings.Contains(want, "'") {
			continue
		}
		// A compound type renders into one string, not one per element.
		if n := testing.AllocsPerRun(10, func() { _ = typ.String() }); n != 1 {
			t.Errorf("%s: String allocates %.0f times, want 1", want, n)
		}
	}
}

func TestTypeEqual(t *testing.T) {
	cases := []struct {
		a, b Type
		want bool
	}{
		{IntT, IntT, true},
		{IntT, BoolT, false},
		{Tuple{Elems: []Type{IntT, HostT}}, Tuple{Elems: []Type{IntT, HostT}}, true},
		{Tuple{Elems: []Type{IntT}}, Tuple{Elems: []Type{IntT, IntT}}, false},
		{Tuple{Elems: []Type{IntT}}, IntT, false},
		{Table{Elem: IntT}, Table{Elem: IntT}, true},
		{Table{Elem: IntT}, Table{Elem: BoolT}, false},
		{Table{Elem: IntT}, List{Elem: IntT}, false},
		{List{Elem: StringT}, List{Elem: StringT}, true},
		{nil, IntT, false},
	}
	for i, tc := range cases {
		if got := Equal(tc.a, tc.b); got != tc.want {
			t.Errorf("case %d: Equal(%v, %v) = %v", i, tc.a, tc.b, got)
		}
	}
}

func TestIsEquality(t *testing.T) {
	if !IsEquality(IntT) || !IsEquality(BlobT) || !IsEquality(IPT) {
		t.Error("base types are equality types")
	}
	if !IsEquality(Tuple{Elems: []Type{IntT, HostT}}) {
		t.Error("tuples of equality types are equality types")
	}
	if IsEquality(Table{Elem: IntT}) {
		t.Error("tables are not equality types")
	}
	if IsEquality(Tuple{Elems: []Type{IntT, Table{Elem: IntT}}}) {
		t.Error("tuples containing tables are not equality types")
	}
	if !IsEquality(List{Elem: IntT}) || IsEquality(List{Elem: Table{Elem: IntT}}) {
		t.Error("list equality follows the element type")
	}
}

func TestProgramAccessors(t *testing.T) {
	prog := &Program{Decls: []Decl{
		&ValDecl{Name: "v", Type: IntT},
		&FunDecl{Name: "f", Ret: IntT},
		&ChannelDecl{Name: "c", Params: []Param{
			{Name: "ps", Type: IntT},
			{Name: "ss", Type: UnitT},
			{Name: "p", Type: Tuple{Elems: []Type{IPT, BlobT}}},
		}},
	}}
	if len(prog.Vals()) != 1 || len(prog.Funs()) != 1 || len(prog.Channels()) != 1 {
		t.Error("accessors miscount")
	}
	ch := prog.Channels()[0]
	if !Equal(ch.ProtoState(), IntT) || !Equal(ch.ChanState(), UnitT) {
		t.Error("state accessors")
	}
	if !Equal(ch.PacketType(), Tuple{Elems: []Type{IPT, BlobT}}) {
		t.Error("packet accessor")
	}
	for _, d := range prog.Decls {
		if d.DeclName() == "" {
			t.Error("empty decl name")
		}
	}
}

func TestExprStringQuoting(t *testing.T) {
	e := &StringLit{Value: "a\n\"b\"\\"}
	got := ExprString(e)
	if got != `"a\n\"b\"\\"` {
		t.Errorf("quoted = %s", got)
	}
	c := &CharLit{Value: '\n'}
	if got := ExprString(c); got != `'\n'` {
		t.Errorf("char = %s", got)
	}
}

func TestPrintParenthesizesAmbiguity(t *testing.T) {
	// (1+2)*3 must not print as 1+2*3.
	e := &Binary{Op: "*",
		L: &Binary{Op: "+", L: &IntLit{Value: 1}, R: &IntLit{Value: 2}},
		R: &IntLit{Value: 3}}
	got := ExprString(e)
	if !strings.Contains(got, "(1 + 2)") {
		t.Errorf("printed %q", got)
	}
}
