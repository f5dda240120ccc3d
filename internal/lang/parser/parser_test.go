package parser

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/substrate"
)

func parseOK(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return p
}

func exprOK(t *testing.T, src string) ast.Expr {
	t.Helper()
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", src, err)
	}
	return e
}

func TestDeclarations(t *testing.T) {
	p := parseOK(t, `
val a : int = 3
fun f(x : int, y : bool) : int = if y then x else 0
channel network(ps : unit, ss : unit, p : ip*udp*blob) is (deliver(p); (ps, ss))
channel c2(ps : unit, ss : (int) hash_table, p : ip*tcp*blob)
initstate mkTable(4) is (deliver(p); (ps, ss))
`)
	if len(p.Decls) != 4 {
		t.Fatalf("got %d decls", len(p.Decls))
	}
	if len(p.Vals()) != 1 || len(p.Funs()) != 1 || len(p.Channels()) != 2 {
		t.Errorf("vals/funs/channels = %d/%d/%d", len(p.Vals()), len(p.Funs()), len(p.Channels()))
	}
	ch := p.Channels()[1]
	if ch.InitState == nil {
		t.Error("c2 should have an initstate")
	}
	if ch.PacketType().String() != "ip*tcp*blob" {
		t.Errorf("packet type %s", ch.PacketType())
	}
}

func TestPrecedence(t *testing.T) {
	cases := map[string]string{
		"1 + 2 * 3":            "1 + (2 * 3)",
		"1 * 2 + 3":            "(1 * 2) + 3",
		"1 + 2 = 3":            "(1 + 2) = 3",
		"a andalso b orelse c": "(a andalso b) orelse c",
		"a = b andalso c = d":  "(a = b) andalso (c = d)",
		"1 - 2 - 3":            "(1 - 2) - 3",
		`"a" ^ "b" ^ "c"`:      `("a" ^ "b") ^ "c"`,
		"not a andalso b":      "(not a) andalso b",
		"1 + 2 mod 3":          "1 + (2 mod 3)",
		"#1 p = #2 p":          "(#1 p) = (#2 p)",
		// Left associativity, at every level.
		"a orelse b orelse c":   "(a orelse b) orelse c",
		"a andalso b andalso c": "(a andalso b) andalso c",
		"a = b = c":             "(a = b) = c",
		"a ^ b ^ c":             "(a ^ b) ^ c",
		"a - b + c - d":         "((a - b) + c) - d",
		"x * y mod z":           "(x * y) mod z",
		"x / y * z mod w":       "((x / y) * z) mod w",
	}
	// Every ordered pair of binary operators: the tighter one groups
	// first, and at one level the left one does.
	ops := []struct {
		name  string
		level int // 1 loosest ... 5 tightest
	}{
		{"orelse", 1}, {"andalso", 2},
		{"=", 3}, {"<>", 3}, {"<", 3}, {"<=", 3}, {">", 3}, {">=", 3},
		{"+", 4}, {"-", 4}, {"^", 4},
		{"*", 5}, {"/", 5}, {"mod", 5},
	}
	for _, o1 := range ops {
		for _, o2 := range ops {
			src := "a " + o1.name + " b " + o2.name + " c"
			if o1.level >= o2.level {
				cases[src] = "(a " + o1.name + " b) " + o2.name + " c"
			} else {
				cases[src] = "a " + o1.name + " (b " + o2.name + " c)"
			}
		}
		// A prefix form binds tighter than any binary operator, on
		// either side of it; a folded -1 is an atom.
		for _, pre := range []string{"not ", "- ", "raise ", "#1 "} {
			cases[pre+"a "+o1.name+" b"] = "(" + pre + "a) " + o1.name + " b"
			cases["a "+o1.name+" "+pre+"b"] = "a " + o1.name + " (" + pre + "b)"
		}
		cases["-1 "+o1.name+" b"] = "(-1) " + o1.name + " b"
		cases["a "+o1.name+" -1"] = "a " + o1.name + " (-1)"
	}
	for src, expect := range cases {
		a := exprOK(t, src)
		b := exprOK(t, expect)
		if !equalIgnoringPos(a, b) {
			t.Errorf("%q parsed as %s, want %s", src, ast.ExprString(a), ast.ExprString(b))
		}
	}
}

// equalIgnoringPos compares ASTs structurally, ignoring positions and
// resolution fields.
func equalIgnoringPos(a, b ast.Expr) bool {
	return ast.ExprString(a) == ast.ExprString(b) &&
		reflect.TypeOf(a) == reflect.TypeOf(b)
}

func TestParenDisambiguation(t *testing.T) {
	if _, ok := exprOK(t, "()").(*ast.UnitLit); !ok {
		t.Error("() should be unit")
	}
	if _, ok := exprOK(t, "(1)").(*ast.IntLit); !ok {
		t.Error("(1) should unwrap to the inner expression")
	}
	if e, ok := exprOK(t, "(1, 2, 3)").(*ast.TupleExpr); !ok || len(e.Elems) != 3 {
		t.Error("(1,2,3) should be a 3-tuple")
	}
	if e, ok := exprOK(t, "(f(); g(); 3)").(*ast.Seq); !ok || len(e.Exprs) != 3 {
		t.Error("(a;b;c) should be a 3-sequence")
	}
}

func TestNegativeLiteralFold(t *testing.T) {
	for src, want := range map[string]int64{
		"-42":                    -42,
		"- 42":                   -42,
		"-(42)":                  -42,
		"- -42":                  42,
		"9223372036854775807":    math.MaxInt64,
		"-9223372036854775807":   -math.MaxInt64,
		"-9223372036854775808":   math.MinInt64, // 2^63 is no int; its negation is
		"- 9223372036854775808":  math.MinInt64,
		"-09223372036854775808":  math.MinInt64,
		"(-9223372036854775808)": math.MinInt64,
	} {
		lit, ok := exprOK(t, src).(*ast.IntLit)
		if !ok || lit.Value != want {
			t.Errorf("%s = %#v, want the literal %d", src, lit, want)
		}
	}
	// Unary minus on a non-literal stays unary.
	if _, ok := exprOK(t, "- x").(*ast.Unary); !ok {
		t.Error("- x should be unary")
	}
	// The magnitude 2^63 is an int only right after a unary minus.
	for src, want := range map[string]string{
		"9223372036854775808":      "1:1: syntax error: integer literal 9223372036854775808 out of range",
		"1 - 9223372036854775808":  "1:5: syntax error: integer literal 9223372036854775808 out of range",
		"-(9223372036854775808)":   "1:3: syntax error: integer literal 9223372036854775808 out of range",
		"f(9223372036854775808)":   "1:3: syntax error: integer literal 9223372036854775808 out of range",
		"-9223372036854775809":     "1:2: integer literal 9223372036854775809 out of range",
		"-99999999999999999999999": "1:2: integer literal 99999999999999999999999 out of range",
	} {
		if _, err := ParseExpr(src); err == nil || err.Error() != want {
			t.Errorf("ParseExpr(%s) = %v, want %s", src, err, want)
		}
	}
	// What the printer makes of the minimum re-parses to it.
	prog := parseOK(t, "val lo : int = -9223372036854775808")
	back := parseOK(t, ast.Print(prog))
	if lit, ok := back.Vals()[0].Init.(*ast.IntLit); !ok || lit.Value != math.MinInt64 {
		t.Errorf("%q re-parses as %s", ast.Print(prog), ast.Print(back))
	}
}

func TestProjChain(t *testing.T) {
	e := exprOK(t, "#1 #2 p")
	outer, ok := e.(*ast.Proj)
	if !ok || outer.Index != 1 {
		t.Fatalf("got %s", ast.ExprString(e))
	}
	inner, ok := outer.Tuple.(*ast.Proj)
	if !ok || inner.Index != 2 {
		t.Fatalf("inner not a projection: %s", ast.ExprString(e))
	}
}

func TestTypeSyntax(t *testing.T) {
	p := parseOK(t, `
channel network(ps : (int*host) hash_table,
                ss : ((int) list) hash_table,
                p : ip*tcp*char*int*blob) is (deliver(p); (ps, ss))
`)
	ch := p.Channels()[0]
	if got := ch.ProtoState().String(); got != "(int*host) hash_table" {
		t.Errorf("proto state %s", got)
	}
	if got := ch.ChanState().String(); got != "((int) list) hash_table" {
		t.Errorf("chan state %s", got)
	}
}

func TestSyntaxErrors(t *testing.T) {
	cases := []string{
		"",                                // empty program
		"val x : int",                     // missing initializer
		"val x = 3",                       // missing type
		"fun f() = 3",                     // missing return type
		"channel c(ps : int) is (ps, ps)", // wrong arity
		"channel c(a : int, b : int, c : int, d : int) is 0", // wrong arity
		"val x : int = let in 3 end",                         // let without binding
		"val x : int = if 1 then 2",                          // missing else
		"val x : int = (1; 2,3)",                             // mixed seq/tuple
		"val x : int = try 1 handle 2",                       // missing end
		"val x : unknowntype = 3",                            // bad type
		"val x : int = #0 p",                                 // zero projection
		"garbage",                                            // not a decl
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestErrorsCarryPositions(t *testing.T) {
	_, err := Parse("val x : int =\n  if true then 1")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Errorf("error should point at line 2: %v", err)
	}
}

// TestFirstErrorInSourceOrder pins which error a source with several
// reports: the first in source order, whether the lexer or the grammar
// objects to it. (Scanning the whole text first let a stray character on
// the last line hide a syntax error on the first.) Every row that
// lexer.Scan rejects is rejected here too; FuzzParse holds that for any
// input.
func TestFirstErrorInSourceOrder(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"syntax then lexical", "val x int = 1\nval y : int = $", `1:7: syntax error: expected ':', got identifier "int"`},
		{"lexical then syntax", "val x : int = $\nval y int = 1", `1:15: unexpected character "$"`},
		{"lexical only", "val x : int = 1 $", `1:17: unexpected character "$"`},
		{"lexical only, nothing else", "$", `1:1: unexpected character "$"`},
		{"unterminated block comment at EOF", "val x : int = 1\n(* never closed", "2:1: unterminated block comment"},
		{"lexical error inside an open construct", "val x : int = (1,\n  \"open", "2:3: unterminated string literal"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: Parse(%q) = %v, want %s", c.name, c.src, err, c.want)
		}
	}
	for src, want := range map[string]string{
		"1 + $":  `1:5: unexpected character "$"`,
		"1 2 $":  `1:3: syntax error: unexpected integer "2" after expression`,
		"(1, 2$": `1:6: unexpected character "$"`,
	} {
		if _, err := ParseExpr(src); err == nil || err.Error() != want {
			t.Errorf("ParseExpr(%q) = %v, want %s", src, err, want)
		}
	}
}

// TestNestingIsBounded: the largest upload planpd accepts, all of it
// open parentheses, is a syntax error and not a dead process (a stack
// overflow is fatal, not a panic); nesting that real or generated
// programs reach still parses.
func TestNestingIsBounded(t *testing.T) {
	_, err := Parse("val x : int = " + strings.Repeat("(", 1<<20))
	if err == nil || !strings.Contains(err.Error(), "nested more than") {
		t.Errorf("a mebibyte of '(' = %v, want the nesting error", err)
	}
	deep := maxNesting - 1
	if _, err := ParseExpr(strings.Repeat("(", deep) + "1" + strings.Repeat(")", deep)); err != nil {
		t.Errorf("%d levels should parse: %v", deep, err)
	}
}

// aspSources reads every in-tree protocol, keyed by file name.
func aspSources(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "asp", "*.planp"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no asp/*.planp sources: %v", err)
	}
	out := map[string]string{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(f)] = string(b)
	}
	return out
}

// TestParseAllocBytes bounds what Parse allocates by the size of its
// input: the tree it returns and nothing that scales with the token
// count. (A materialised token array alone was 14-56x the source; with
// 16-byte positions two in-tree programs read 8.5x.)
func TestParseAllocBytes(t *testing.T) {
	const runs, factor = 20, 8
	for name, src := range aspSources(t) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := Parse(src); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d B source, %d B allocated (%.1fx)", name, len(src), per, float64(per)/float64(len(src)))
		if per > factor*uint64(len(src)) {
			t.Errorf("%s: Parse allocates %d B for %d B of source, more than %dx", name, per, len(src), factor)
		}
	}
}

// TestParseAllocs bounds how many allocations a Parse makes by the tree
// it returns: one per node, one per non-empty list, and a constant of
// 12 for the parser, its lexer, the parser's list stack doubling to its
// deepest, and the lexer's buffer for a string literal. A list grown by
// append from nil allocates once per doubling; Parse allocates each
// once, at its length. (When it grew them, it exceeded nodes+lists by
// 12 to 108 on these programs.)
func TestParseAllocs(t *testing.T) {
	const slack = 12
	for name, src := range aspSources(t) {
		prog := parseOK(t, src)
		nodes, lists := countTree(prog)
		allocs := testing.AllocsPerRun(20, func() { Parse(src) })
		t.Logf("%s: %.0f allocations, %d nodes, %d lists", name, allocs, nodes, lists)
		if allocs > float64(nodes+lists+slack) {
			t.Errorf("%s: Parse makes %.0f allocations for %d nodes and %d non-empty lists, more than %d over",
				name, allocs, nodes, lists, slack)
		}
	}
}

// countTree counts what Parse allocates one by one: the Program, each
// declaration, expression and constructed type (a Base type is a small
// integer, which Go boxes without allocating), and each non-empty list.
func countTree(prog *ast.Program) (nodes, lists int) {
	list := func(n int) {
		if n > 0 {
			lists++
		}
	}
	var typ func(ast.Type)
	typ = func(ty ast.Type) {
		switch ty := ty.(type) {
		case ast.Tuple:
			nodes++
			list(len(ty.Elems))
			for _, e := range ty.Elems {
				typ(e)
			}
		case ast.Table:
			nodes++
			typ(ty.Elem)
		case ast.List:
			nodes++
			typ(ty.Elem)
		}
	}
	expr := func(e ast.Expr) {
		ast.Walk(e, func(e ast.Expr) {
			nodes++
			switch e := e.(type) {
			case *ast.Call:
				list(len(e.Args))
			case *ast.Let:
				list(len(e.Binds))
				for _, b := range e.Binds {
					typ(b.Type)
				}
			case *ast.Seq:
				list(len(e.Exprs))
			case *ast.TupleExpr:
				list(len(e.Elems))
			}
		})
	}
	nodes++
	list(len(prog.Decls))
	for _, d := range prog.Decls {
		nodes++
		var params []ast.Param
		switch d := d.(type) {
		case *ast.ValDecl:
			typ(d.Type)
			expr(d.Init)
		case *ast.FunDecl:
			params = d.Params
			typ(d.Ret)
			expr(d.Body)
		case *ast.ChannelDecl:
			params = d.Params
			if d.InitState != nil {
				expr(d.InitState)
			}
			expr(d.Body)
		}
		list(len(params))
		for _, p := range params {
			typ(p.Type)
		}
	}
	return nodes, lists
}

// TestRoundTrip pins parse ∘ print ∘ parse = parse on every in-tree
// ASP program (the pretty printer must emit re-parseable source with
// identical structure).
func TestRoundTrip(t *testing.T) {
	sources := map[string]string{}
	for file, src := range aspSources(t) {
		sources[strings.ReplaceAll(strings.TrimSuffix(file, ".planp"), "_", "-")] = src
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			orig, err := Parse(src)
			if err != nil {
				t.Fatalf("parse original: %v", err)
			}
			printed := ast.Print(orig)
			back, err := Parse(printed)
			if err != nil {
				t.Fatalf("re-parse printed source: %v\n--- printed ---\n%s", err, printed)
			}
			if got, want := ast.Print(back), printed; got != want {
				t.Errorf("print is not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", want, got)
			}
			if len(back.Decls) != len(orig.Decls) {
				t.Errorf("declaration count changed: %d -> %d", len(orig.Decls), len(back.Decls))
			}
		})
	}
}

func TestParseExprTrailingGarbage(t *testing.T) {
	if _, err := ParseExpr("1 + 2 extra"); err == nil {
		t.Error("trailing tokens should fail")
	}
}

// TestParseHost: a host literal is the substrate's dotted quad, so what
// substrate.ParseAddr refuses in a topology file no program may write.
func TestParseHost(t *testing.T) {
	e, err := ParseExpr("10.0.0.1")
	if h, ok := e.(*ast.HostLit); err != nil || !ok || h.Addr != 0x0A000001 {
		t.Errorf("ParseExpr(10.0.0.1) = %#v, %v", e, err)
	}
	for _, bad := range []string{"1.2.3", "1.2.3.256", "1.2.3.0004", "1.2.3.4.5"} {
		if _, err := substrate.ParseAddr(bad); err == nil {
			t.Errorf("substrate.ParseAddr(%q) should fail", bad)
		}
		if _, err := ParseExpr(bad); err == nil {
			t.Errorf("ParseExpr(%q) should fail", bad)
		}
	}
}
