package parser

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"planp.dev/planp/asp"
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
	e := exprOK(t, "-42")
	lit, ok := e.(*ast.IntLit)
	if !ok || lit.Value != -42 {
		t.Errorf("got %s", ast.ExprString(e))
	}
	// Unary minus on a non-literal stays unary.
	if _, ok := exprOK(t, "- x").(*ast.Unary); !ok {
		t.Error("- x should be unary")
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
// count. (A materialised token array alone was 14-56x the source.)
func TestParseAllocBytes(t *testing.T) {
	const runs, factor = 20, 12
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

// TestRoundTrip pins parse ∘ print ∘ parse = parse on every embedded
// ASP program (the pretty printer must emit re-parseable source with
// identical structure).
func TestRoundTrip(t *testing.T) {
	sources := map[string]string{}
	for _, p := range asp.All() {
		sources[p.Name] = p.Source
	}
	sources["random-policy"] = asp.HTTPGatewayRandom
	sources["leastconn-policy"] = asp.HTTPGatewayLeastConn
	sources["bench-compute"] = asp.BenchCompute

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
