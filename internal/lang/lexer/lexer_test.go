package lexer

import (
	"math"
	"strings"
	"testing"

	"planp.dev/planp/internal/lang/token"
)

func kinds(t *testing.T, src string) []token.Kind {
	t.Helper()
	toks, err := Scan(src)
	if err != nil {
		t.Fatalf("Scan(%q): %v", src, err)
	}
	out := make([]token.Kind, len(toks))
	for i, tok := range toks {
		out[i] = tok.Kind
	}
	return out
}

func TestBasicTokens(t *testing.T) {
	got := kinds(t, `val x : int = 1 + 2 * 3`)
	want := []token.Kind{token.KwVal, token.Ident, token.Colon, token.Ident,
		token.Eq, token.Int, token.Plus, token.Int, token.Star, token.Int, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestOperators(t *testing.T) {
	got := kinds(t, `= <> < <= > >= => # ^ / ; , ( )`)
	want := []token.Kind{token.Eq, token.NotEq, token.Less, token.LessEq,
		token.Greater, token.GreaterEq, token.Arrow, token.Hash, token.Caret,
		token.Slash, token.Semi, token.Comma, token.LParen, token.RParen, token.EOF}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestKeywordsVsIdents(t *testing.T) {
	toks, err := Scan("channel channels initstate valx val")
	if err != nil {
		t.Fatal(err)
	}
	want := []token.Kind{token.KwChannel, token.Ident, token.KwInitstate, token.Ident, token.KwVal, token.EOF}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d = %v, want %v", i, toks[i], k)
		}
	}
}

func TestHostLiteral(t *testing.T) {
	toks, err := Scan("131.254.60.81")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != token.HostLit || toks[0].Text != "131.254.60.81" {
		t.Errorf("got %v", toks[0])
	}
	// An integer followed by non-dotted content stays an integer.
	toks, err = Scan("42 x")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != token.Int || toks[0].Text != "42" {
		t.Errorf("got %v", toks[0])
	}
}

func TestHostLiteralErrors(t *testing.T) {
	for _, bad := range []string{"1.2.3", "1.2.3.4.5", "300.1.1.1"} {
		if _, err := Scan(bad); err == nil {
			t.Errorf("Scan(%q) should fail", bad)
		}
	}
}

func TestComments(t *testing.T) {
	src := `
-- a line comment with val if then
val x : int = 1 -- trailing
(* a block comment
   spanning lines (* nested *) still comment *)
val y : int = 2
`
	got := kinds(t, src)
	ints := 0
	for _, k := range got {
		if k == token.Int {
			ints++
		}
	}
	if ints != 2 {
		t.Errorf("expected exactly 2 ints after comment stripping, got %d (%v)", ints, got)
	}
}

func TestUnterminatedBlockComment(t *testing.T) {
	if _, err := Scan("val x (* never closed"); err == nil {
		t.Error("unterminated block comment should fail")
	}
	if _, err := Scan("(* outer (* inner *) still open"); err == nil {
		t.Error("unbalanced nested comment should fail")
	}
}

func TestStringLiterals(t *testing.T) {
	toks, err := Scan(`"hello\n\t\"quoted\"\\"`)
	if err != nil {
		t.Fatal(err)
	}
	want := "hello\n\t\"quoted\"\\"
	if toks[0].Kind != token.String || toks[0].Text != want {
		t.Errorf("got %q, want %q", toks[0].Text, want)
	}
}

func TestStringErrors(t *testing.T) {
	for _, bad := range []string{`"unterminated`, "\"newline\nin string\"", `"bad \q escape"`} {
		if _, err := Scan(bad); err == nil {
			t.Errorf("Scan(%q) should fail", bad)
		}
	}
}

func TestCharLiterals(t *testing.T) {
	cases := map[string]byte{
		`'a'`:    'a',
		`'\n'`:   '\n',
		`'\''`:   '\'',
		`'\\'`:   '\\',
		`#"Z"`:   'Z',
		`'\0'`:   0,
		"'\xb0'": 0xb0, // a byte above ASCII stays that byte
	}
	for src, want := range cases {
		toks, err := Scan(src)
		if err != nil {
			t.Errorf("Scan(%s): %v", src, err)
			continue
		}
		if toks[0].Kind != token.Char || toks[0].Text[0] != want {
			t.Errorf("Scan(%s) = %v, want char %q", src, toks[0], want)
		}
	}
	for _, bad := range []string{`'ab'`, `'`, `#"ab"`} {
		if _, err := Scan(bad); err == nil {
			t.Errorf("Scan(%q) should fail", bad)
		}
	}
}

func TestPositions(t *testing.T) {
	toks, err := Scan("val x\n  = 3")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("val at %v", toks[0].Pos)
	}
	if toks[2].Pos.Line != 2 || toks[2].Pos.Col != 3 {
		t.Errorf("= at %v, want 2:3", toks[2].Pos)
	}
	if toks[3].Pos.Line != 2 || toks[3].Pos.Col != 5 {
		t.Errorf("3 at %v, want 2:5", toks[3].Pos)
	}
}

// TestPositionsSaturate: Pos fields are int32s and the lexer's counters
// ints; once they pass math.MaxInt32 a line or column saturates there
// instead of wrapping negative. The counters start just
// below the edge, so no 2 GiB input is built.
func TestPositionsSaturate(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("int is 32 bits: the counters themselves end at MaxInt32")
	}
	lx := New("ab\ncd")
	lx.line, lx.col = math.MaxInt32, math.MaxInt32-1
	var ab, cd token.Token
	if err := lx.Next(&ab); err != nil {
		t.Fatal(err)
	}
	if err := lx.Next(&cd); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what      string
		got, want token.Pos
	}{
		{"ab starts", ab.Pos, token.Pos{Line: math.MaxInt32, Col: math.MaxInt32 - 1}},
		{"ab ends one column past MaxInt32", ab.End, token.Pos{Line: math.MaxInt32, Col: math.MaxInt32}},
		{"cd starts one line past MaxInt32", cd.Pos, token.Pos{Line: math.MaxInt32, Col: 1}},
		{"cd ends", cd.End, token.Pos{Line: math.MaxInt32, Col: 3}},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: %+v, want %+v", tc.what, tc.got, tc.want)
		}
	}
}

func TestUnexpectedCharacter(t *testing.T) {
	_, err := Scan("val x = @")
	if err == nil || !strings.Contains(err.Error(), "@") {
		t.Errorf("expected error naming '@', got %v", err)
	}
	// The message names the character, not the first byte of its
	// encoding; a byte that is no character at all prints as an escape.
	for src, want := range map[string]string{
		"val x : int = é":    `1:15: unexpected character "é"`,
		"val x : int = €uro": `1:15: unexpected character "€"`,
		"val x : int = \xff": `1:15: unexpected character "\xff"`,
		"val x : int = \xc3": `1:15: unexpected character "\xc3"`,
	} {
		if _, err := Scan(src); err == nil || err.Error() != want {
			t.Errorf("Scan(%q) = %v, want %s", src, err, want)
		}
	}
	// The whole character is consumed: a caller that reads on does not
	// meet its continuation bytes as further errors.
	lx := New("é x")
	var tok token.Token
	if err := lx.Next(&tok); err == nil {
		t.Fatal("é should not scan")
	}
	if err := lx.Next(&tok); err != nil || tok.Kind != token.Ident || tok.Pos.Col != 4 {
		t.Errorf("after the bad character: %v at %v, %v; want identifier x at column 4", tok, tok.Pos, err)
	}
}

func TestPrimedIdentifiers(t *testing.T) {
	toks, err := Scan("x' ps2 _tmp")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"x'", "ps2", "_tmp"} {
		if toks[i].Kind != token.Ident || toks[i].Text != want {
			t.Errorf("token %d = %v, want ident %q", i, toks[i], want)
		}
	}
}

func TestIntOverflow(t *testing.T) {
	if _, err := Scan("99999999999999999999999999"); err == nil {
		t.Error("huge integer literal should fail to scan")
	}
	// 2^63 scans: it is the magnitude of math.MinInt64, and the parser
	// decides whether it is negated. One more does not.
	if _, err := Scan("9223372036854775808"); err != nil {
		t.Errorf("2^63 should scan: %v", err)
	}
	if _, err := Scan("9223372036854775809"); err == nil || err.Error() != "1:1: integer literal 9223372036854775809 out of range" {
		t.Errorf("2^63+1 scans with %v", err)
	}
}

func TestEOFIsSticky(t *testing.T) {
	lx := New("x")
	var tok token.Token
	if lx.Next(&tok); tok.Kind != token.Ident {
		t.Fatalf("first token %v", tok)
	}
	for i := 0; i < 3; i++ {
		err := lx.Next(&tok)
		if err != nil || tok.Kind != token.EOF {
			t.Fatalf("EOF not sticky: %v %v", tok, err)
		}
	}
}
