package parser

import (
	"fmt"
	"strings"
	"testing"

	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/diag"
	"planp.dev/planp/internal/lang/lexer"
)

// FuzzParse feeds the parser what planpd's POST /node/<n>/asp accepts
// from the network: any text at all. Whatever it is, Parse must not
// panic, must say the same thing about it every time, must place every
// diagnostic inside the text, must reject what the lexer rejects, and
// what it accepts must survive a trip through the pretty-printer. The
// corpus in testdata/fuzz/FuzzParse is every asp/*.planp and
// asp/testdata/malformed/* as of PR 17, the error-order cases, and what
// the fuzzer has found (char-high-byte).
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if _, again := Parse(src); fmt.Sprint(again) != fmt.Sprint(err) {
			t.Fatalf("same input, different diagnostics:\n%v\n%v", err, again)
		}
		if _, lexErr := lexer.Scan(src); lexErr != nil && err == nil {
			t.Fatalf("lexer.Scan fails (%v) but Parse accepts", lexErr)
		}
		if err != nil {
			diags := diag.Of(err)
			if len(diags) == 0 {
				t.Fatalf("error carries no diagnostic: %v", err)
			}
			lastLine := int32(strings.Count(src, "\n") + 1)
			for _, d := range diags {
				if d.Pos.Line < 1 || d.Pos.Line > lastLine || d.Pos.Col < 1 {
					t.Fatalf("diagnostic outside the source (%d lines): %v", lastLine, d)
				}
			}
			return
		}
		printed := ast.Print(prog)
		if _, err := Parse(printed); err != nil {
			t.Fatalf("accepted source does not re-parse once printed: %v\n--- printed ---\n%s", err, printed)
		}
	})
}
