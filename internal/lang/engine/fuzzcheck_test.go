package engine_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"planp.dev/planp/internal/lang/diag"
	"planp.dev/planp/internal/lang/langtest"
	"planp.dev/planp/internal/lang/parser"
	"planp.dev/planp/internal/lang/typecheck"
	"planp.dev/planp/internal/lang/verify"
)

// FuzzCheck carries FuzzParse's properties down the pipeline, because
// the back ends trust annotations the checker made from text that
// arrives on POST /node/<n>/asp. For any text the parser accepts,
// typecheck.Check must not panic, must say the same thing about it
// every time and must place every diagnostic inside the text; and what
// it accepts must be one typed tree (langtest.RequireTyped: no node
// untyped, none typed by a primitive signature's type variable) that
// the verifier and all three code generators take without panicking, with
// one NewInstance verdict between them. It starts from FuzzParse's
// corpus (every in-tree ASP, the malformed programs); what it finds
// goes in testdata/fuzz/FuzzCheck.
func FuzzCheck(f *testing.F) {
	seeds, err := filepath.Glob("../parser/testdata/fuzz/FuzzParse/*")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no FuzzParse corpus to start from: %v", err)
	}
	for _, path := range seeds {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		// A corpus file is "go test fuzz v1\nstring(<quoted>)\n".
		_, arg, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "string("), ")"))
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		f.Add(src)
	}

	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.Parse(src)
		if err != nil {
			return
		}
		info, err := typecheck.Check(prog)
		fresh, _ := parser.Parse(src)
		if _, again := typecheck.Check(fresh); fmt.Sprint(again) != fmt.Sprint(err) {
			t.Fatalf("same input, different diagnostics:\n%v\n%v", err, again)
		}
		if err != nil {
			diags := diag.Of(err)
			if len(diags) == 0 {
				t.Fatalf("error carries no diagnostic: %v", err)
			}
			lastLine := int32(strings.Count(src, "\n") + 1)
			for _, d := range diags {
				if d.Pos.Line < 1 || d.Pos.Line > lastLine || d.Pos.Col < 1 ||
					d.End.IsValid() && (d.End.Line < d.Pos.Line || d.End.Line > lastLine) {
					t.Fatalf("diagnostic outside the source (%d lines): %+v", lastLine, d)
				}
			}
			return
		}

		langtest.RequireTyped(t, info.Prog)
		verify.Verify(info)
		verdicts := map[string]string{}
		for name, compile := range langtest.Engines() {
			c, err := compile(info)
			if err != nil {
				t.Fatalf("%s rejects a checked program: %v", name, err)
			}
			_, err = c.NewInstance(langtest.NewCtx())
			verdicts[name] = fmt.Sprint(err)
		}
		for name, v := range verdicts {
			if v != verdicts["interp"] {
				t.Fatalf("NewInstance: %s says %q, interp %q", name, v, verdicts["interp"])
			}
		}
	})
}
