package token

import (
	"strings"
	"testing"
)

func TestKindStrings(t *testing.T) {
	if KwVal.String() != "'val'" || Ident.String() != "identifier" {
		t.Error("kind names")
	}
	if !strings.Contains(Kind(999).String(), "999") {
		t.Error("unknown kinds render numerically")
	}
}

func TestKeywordsTableMatchesKinds(t *testing.T) {
	// Every keyword kind (they start at KwVal) is named by its source
	// spelling in quotes, and that spelling looks up to the kind.
	keywords := 0
	for kind, name := range kindNames {
		if kind < KwVal {
			continue
		}
		keywords++
		word := strings.Trim(name, "'")
		if name != "'"+word+"'" || word == "" {
			t.Errorf("keyword kind %d is named %s", int(kind), name)
		}
		if got := Lookup(word); got != kind {
			t.Errorf("Lookup(%q) = %s, want %s", word, got, name)
		}
	}
	if keywords < 15 {
		t.Errorf("keyword table suspiciously small: %d", keywords)
	}
	for _, word := range []string{"", "value", "Val", "ends", "i", "initstat"} {
		if got := Lookup(word); got != Ident {
			t.Errorf("Lookup(%q) = %s, want an identifier", word, got)
		}
	}
}

func TestPos(t *testing.T) {
	var zero Pos
	if zero.IsValid() {
		t.Error("zero Pos should be invalid")
	}
	if zero.String() != "-" {
		t.Errorf("zero Pos renders %q", zero.String())
	}
	p := Pos{Line: 3, Col: 14}
	if !p.IsValid() || p.String() != "3:14" {
		t.Errorf("Pos renders %q", p.String())
	}
}

func TestTokenString(t *testing.T) {
	cases := map[string]Token{
		`identifier "getSetS"`: {Kind: Ident, Text: "getSetS"},
		`string "hi"`:          {Kind: String, Text: "hi"},
		`integer "42"`:         {Kind: Int, Text: "42"},
		`'('`:                  {Kind: LParen},
		`'val'`:                {Kind: KwVal, Text: "val"},
	}
	for want, tok := range cases {
		if got := tok.String(); got != want {
			t.Errorf("Token.String() = %q, want %q", got, want)
		}
	}
}
