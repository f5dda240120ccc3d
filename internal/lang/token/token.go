// Package token defines the lexical tokens of the PLAN-P language and
// source positions used across the front end.
//
// PLAN-P retains the SML-like surface syntax of PLAN (Hicks et al.) with
// the extensions described in the ICDCS'99 paper: channel declarations
// with optional initstate, overloaded channels, tuple projection with #n,
// and dotted-quad host literals so existing IP addresses can be written
// directly in protocol text.
package token

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds. Keyword kinds start at KwVal.
const (
	Invalid Kind = iota
	EOF

	// Literals and identifiers.
	Ident  // network, getSetS
	Int    // 256
	String // "CmdA: "
	Char   // 'a' (written #"a" in SML; we accept 'a')
	HostLit

	// Punctuation.
	LParen    // (
	RParen    // )
	Comma     // ,
	Semi      // ;
	Colon     // :
	Hash      // #  (tuple projection, followed by Int)
	Star      // *  (also tuple type separator)
	Plus      // +
	Minus     // -
	Slash     // /
	Caret     // ^  (string concatenation)
	Eq        // =
	NotEq     // <>
	Less      // <
	LessEq    // <=
	Greater   // >
	GreaterEq // >=
	Arrow     // =>

	// Keywords.
	KwVal
	KwFun
	KwChannel
	KwInitstate
	KwIs
	KwLet
	KwIn
	KwEnd
	KwIf
	KwThen
	KwElse
	KwTrue
	KwFalse
	KwNot
	KwAndalso
	KwOrelse
	KwMod
	KwTry
	KwHandle
	KwRaise
)

var kindNames = map[Kind]string{
	Invalid:     "invalid",
	EOF:         "EOF",
	Ident:       "identifier",
	Int:         "integer",
	String:      "string",
	Char:        "char",
	HostLit:     "host literal",
	LParen:      "'('",
	RParen:      "')'",
	Comma:       "','",
	Semi:        "';'",
	Colon:       "':'",
	Hash:        "'#'",
	Star:        "'*'",
	Plus:        "'+'",
	Minus:       "'-'",
	Slash:       "'/'",
	Caret:       "'^'",
	Eq:          "'='",
	NotEq:       "'<>'",
	Less:        "'<'",
	LessEq:      "'<='",
	Greater:     "'>'",
	GreaterEq:   "'>='",
	Arrow:       "'=>'",
	KwVal:       "'val'",
	KwFun:       "'fun'",
	KwChannel:   "'channel'",
	KwInitstate: "'initstate'",
	KwIs:        "'is'",
	KwLet:       "'let'",
	KwIn:        "'in'",
	KwEnd:       "'end'",
	KwIf:        "'if'",
	KwThen:      "'then'",
	KwElse:      "'else'",
	KwTrue:      "'true'",
	KwFalse:     "'false'",
	KwNot:       "'not'",
	KwAndalso:   "'andalso'",
	KwOrelse:    "'orelse'",
	KwMod:       "'mod'",
	KwTry:       "'try'",
	KwHandle:    "'handle'",
	KwRaise:     "'raise'",
}

// String returns a human-readable name for the kind, suitable for error
// messages ("expected ';', got 'end'").
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Lookup returns the keyword kind of a reserved word and Ident for any
// other identifier. A switch, not a map: the lexer asks once per
// identifier, and the compiler turns this into a jump on the length and
// a comparison or two, where a map probe hashes the whole word.
func Lookup(ident string) Kind {
	switch ident {
	case "val":
		return KwVal
	case "fun":
		return KwFun
	case "channel":
		return KwChannel
	case "initstate":
		return KwInitstate
	case "is":
		return KwIs
	case "let":
		return KwLet
	case "in":
		return KwIn
	case "end":
		return KwEnd
	case "if":
		return KwIf
	case "then":
		return KwThen
	case "else":
		return KwElse
	case "true":
		return KwTrue
	case "false":
		return KwFalse
	case "not":
		return KwNot
	case "andalso":
		return KwAndalso
	case "orelse":
		return KwOrelse
	case "mod":
		return KwMod
	case "try":
		return KwTry
	case "handle":
		return KwHandle
	case "raise":
		return KwRaise
	}
	return Ident
}

// Pos is a position within a source file. Line and Col are 1-based;
// a zero Pos means "unknown". They are 32 bits each, so a Pos is 8
// bytes: every tree node and token carries two of them, and no source
// a daemon accepts (1 MiB at most) comes near 2^31 lines or columns.
type Pos struct {
	Line int32 `json:"line"`
	Col  int32 `json:"col"`
}

// IsValid reports whether p refers to an actual source location.
func (p Pos) IsValid() bool { return p.Line > 0 }

// String renders the position as "line:col".
func (p Pos) String() string {
	if !p.IsValid() {
		return "-"
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// Token is a single lexeme with its source span. Pos is the first
// character; End is one column past the last (tokens never span lines).
type Token struct {
	Kind Kind
	Text string // raw text for Ident/Int/String/Char/HostLit
	Pos  Pos
	End  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case Ident, Int, HostLit:
		return fmt.Sprintf("%s %q", t.Kind, t.Text)
	case String:
		return fmt.Sprintf("string %q", t.Text)
	default:
		return t.Kind.String()
	}
}
