// Package lexer tokenizes PLAN-P source text.
//
// Lexical notes:
//   - "--" starts a line comment (as used throughout the paper's listings);
//     "(*" ... "*)" block comments are also accepted (SML heritage) and nest.
//   - Dotted-quad IPv4 addresses such as 131.254.60.81 are scanned as a
//     single host literal so protocols can name concrete machines.
//   - Character literals are written 'a' (with the usual escapes); the SML
//     form #"a" is also accepted.
package lexer

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"planp.dev/planp/internal/lang/diag"
	"planp.dev/planp/internal/lang/token"
	"planp.dev/planp/internal/substrate"
)

// Error is a lexical error with its source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Diagnostics implements diag.Provider.
func (e *Error) Diagnostics() diag.List { return diag.List{{Pos: e.Pos, Msg: e.Msg}} }

// Lexer scans a source buffer into tokens.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Scan tokenizes the whole input. It returns the token stream, always
// terminated by an EOF token, or the first lexical error. The parser
// does not use it (it pulls from Next and keeps no token); it is the
// reference the lexer tests and the parser's fuzz target compare against.
func Scan(src string) ([]token.Token, error) {
	lx := New(src)
	var toks []token.Token
	for {
		var t token.Token
		if err := lx.Next(&t); err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks, nil
		}
	}
}

// pos is the current position. The counters are ints and Pos fields
// are int32s, so a line or column past math.MaxInt32 saturates there
// instead of wrapping negative.
func (lx *Lexer) pos() token.Pos {
	return token.Pos{Line: sat32(lx.line), Col: sat32(lx.col)}
}

func sat32(n int) int32 { return int32(min(n, math.MaxInt32)) }

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peek2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

// skip consumes n bytes the caller knows hold no newline.
func (lx *Lexer) skip(n int) {
	lx.off += n
	lx.col += n
}

func (lx *Lexer) errorf(pos token.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// skipSpace consumes whitespace and comments. It returns an error only for
// unterminated block comments.
func (lx *Lexer) skipSpace() error {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			lx.skip(1)
		case c == '\n':
			lx.advance()
		case c == '-' && lx.peek2() == '-':
			n := strings.IndexByte(lx.src[lx.off:], '\n')
			if n < 0 {
				n = len(lx.src) - lx.off
			}
			lx.skip(n)
		case c == '(' && lx.peek2() == '*':
			start := lx.pos()
			lx.advance()
			lx.advance()
			depth := 1
			for depth > 0 {
				if lx.off >= len(lx.src) {
					return lx.errorf(start, "unterminated block comment")
				}
				if lx.peek() == '(' && lx.peek2() == '*' {
					lx.advance()
					lx.advance()
					depth++
				} else if lx.peek() == '*' && lx.peek2() == ')' {
					lx.advance()
					lx.advance()
					depth--
				} else {
					lx.advance()
				}
			}
		default:
			return nil
		}
	}
	return nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) || c == '\'' }

// Next writes the next token into t, in place (the parser's window),
// with its End span set to one column past its last character: the
// scanner stops exactly one byte past each token, so the position after
// scanning IS the token's end. On an error t is left as it was.
func (lx *Lexer) Next(t *token.Token) error {
	if err := lx.skipSpace(); err != nil {
		return err
	}
	pos := lx.pos()
	kind, text, err := lx.scan(pos)
	if err != nil {
		return err
	}
	*t = token.Token{Kind: kind, Text: text, Pos: pos, End: lx.pos()}
	return nil
}

// scan consumes the token that starts at pos, the current offset.
func (lx *Lexer) scan(pos token.Pos) (token.Kind, string, error) {
	if lx.off >= len(lx.src) {
		return token.EOF, "", nil
	}
	c := lx.src[lx.off]
	switch {
	case isDigit(c):
		return lx.scanNumber(pos)
	case isIdentStart(c):
		return lx.scanIdent()
	case c == '"':
		return lx.scanString(pos)
	case c == '\'':
		return lx.scanChar(pos)
	case c == '#':
		lx.skip(1)
		if lx.peek() == '"' { // SML char literal #"a"
			_, text, err := lx.scanString(pos)
			if err != nil {
				return 0, "", err
			}
			if len(text) != 1 {
				return 0, "", lx.errorf(pos, "char literal must contain exactly one character")
			}
			return token.Char, text, nil
		}
		return token.Hash, "", nil
	}

	lx.skip(1) // not a newline: skipSpace stopped here
	kind := token.Invalid
	switch c {
	case '(':
		kind = token.LParen
	case ')':
		kind = token.RParen
	case ',':
		kind = token.Comma
	case ';':
		kind = token.Semi
	case ':':
		kind = token.Colon
	case '*':
		kind = token.Star
	case '+':
		kind = token.Plus
	case '-':
		kind = token.Minus
	case '/':
		kind = token.Slash
	case '^':
		kind = token.Caret
	case '=':
		kind = token.Eq
		if lx.peek() == '>' {
			lx.skip(1)
			kind = token.Arrow
		}
	case '<':
		kind = token.Less
		if lx.peek() == '>' {
			lx.skip(1)
			kind = token.NotEq
		} else if lx.peek() == '=' {
			lx.skip(1)
			kind = token.LessEq
		}
	case '>':
		kind = token.Greater
		if lx.peek() == '=' {
			lx.skip(1)
			kind = token.GreaterEq
		}
	default:
		// Name the whole character, not its first byte; a byte that is
		// not UTF-8 prints as \xNN.
		_, n := utf8.DecodeRuneInString(lx.src[lx.off-1:])
		lx.skip(n - 1)
		return 0, "", lx.errorf(pos, "unexpected character %q", lx.src[lx.off-n:lx.off])
	}
	return kind, "", nil
}

// scanNumber scans an integer or a dotted-quad host literal.
func (lx *Lexer) scanNumber(pos token.Pos) (token.Kind, string, error) {
	digits := func() string {
		start := lx.off
		for lx.off < len(lx.src) && isDigit(lx.src[lx.off]) {
			lx.skip(1)
		}
		return lx.src[start:lx.off]
	}
	start := lx.off
	first := digits()
	// A '.' directly followed by a digit begins a dotted quad: one the
	// substrate's addresses parse, as a topology file's are.
	if lx.peek() == '.' && isDigit(lx.peek2()) {
		for lx.peek() == '.' && isDigit(lx.peek2()) {
			lx.skip(1) // '.'
			digits()
		}
		text := lx.src[start:lx.off]
		if _, err := substrate.ParseAddr(text); err != nil {
			return 0, "", lx.errorf(pos, "malformed host literal: want four decimal octets 0-255")
		}
		return token.HostLit, text, nil
	}
	// Up to 2^63: negated, that magnitude is math.MinInt64, and the
	// parser's unary-minus fold is what tells whether it is negated.
	if n, err := strconv.ParseUint(first, 10, 64); err != nil || n > 1<<63 {
		return 0, "", lx.errorf(pos, "integer literal %s out of range", first)
	}
	return token.Int, first, nil
}

func (lx *Lexer) scanIdent() (token.Kind, string, error) {
	end := lx.off + 1
	for end < len(lx.src) && isIdentCont(lx.src[end]) {
		end++
	}
	text := lx.src[lx.off:end]
	lx.skip(len(text))
	return token.Lookup(text), text, nil
}

func (lx *Lexer) scanString(pos token.Pos) (token.Kind, string, error) {
	lx.skip(1) // opening quote
	var out []byte
	for {
		if lx.off >= len(lx.src) {
			return 0, "", lx.errorf(pos, "unterminated string literal")
		}
		c := lx.advance()
		switch c {
		case '"':
			return token.String, string(out), nil
		case '\n':
			return 0, "", lx.errorf(pos, "newline in string literal")
		case '\\':
			if lx.off >= len(lx.src) {
				return 0, "", lx.errorf(pos, "unterminated string literal")
			}
			e := lx.advance()
			switch e {
			case 'n':
				out = append(out, '\n')
			case 't':
				out = append(out, '\t')
			case 'r':
				out = append(out, '\r')
			case '\\', '"', '\'':
				out = append(out, e)
			case '0':
				out = append(out, 0)
			default:
				return 0, "", lx.errorf(pos, "unknown escape \\%c", e)
			}
		default:
			out = append(out, c)
		}
	}
}

func (lx *Lexer) scanChar(pos token.Pos) (token.Kind, string, error) {
	lx.skip(1) // opening quote
	if lx.off >= len(lx.src) {
		return 0, "", lx.errorf(pos, "unterminated char literal")
	}
	c := lx.advance()
	if c == '\\' {
		if lx.off >= len(lx.src) {
			return 0, "", lx.errorf(pos, "unterminated char literal")
		}
		e := lx.advance()
		switch e {
		case 'n':
			c = '\n'
		case 't':
			c = '\t'
		case 'r':
			c = '\r'
		case '\\', '\'', '"':
			c = e
		case '0':
			c = 0
		default:
			return 0, "", lx.errorf(pos, "unknown escape \\%c", e)
		}
	}
	if lx.off >= len(lx.src) || lx.advance() != '\'' {
		return 0, "", lx.errorf(pos, "char literal must be closed with '")
	}
	return token.Char, string([]byte{c}), nil // one byte, not its code point's encoding
}
