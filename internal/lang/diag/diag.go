// Package diag defines span-carrying diagnostics shared by every layer
// of the toolchain: the lexer, parser, typechecker, and verifier all
// report failures as Diagnostics (a position range plus a message), the
// control plane (internal/planpd) serializes them over HTTP, and the
// deploy CLI renders them with source excerpts.
//
// The package sits below the front end (its only dependency is token)
// so that typecheck and verify can construct Diagnostics without import
// cycles, while planprt/planpd/fleet extract them from arbitrary error
// chains through the Provider interface.
package diag

import (
	"errors"
	"fmt"
	"strings"

	"planp.dev/planp/internal/lang/token"
)

// Diagnostic is one failure with its source span. End is the position
// one column past the last character of the offending construct; a zero
// End means the span degenerates to the single position Pos.
type Diagnostic struct {
	Pos token.Pos `json:"pos"`
	End token.Pos `json:"end,omitzero"`
	Msg string    `json:"msg"`
}

// String renders "line:col: msg".
func (d Diagnostic) String() string { return fmt.Sprintf("%s: %s", d.Pos, d.Msg) }

// List is an ordered collection of diagnostics. It implements error so
// a checker can return its full report through a standard error value.
type List []Diagnostic

// Error renders every diagnostic, one per line.
func (l List) Error() string {
	parts := make([]string, len(l))
	for i, d := range l {
		parts[i] = d.String()
	}
	return strings.Join(parts, "\n")
}

// Provider is implemented by error types that carry span diagnostics
// (typecheck.Error, verify.Error, the lexer and parser errors).
type Provider interface {
	Diagnostics() List
}

// Of extracts the diagnostics carried anywhere in err's chain, or nil
// if no link of the chain is a Provider.
func Of(err error) List {
	var p Provider
	if errors.As(err, &p) {
		return p.Diagnostics()
	}
	return nil
}

// Render formats diagnostics with source excerpts:
//
//	prog.planp:4:11: channel gateway: body has type int, want int*unit
//	  channel gateway(ps : int, ss : unit, p : ip*udp*blob) is
//	            ^^^^^^^
//
// name labels the source (a file name or version label); it may be
// empty. Diagnostics whose positions fall outside src render without an
// excerpt. The arithmetic is in int, so no column a peer sends (up to
// math.MaxInt32) overflows it.
func Render(src, name string, diags List) string {
	lines := strings.Split(src, "\n")
	var sb strings.Builder
	for _, d := range diags {
		if name != "" {
			fmt.Fprintf(&sb, "%s:%s: %s\n", name, d.Pos, d.Msg)
		} else {
			fmt.Fprintf(&sb, "%s: %s\n", d.Pos, d.Msg)
		}
		if !d.Pos.IsValid() || int(d.Pos.Line) > len(lines) || d.Pos.Col < 1 {
			continue
		}
		line := lines[d.Pos.Line-1]
		fmt.Fprintf(&sb, "  %s\n", line)
		col := int(d.Pos.Col) - 1
		width := 1
		if d.End.Line == d.Pos.Line && d.End.Col > d.Pos.Col {
			width = int(d.End.Col) - int(d.Pos.Col)
		}
		if col+width > len(line) {
			width = max(1, len(line)-col)
		}
		sb.WriteString("  ")
		for i := 0; i < col && i < len(line); i++ {
			if line[i] == '\t' {
				sb.WriteByte('\t')
			} else {
				sb.WriteByte(' ')
			}
		}
		sb.WriteString(strings.Repeat("^", width))
		sb.WriteByte('\n')
	}
	return sb.String()
}
