// Channel-interface signatures.
//
// A Signature is the external contract of a PLAN-P program: every
// channel it defines (the message shapes it can receive) and every send
// its bodies perform (the message shapes it emits, with their source
// spans). The constraint pass extracts it once checking succeeds, the
// runtime caches it alongside the compiled program, planpd serves it
// over HTTP, and the fleet controller compares a staged program's
// signature against the signatures running on peer nodes before
// allowing a rollout (PLAN-P channels are first-order, so send/receive
// compatibility is a finite check over packet types).
//
// Packet and state types are recorded as their canonical rendering
// (ast.Type.String), which is injective over the PLAN-P type grammar;
// signatures therefore compare — and serialize — as plain strings.

package typecheck

import (
	"fmt"

	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/diag"
	"planp.dev/planp/internal/lang/token"
)

// Signature is a program's channel interface.
type Signature struct {
	// ProtoState is the shared protocol-state type.
	ProtoState string `json:"proto_state"`
	// Channels lists every channel definition (one entry per overload)
	// in declaration order.
	Channels []ChannelSig `json:"channels"`
}

// ChannelSig describes one channel definition: what it receives and
// what its body sends.
type ChannelSig struct {
	Name   string `json:"name"`
	Packet string `json:"packet"`
	// Pos..End spans the channel header (the declared interface).
	Pos token.Pos `json:"pos"`
	End token.Pos `json:"end,omitzero"`
	// MaxSendsPerPath is the maximum number of sends on any execution
	// path of the body, saturated at 2 (OnNeighbor counts as 2). The
	// verifier's duplication analysis consumes it.
	MaxSendsPerPath int       `json:"max_sends_per_path"`
	Sends           []SendSig `json:"sends,omitempty"`
}

// SendSig is one OnRemote/OnNeighbor call in a channel body.
type SendSig struct {
	Channel string `json:"channel"`
	Packet  string `json:"packet"`
	// Flood marks OnNeighbor sends (transmitted to every neighbor).
	Flood bool `json:"flood,omitempty"`
	// Pos..End spans the send call in the source.
	Pos token.Pos `json:"pos"`
	End token.Pos `json:"end,omitzero"`
}

// ChannelsNamed returns the signatures of every overload of name, in
// declaration order.
func (s *Signature) ChannelsNamed(name string) []ChannelSig {
	var out []ChannelSig
	for _, ch := range s.Channels {
		if ch.Name == name {
			out = append(out, ch)
		}
	}
	return out
}

// extractSignature derives the channel-interface signature (Info.Sig)
// from a program Check has accepted: there is at least one channel, and
// every send's packet carries its type.
func extractSignature(info *Info) *Signature {
	sig := &Signature{
		ProtoState: info.ProtoState.String(),
		Channels:   make([]ChannelSig, 0, len(info.Channels)),
	}
	for i := range info.Channels {
		d := info.Channels[i].Decl
		cs := ChannelSig{
			Name:            d.Name,
			Packet:          d.PacketType().String(),
			Pos:             d.At,
			End:             d.HeaderEnd,
			MaxSendsPerPath: maxSendsPerPath(d.Body),
		}
		ast.Walk(d.Body, func(e ast.Expr) {
			call, ok := e.(*ast.Call)
			if !ok || !sendPrims[call.Name] {
				return
			}
			cref, ok := call.Args[0].(*ast.ChanRef)
			if !ok {
				return
			}
			cs.Sends = append(cs.Sends, SendSig{
				Channel: cref.Name,
				Packet:  call.Args[1].Type().String(),
				Flood:   call.Name == "OnNeighbor",
				Pos:     call.At,
				End:     call.End(),
			})
		})
		sig.Channels = append(sig.Channels, cs)
	}
	return sig
}

// CompatibleWith checks the staged signature s against the signature
// running on a peer node, in both directions:
//
//   - every send the running peer performs must have a matching channel
//     definition in the staged program (otherwise activating s would
//     make the peer's in-flight packets undeliverable) — reported at
//     the staged channel's header, or without a span if the staged
//     program dropped the channel entirely;
//
//   - every send the staged program performs must have a matching
//     definition on the running peer (otherwise the new program emits
//     packets the peer cannot dispatch) — reported at the send site.
//
// All diagnostics are anchored in the staged program's source. A nil
// return means the two programs can coexist during a rollout.
func (s *Signature) CompatibleWith(running *Signature) diag.List {
	var diags diag.List
	recvOf := func(sig *Signature) map[string]map[string]bool {
		m := map[string]map[string]bool{}
		for _, ch := range sig.Channels {
			if m[ch.Name] == nil {
				m[ch.Name] = map[string]bool{}
			}
			m[ch.Name][ch.Packet] = true
		}
		return m
	}
	stagedRecv, runningRecv := recvOf(s), recvOf(running)

	// Anchor for dropped-variant reports: the first staged overload of
	// the channel the peer still targets.
	header := map[string]ChannelSig{}
	for _, ch := range s.Channels {
		if _, ok := header[ch.Name]; !ok {
			header[ch.Name] = ch
		}
	}

	seen := map[string]bool{}
	for _, ch := range running.Channels {
		for _, snd := range ch.Sends {
			if stagedRecv[snd.Channel][snd.Packet] {
				continue
			}
			key := "recv\x00" + snd.Channel + "\x00" + snd.Packet
			if seen[key] {
				continue
			}
			seen[key] = true
			if hdr, ok := header[snd.Channel]; ok {
				diags = append(diags, diag.Diagnostic{Pos: hdr.Pos, End: hdr.End,
					Msg: fmt.Sprintf("channel %s: a running peer still sends packet %s (from channel %s), which no staged definition of %s receives",
						snd.Channel, snd.Packet, ch.Name, snd.Channel)})
			} else {
				diags = append(diags, diag.Diagnostic{
					Msg: fmt.Sprintf("staged program drops channel %s, but a running peer still sends %s to it (from channel %s)",
						snd.Channel, snd.Packet, ch.Name)})
			}
		}
	}

	for _, ch := range s.Channels {
		for _, snd := range ch.Sends {
			if runningRecv[snd.Channel][snd.Packet] {
				continue
			}
			key := "send\x00" + snd.Channel + "\x00" + snd.Packet
			if seen[key] {
				continue
			}
			seen[key] = true
			diags = append(diags, diag.Diagnostic{Pos: snd.Pos, End: snd.End,
				Msg: fmt.Sprintf("channel %s: send of packet %s matches no definition of channel %s on the running peer",
					ch.Name, snd.Packet, snd.Channel)})
		}
	}
	return diags
}

// maxSendsPerPath computes the maximum number of OnRemote/OnNeighbor
// calls on any single execution path, saturating at 2. OnNeighbor counts
// as 2 because it transmits to every neighbor.
func maxSendsPerPath(e ast.Expr) int {
	sat := func(n int) int {
		if n > 2 {
			return 2
		}
		return n
	}
	switch e := e.(type) {
	case *ast.Call:
		n := 0
		if e.Name == "OnRemote" {
			n = 1
		} else if e.Name == "OnNeighbor" {
			n = 2
		}
		for _, a := range e.Args {
			n += maxSendsPerPath(a)
		}
		return sat(n)
	case *ast.Proj:
		return maxSendsPerPath(e.Tuple)
	case *ast.Let:
		n := 0
		for _, b := range e.Binds {
			n += maxSendsPerPath(b.Init)
		}
		return sat(n + maxSendsPerPath(e.Body))
	case *ast.If:
		branch := maxSendsPerPath(e.Then)
		if el := maxSendsPerPath(e.Else); el > branch {
			branch = el
		}
		return sat(maxSendsPerPath(e.Cond) + branch)
	case *ast.Seq:
		n := 0
		for _, sub := range e.Exprs {
			n += maxSendsPerPath(sub)
		}
		return sat(n)
	case *ast.TupleExpr:
		n := 0
		for _, sub := range e.Elems {
			n += maxSendsPerPath(sub)
		}
		return sat(n)
	case *ast.Unary:
		return maxSendsPerPath(e.X)
	case *ast.Binary:
		return sat(maxSendsPerPath(e.L) + maxSendsPerPath(e.R))
	case *ast.Try:
		// Body sends may occur before the exception, then the handler
		// sends again: worst case is their sum.
		return sat(maxSendsPerPath(e.Body) + maxSendsPerPath(e.Handler))
	default:
		return 0
	}
}
