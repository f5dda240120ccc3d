// Channel-interface signatures.
//
// A Signature is the external contract of a PLAN-P program: every
// channel it defines (the message shapes it can receive) and every send
// its bodies perform (the message shapes it emits, with their source
// spans). The constraint pass extracts it once checking succeeds, the
// runtime caches it alongside the compiled program, planpd serves it
// over HTTP, and the fleet controller compares a staged program's
// signature against the signatures running on peer nodes before
// allowing a rollout (Compare, sigdiff.go: PLAN-P channels are
// first-order, so send/receive compatibility is a finite check over
// packet types).
//
// Packet and state types are recorded as their canonical rendering
// (ast.Type.String), which is injective over the PLAN-P type grammar;
// signatures therefore compare — and serialize — as plain strings.

package typecheck

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"slices"

	"planp.dev/planp/internal/lang/ast"
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
	// MaxSendsPerPath is the most transmissions on one execution path
	// of the body, saturated at 2 (pathFacts states the rules). The
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

// Digest names the signature by its content: the hex SHA-256 of its
// JSON encoding, truncated to 128 bits. Two signatures that serialize
// alike share a digest, so a peer holding a signature can tell from the
// digest alone that a node still runs it (planpd's GET /healthz
// ?signature=). A nil signature has the empty digest.
func (s *Signature) Digest() string {
	if s == nil {
		return ""
	}
	b, err := json.Marshal(s)
	if err != nil {
		panic("typecheck: encoding a signature: " + err.Error()) // strings, ints and bools only
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// extractSignature derives the channel-interface signature (Info.Sig)
// from a program Check has accepted: there is at least one channel, and
// every send's packet carries its type. One walk of each channel body
// (bodyWalk) gives its sends, its MaxSendsPerPath and Channel.HandsOn.
// The walk collects sends in the checker's scratch, so each channel's
// list is made once, at its length.
func (c *checker) extractSignature() *Signature {
	info := c.info
	sig := &Signature{
		ProtoState: info.ProtoState.String(),
		Channels:   make([]ChannelSig, 0, len(info.Channels)),
	}
	for i := range info.Channels {
		d := info.Channels[i].Decl
		w := bodyWalk{sends: c.sends[:0]}
		facts := w.walk(d.Body)
		c.sends = w.sends
		info.Channels[i].HandsOn = facts.handsOn
		var sends []SendSig
		if len(w.sends) > 0 {
			sends = slices.Clone(w.sends)
		}
		sig.Channels = append(sig.Channels, ChannelSig{
			Name:            d.Name,
			Packet:          d.PacketType().String(),
			Pos:             d.At,
			End:             d.HeaderEnd,
			MaxSendsPerPath: facts.sends,
			Sends:           sends,
		})
	}
	return sig
}

// pathFacts are the two facts the verifier needs about the execution
// paths of a channel body:
//
//   - sends is the most transmissions on one path: OnRemote counts 1,
//     OnNeighbor 2 (it reaches every neighbor), saturated at 2. Parts
//     evaluated one after another add up; an if adds its condition to
//     the larger branch; a try adds body and handler, since the body may
//     send before it raises; a raise counts the sends in its message.
//     The duplication analysis reads it as ChannelSig.MaxSendsPerPath.
//
//   - handsOn is whether every path that completes hands the packet on:
//     an OnRemote, OnNeighbor or deliver. A raise never completes, so it
//     hands on vacuously (exception coverage is checked separately); an
//     if needs its condition or both branches to, a try its body and its
//     handler; the right operand of andalso/orelse may be skipped, so it
//     does not count. The delivery analysis reads it as Channel.HandsOn.
type pathFacts struct {
	sends   int
	handsOn bool
}

// then is p followed by q on the same path.
func (p pathFacts) then(q pathFacts) pathFacts {
	return pathFacts{min(p.sends+q.sends, 2), p.handsOn || q.handsOn}
}

// bodyWalk is one walk of a channel body: it collects the body's sends
// in source order while computing the pathFacts of each subexpression.
type bodyWalk struct{ sends []SendSig }

// walk returns e's pathFacts. It has a case for every compound node
// ast.Walk visits, and visits them in ast.Walk's order.
func (w *bodyWalk) walk(e ast.Expr) pathFacts {
	var p pathFacts
	switch e := e.(type) {
	case *ast.Call:
		switch e.Name {
		case "OnRemote", "OnNeighbor":
			flood := e.Name == "OnNeighbor"
			if cref, ok := e.Args[0].(*ast.ChanRef); ok {
				w.sends = append(w.sends, SendSig{Channel: cref.Name, Packet: e.Args[1].Type().String(),
					Flood: flood, Pos: e.At, End: e.End()})
			}
			p = pathFacts{1, true}
			if flood {
				p.sends = 2
			}
		case "deliver":
			p.handsOn = true
		}
		for _, a := range e.Args {
			p = p.then(w.walk(a))
		}
	case *ast.Proj:
		p = w.walk(e.Tuple)
	case *ast.Let:
		for _, b := range e.Binds {
			p = p.then(w.walk(b.Init))
		}
		p = p.then(w.walk(e.Body))
	case *ast.If:
		p = w.walk(e.Cond)
		a, b := w.walk(e.Then), w.walk(e.Else)
		p = p.then(pathFacts{max(a.sends, b.sends), a.handsOn && b.handsOn})
	case *ast.Seq:
		for _, sub := range e.Exprs {
			p = p.then(w.walk(sub))
		}
	case *ast.TupleExpr:
		for _, sub := range e.Elems {
			p = p.then(w.walk(sub))
		}
	case *ast.Unary:
		p = w.walk(e.X)
	case *ast.Binary:
		p = w.walk(e.L)
		r := w.walk(e.R)
		if e.Op == "andalso" || e.Op == "orelse" {
			r.handsOn = false
		}
		p = p.then(r)
	case *ast.Try:
		body, handler := w.walk(e.Body), w.walk(e.Handler)
		p = pathFacts{min(body.sends+handler.sends, 2), body.handsOn && handler.handsOn}
	case *ast.Raise:
		p = pathFacts{w.walk(e.Msg).sends, true}
	}
	return p
}
