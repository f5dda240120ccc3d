// Comparing two signatures.
//
// A rollout runs two versions at once, so the fleet controller puts two
// questions to every peer's signature next to the staged one: what does
// this upgrade change, compatible or not (the diff it records on the
// deployment for GET /deployments), and can the two coexist during the
// rollout window (the compatibility gate). Compare answers both from one
// index of each side's receive and send sets.

package typecheck

import (
	"fmt"
	"sort"

	"planp.dev/planp/internal/lang/diag"
)

// Comparison is what the staged signature means next to a running one.
type Comparison struct {
	// Diff lists what the staged signature changes, as sorted
	// human-readable lines. Receive entries cover channel definitions
	// (what the program can accept); send entries cover the packets its
	// bodies emit. Empty means the external interface is textually
	// unchanged (bodies may still differ).
	Diff []string
	// Conflicts are why the two cannot coexist during a rollout, all
	// anchored in the staged program's source; nil means they can.
	Conflicts diag.List
}

// Compare relates the staged signature to the running one. Conflicts
// cover both directions of the mixed-version window:
//
//   - every send the running peer performs must have a matching channel
//     definition in the staged program (otherwise activating staged
//     would make the peer's in-flight packets undeliverable) — reported
//     at the staged channel's header, or without a span if the staged
//     program dropped the channel entirely;
//
//   - every send the staged program performs must have a matching
//     definition on the running peer (otherwise the new program emits
//     packets the peer cannot dispatch) — reported at the send site.
//
// A nil signature is a bare node: it gains or loses the whole
// interface, and there is nothing on it to conflict with.
func Compare(running, staged *Signature) Comparison {
	bare := running == nil || staged == nil
	if running == nil {
		running = &Signature{}
	}
	if staged == nil {
		staged = &Signature{}
	}
	oldRecv, oldSend := index(running)
	newRecv, newSend := index(staged)

	var c Comparison
	if running.ProtoState != staged.ProtoState {
		switch {
		case running.ProtoState == "":
			c.Diff = append(c.Diff, fmt.Sprintf("protocol state added: %s", staged.ProtoState))
		case staged.ProtoState == "":
			c.Diff = append(c.Diff, fmt.Sprintf("protocol state dropped (was %s)", running.ProtoState))
		default:
			c.Diff = append(c.Diff, fmt.Sprintf("protocol state: %s -> %s", running.ProtoState, staged.ProtoState))
		}
	}
	c.Diff = append(c.Diff, setDiff("receive", oldRecv, newRecv)...)
	c.Diff = append(c.Diff, setDiff("send", oldSend, newSend)...)
	if bare {
		return c
	}

	seen := map[string]bool{}
	for _, ch := range running.Channels {
		for _, snd := range ch.Sends {
			key := sigKey(snd.Channel, snd.Packet)
			if newRecv[key] || seen["recv "+key] {
				continue
			}
			seen["recv "+key] = true
			if hdr := staged.ChannelsNamed(snd.Channel); len(hdr) > 0 {
				c.Conflicts = append(c.Conflicts, diag.Diagnostic{Pos: hdr[0].Pos, End: hdr[0].End,
					Msg: fmt.Sprintf("channel %s: a running peer still sends packet %s (from channel %s), which no staged definition of %s receives",
						snd.Channel, snd.Packet, ch.Name, snd.Channel)})
			} else {
				c.Conflicts = append(c.Conflicts, diag.Diagnostic{
					Msg: fmt.Sprintf("staged program drops channel %s, but a running peer still sends %s to it (from channel %s)",
						snd.Channel, snd.Packet, ch.Name)})
			}
		}
	}
	for _, ch := range staged.Channels {
		for _, snd := range ch.Sends {
			key := sigKey(snd.Channel, snd.Packet)
			if oldRecv[key] || seen["send "+key] {
				continue
			}
			seen["send "+key] = true
			c.Conflicts = append(c.Conflicts, diag.Diagnostic{Pos: snd.Pos, End: snd.End,
				Msg: fmt.Sprintf("channel %s: send of packet %s matches no definition of channel %s on the running peer",
					ch.Name, snd.Packet, snd.Channel)})
		}
	}
	return c
}

// Diff is Compare's diff alone.
func Diff(running, staged *Signature) []string { return Compare(running, staged).Diff }

// index returns a signature's receive and send sets, keyed by sigKey; a
// flood (OnNeighbor) send's key is suffixed " [flood]", since reaching
// every neighbor is a different interface from reaching one.
func index(sig *Signature) (recv, send map[string]bool) {
	recv, send = map[string]bool{}, map[string]bool{}
	for _, ch := range sig.Channels {
		recv[sigKey(ch.Name, ch.Packet)] = true
		for _, snd := range ch.Sends {
			key := sigKey(snd.Channel, snd.Packet)
			if snd.Flood {
				key += " [flood]"
			}
			send[key] = true
		}
	}
	return recv, send
}

// sigKey names a (channel, packet type) pair, as the diff prints it.
func sigKey(channel, packet string) string { return channel + "(" + packet + ")" }

// setDiff renders the adds and removals between two keyed sets, sorted
// so the diff is deterministic.
func setDiff(kind string, old, new map[string]bool) []string {
	var added, removed []string
	for k := range new {
		if !old[k] {
			added = append(added, k)
		}
	}
	for k := range old {
		if !new[k] {
			removed = append(removed, k)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	out := make([]string, 0, len(added)+len(removed))
	for _, k := range added {
		out = append(out, fmt.Sprintf("+ %s %s", kind, k))
	}
	for _, k := range removed {
		out = append(out, fmt.Sprintf("- %s %s", kind, k))
	}
	return out
}
