// The deploy-time compatibility gate.
//
// PLAN-P channels are first-order: a program's external interface is
// the finite set of (channel, packet type) pairs it can receive and the
// finite set it sends (typecheck.Signature). During a rollout the fleet
// inevitably runs two versions at once — nodes that have activated the
// new program exchange packets with nodes still on the old one — so
// before staging anything the controller checks the new version's
// signature against what every peer currently runs, in both directions
// of that mixed-version window: the peers' sends must still land on a
// staged channel definition, and the staged program's sends must still
// land on the peers'. A mismatch rejects the rollout before any node is
// touched, with diagnostics anchored in the staged source;
// Spec.AllowIncompatible downgrades the rejection to recorded warnings
// for intentionally breaking upgrades.
//
// The peers' signatures ride the phase-0 health probe (planpd serves
// the active signature on /healthz), so the gate costs no extra
// round-trip; a peer still running the signature the controller holds
// for it answers with the signature's digest alone (client.go, health).
package fleet

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"planp.dev/planp/internal/lang/diag"
	"planp.dev/planp/internal/lang/typecheck"
	"planp.dev/planp/internal/obs"
)

// CompatError is a rollout rejected by the compatibility gate: the
// staged version cannot coexist with what one or more peers run. It
// carries the span diagnostics (anchored in the staged program's
// source) so the deploy CLI can render the offending lines.
type CompatError struct {
	Version string   // the staged version that was rejected
	Nodes   []string // peers whose running version conflicts, sorted
	Msgs    []string // one rendered "<source>:<line>:<col>: ..." per finding
	Diags   diag.List
}

func (e *CompatError) Error() string {
	return fmt.Sprintf("fleet: version %s rejected by compatibility gate on [%s]: %s (set the compatibility override to force a breaking rollout)",
		e.Version, strings.Join(e.Nodes, ", "), strings.Join(e.Msgs, "; "))
}

// Diagnostics implements diag.Provider.
func (e *CompatError) Diagnostics() diag.List { return e.Diags }

// peer is what the health probe learned about one target — the version
// it runs and that version's channel-interface signature (nil when the
// node is bare, or its daemon predates signatures) — and the staged
// signature compared with it.
type peer struct {
	node, version string
	sig           *typecheck.Signature
	cmp           *typecheck.Comparison // nil for a bare peer
}

// comparePeers sorts peers by node name and compares the staged
// signature with theirs: once per distinct (version, signature), shared
// by the peers that run it. The recorded diff (signatureDiff) and the
// gate (compatGate) read the same results.
func comparePeers(staged *typecheck.Signature, peers []peer) {
	sort.Slice(peers, func(i, j int) bool { return peers[i].node < peers[j].node })
	for i := range peers {
		p := &peers[i]
		if p.sig == nil {
			continue
		}
		for _, q := range peers[:i] {
			if q.cmp != nil && q.version == p.version && reflect.DeepEqual(q.sig, p.sig) {
				p.cmp = q.cmp
				break
			}
		}
		if p.cmp == nil {
			cmp := typecheck.Compare(p.sig, staged)
			p.cmp = &cmp
		}
	}
}

// signatureDiff renders what the staged signature changes relative to
// what the peers run, one block per comparison: a homogeneous fleet
// yields one plain diff, a mixed fleet prefixes each block with the
// version it compares against. Each daemon numbers its own version
// labels, so one label may cover different programs; its blocks then
// also name the peers that run each. Bare peers (no signature) are
// skipped — there is no interface to diff against.
func signatureDiff(peers []peer) []string {
	type block struct {
		version     string
		diff, nodes []string
	}
	var blocks []*block
	byCmp := map[*typecheck.Comparison]*block{}
	perLabel := map[string]int{}
	for _, p := range peers {
		if p.cmp == nil {
			continue
		}
		b := byCmp[p.cmp]
		if b == nil {
			b = &block{version: p.version, diff: p.cmp.Diff}
			byCmp[p.cmp] = b
			blocks = append(blocks, b)
			perLabel[p.version]++
		}
		b.nodes = append(b.nodes, p.node)
	}
	if len(blocks) == 1 {
		return blocks[0].diff
	}
	sort.SliceStable(blocks, func(i, j int) bool { return blocks[i].version < blocks[j].version })
	var out []string
	for _, b := range blocks {
		label := b.version
		if perLabel[b.version] > 1 {
			label += " (" + strings.Join(b.nodes, ", ") + ")"
		}
		for _, line := range b.diff {
			out = append(out, fmt.Sprintf("vs %s: %s", label, line))
		}
	}
	return out
}

// compatGate reads the staged signature's conflicts with every peer's
// active signature, as compared after the health phase. Peers without a
// signature have no interface to break and are skipped. On mismatch it
// returns a *CompatError — unless spec.AllowIncompatible, in which case
// the findings are recorded on the deployment (and its persisted
// history record) and the rollout proceeds.
func (c *Controller) compatGate(d *Deployment, spec Spec, peers []peer) error {
	label := spec.SourceName
	if label == "" {
		label = "staged:" + spec.Version
	}
	var badNodes, msgs []string
	var all diag.List
	// Per-node messages keep every peer's evidence, but the span
	// diagnostics dedup across peers: N nodes running the same stale
	// version would otherwise underline the same source line N times.
	seenDiag := map[diag.Diagnostic]bool{}
	for _, p := range peers {
		if p.cmp == nil {
			c.Publish(obs.KindDeploy, p.node, d.Ref(), "compat:no-signature")
			continue
		}
		if len(p.cmp.Conflicts) == 0 {
			c.Publish(obs.KindDeploy, p.node, d.Ref(), "compat:ok")
			continue
		}
		badNodes = append(badNodes, p.node)
		for _, dg := range p.cmp.Conflicts {
			if dg.Pos.IsValid() {
				msgs = append(msgs, fmt.Sprintf("%s:%s: %s [node %s runs %s]", label, dg.Pos, dg.Msg, p.node, p.version))
			} else {
				msgs = append(msgs, fmt.Sprintf("%s: %s [node %s runs %s]", label, dg.Msg, p.node, p.version))
			}
			if !seenDiag[dg] {
				seenDiag[dg] = true
				all = append(all, dg)
			}
		}
		c.Publish(obs.KindDeploy, p.node, d.Ref(), "compat:mismatch")
	}
	if len(badNodes) == 0 {
		return nil
	}
	if spec.AllowIncompatible {
		d.update(func(v *View) { v.CompatOverride, v.CompatWarnings = true, msgs })
		if c.bus.Active() {
			c.Publish(obs.KindDeploy, "", d.Ref(), "compat:override: proceeding past ", strconv.Itoa(len(msgs)),
				" mismatch(es) on [", strings.Join(badNodes, ", "), "]")
		}
		return nil
	}
	return &CompatError{Version: spec.Version, Nodes: badNodes, Msgs: msgs, Diags: all}
}
