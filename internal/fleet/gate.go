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
// round-trip.
package fleet

import (
	"fmt"
	"sort"
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

// peerSig is what the health probe learned about one target: the
// version it runs and that version's channel-interface signature (nil
// when the node is bare, or its daemon predates signatures).
type peerSig struct {
	version string
	sig     *typecheck.Signature
}

// signatureDiff renders what the staged signature changes relative to
// what the peers run (typecheck.Diff), deduplicated across peers on the
// same version: a homogeneous fleet yields one plain diff, a
// mixed-version fleet prefixes each block with the version it compares
// against. Bare peers (no signature) are skipped — there is no
// interface to diff against.
func signatureDiff(staged *typecheck.Signature, peers map[string]peerSig) []string {
	if staged == nil {
		return nil
	}
	// One representative signature per distinct running version.
	byVersion := map[string]*typecheck.Signature{}
	for _, p := range peers {
		if p.sig != nil {
			byVersion[p.version] = p.sig
		}
	}
	versions := make([]string, 0, len(byVersion))
	for v := range byVersion {
		versions = append(versions, v)
	}
	sort.Strings(versions)

	var out []string
	for _, v := range versions {
		lines := typecheck.Diff(byVersion[v], staged)
		if len(versions) == 1 {
			return lines
		}
		for _, line := range lines {
			out = append(out, fmt.Sprintf("vs %s: %s", v, line))
		}
	}
	return out
}

// compatGate checks the staged signature against every peer's active
// signature, as collected during the health phase. Peers without a
// signature have no interface to break and are skipped. On mismatch it
// returns a *CompatError — unless spec.AllowIncompatible, in which case
// the findings are recorded on the deployment (and its persisted
// history record) and the rollout proceeds.
func (c *Controller) compatGate(d *Deployment, spec Spec, staged *typecheck.Signature, peers map[string]peerSig) error {
	if staged == nil {
		return nil
	}
	label := spec.SourceName
	if label == "" {
		label = "staged:" + spec.Version
	}
	names := make([]string, 0, len(peers))
	for name := range peers {
		names = append(names, name)
	}
	sort.Strings(names)

	var badNodes, msgs []string
	var all diag.List
	// Per-node messages keep every peer's evidence, but the span
	// diagnostics dedup across peers: N nodes running the same stale
	// version would otherwise underline the same source line N times.
	seenDiag := map[diag.Diagnostic]bool{}
	for _, name := range names {
		p := peers[name]
		if p.sig == nil {
			c.Publish(obs.KindDeploy, name, "compat:no-signature")
			continue
		}
		diags := staged.CompatibleWith(p.sig)
		if len(diags) == 0 {
			c.Publish(obs.KindDeploy, name, "compat:ok")
			continue
		}
		badNodes = append(badNodes, name)
		for _, dg := range diags {
			if dg.Pos.IsValid() {
				msgs = append(msgs, fmt.Sprintf("%s:%s: %s [node %s runs %s]", label, dg.Pos, dg.Msg, name, p.version))
			} else {
				msgs = append(msgs, fmt.Sprintf("%s: %s [node %s runs %s]", label, dg.Msg, name, p.version))
			}
			if !seenDiag[dg] {
				seenDiag[dg] = true
				all = append(all, dg)
			}
		}
		c.Publish(obs.KindDeploy, name, "compat:mismatch")
	}
	if len(badNodes) == 0 {
		return nil
	}
	if spec.AllowIncompatible {
		d.update(func(v *View) { v.CompatOverride, v.CompatWarnings = true, msgs })
		c.logf("fleet: deployment %d: compatibility override: proceeding past %d mismatch(es) on [%s]",
			d.view.ID, len(msgs), strings.Join(badNodes, ", "))
		return nil
	}
	return &CompatError{Version: spec.Version, Nodes: badNodes, Msgs: msgs, Diags: all}
}
