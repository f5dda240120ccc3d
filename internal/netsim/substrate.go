// Substrate integration: netsim is the reference implementation of the
// internal/substrate interfaces — the deterministic backend every paper
// experiment replays on byte-identically.
//
// The packet model, addressing, and rate metering moved to
// internal/substrate when the ASP runtime was decoupled from the
// simulator; the aliases below are the names netsim's own code and
// bench/ still say (netsim.Packet, netsim.Addr, ...), and they make the
// types IDENTICAL across backends, not parallel copies. Everything else
// is named through package substrate.
package netsim

import (
	"planp.dev/planp/internal/substrate"
)

// Shared substrate types under their historical netsim names.
type (
	// Packet is one datagram.
	Packet = substrate.Packet
	// Addr is a packed big-endian IPv4-style address.
	Addr = substrate.Addr
	// Processor is the PLAN-P layer hook (see substrate.Processor for
	// the retention/mutation contract).
	Processor = substrate.Processor
	// RateMeter measures windowed throughput.
	RateMeter = substrate.RateMeter
)

// DefaultMeterWindow is the default load-measurement window.
const DefaultMeterWindow = substrate.DefaultMeterWindow

// Shared constructors.
var (
	// NewUDP builds a UDP packet.
	NewUDP = substrate.NewUDP
	// MustAddr parses a dotted quad or panics.
	MustAddr = substrate.MustAddr
	// NewRateMeter returns a meter with the given window.
	NewRateMeter = substrate.NewRateMeter
)

// Interface satisfaction: the simulator is a substrate environment and
// its nodes are substrate nodes (compile-time checks; the methods live
// in sim.go, node.go and the embedded substrate.Stack).
var (
	_ substrate.Env       = (*Simulator)(nil)
	_ substrate.Node      = (*Node)(nil)
	_ substrate.FaultPort = (*Iface)(nil)
	_ substrate.Crasher   = (*Node)(nil)
)
