// Public observability surface: re-exports of the internal/obs event
// bus and metrics registry so users can watch a network without
// importing internal packages.
//
// Two complementary views exist. The EVENT BUS streams one typed Event
// per packet-level decision (enqueue, drop, forward, deliver, ASP
// invocation, verification rejection) to subscribers attached with
// WithObserver or Network.Events(); with no subscribers the publish
// sites cost nothing. The METRICS registry (Network.Metrics()) holds
// cumulative counters, gauges, histograms, and time series — node
// traffic under "node.<name>.*", per-ASP statistics under
// "asp.<node>.*", plus whatever series an experiment registers.
package planp

import "planp.dev/planp/internal/obs"

type (
	// Event is one observed packet-level occurrence. Its String method
	// renders a pcap-style text line.
	Event = obs.Event
	// EventKind classifies an Event.
	EventKind = obs.Kind
	// Observer consumes events; it is called synchronously from the
	// simulator's single-threaded event loop in subscription order.
	Observer = obs.Subscriber
	// ObserverFunc adapts a function to the Observer interface.
	ObserverFunc = obs.Func
	// EventBus fans events out to observers (see Network.Events).
	EventBus = obs.Bus
	// EventRing is a fixed-size "flight recorder" observer keeping the
	// most recent events.
	EventRing = obs.Ring
	// EventCounts tallies events by kind.
	EventCounts = obs.CountingSink
	// Metrics is the registry all simulation statistics are recorded
	// in (see Network.Metrics).
	Metrics = obs.Registry
	// Series is an append-only (time, value) sequence registered in
	// the Metrics registry by experiments.
	Series = obs.Series
)

// Event kinds published by the network substrate and the ASP runtime.
const (
	// EventEnqueue: a link or segment accepted a packet for
	// serialization.
	EventEnqueue = obs.KindEnqueue
	// EventDrop: a packet was discarded; Event.Detail carries the
	// reason, one of the wire and node reasons obs.KindDrop lists.
	EventDrop = obs.KindDrop
	// EventForward: a router forwarded a packet.
	EventForward = obs.KindForward
	// EventDeliver: a packet reached a local application.
	EventDeliver = obs.KindDeliver
	// EventASPInvoke: an installed protocol handled a packet;
	// Event.Detail is the channel name.
	EventASPInvoke = obs.KindASPInvoke
	// EventVerifyReject: a protocol download was refused by late
	// checking.
	EventVerifyReject = obs.KindVerifyReject
)

// NewEventRing returns a flight-recorder observer holding the most
// recent n events; attach it with WithObserver or Events().Subscribe.
func NewEventRing(n int) *EventRing { return obs.NewRing(n) }
