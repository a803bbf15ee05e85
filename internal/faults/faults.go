// Package faults injects the one fault the experiments use — a periodic
// link flap storm — and audits packet and event conservation afterwards.
//
// The paper's operational claim (§3, §5) is that an event-driven data
// plane reacts to link failures at data-plane timescales: link-status
// events drive the fast re-route. FlapStorm fails and repairs a link on
// a fixed cadence so the resilience experiment in internal/bench can
// measure that claim under repeated failures. The storm is a pure
// function of its arguments, so it replays identically at any harness
// worker count and any partition width.
//
// Audit is an end-of-run invariant checker that proves packet and event
// conservation — injected = delivered + lost + still resident — across
// netsim links, switch counters, and event queues.
package faults

import (
	"repro/internal/netsim"
	"repro/internal/sim"
)

// FlapStorm arms count flaps of link l: flap i takes the link down at
// start+i·period and brings it back up down later. Every transition is
// armed now through Network.ScheduleLinkChange, down before up, flap by
// flap, so on a link that crosses partition domains each side flips at
// the same virtual instant in its own domain and no domain reaches
// across the boundary mid-window. Call it before the run reaches start.
func FlapStorm(net *netsim.Network, l *netsim.Link, start, period, down sim.Time, count int) {
	// The arguments are the resilience sweep's constants and test
	// literals; no flag or file reaches them. A storm whose outage is not
	// shorter than its period would repair the link after the next flap
	// failed it, so such a call is a programming error.
	if down <= 0 || down >= period || count <= 0 {
		panic("faults: flap storm needs 0 < down < period and count > 0")
	}
	for i := 0; i < count; i++ {
		t := start + sim.Time(i)*period
		net.ScheduleLinkChange(l, t, false)
		net.ScheduleLinkChange(l, t+down, true)
	}
}
