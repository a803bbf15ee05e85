// Package core implements the paper's contribution: an event-driven PISA
// switch architecture. A Switch is a cycle-level model of the SUME Event
// Switch datapath (paper Figure 4): input ports feed an Event Merger that
// pairs each pipeline slot with pending data-plane events (injecting an
// empty packet when the wire is idle), a single P4 pipeline executes the
// program's event handlers, and a traffic manager with output queues
// raises enqueue/dequeue/overflow/underflow events that feed back into
// the merger. Timer, packet-generator, link-status and control-plane
// blocks produce the non-packet events of Table 1.
//
// The same Switch, configured with the Baseline architecture, models a
// baseline PISA/PSA device: only packet events are exposed to the
// program, and every other event source is absent — exactly the contrast
// the paper draws in Figures 1 and 2.
package core

import (
	"fmt"

	"repro/internal/events"
	"repro/internal/pisa"
)

// Arch is the P4 architecture description: the set of data-plane events a
// target exposes to programs (paper §2: "A particular target device
// exposes the precise set of events that it supports via the P4
// architecture description file.").
type Arch struct {
	// Name identifies the architecture in diagnostics.
	Name string

	// Supported flags each event kind the target exposes.
	Supported [events.NumKinds]bool

	// Timers is the number of hardware timers (0 disables the block).
	Timers int

	// Generator enables the configurable packet generator block.
	Generator bool
}

// Supports reports whether the architecture exposes event kind k.
func (a *Arch) Supports(k events.Kind) bool { return a.Supported[k] }

// Validate checks that a program only handles events the architecture
// exposes. Loading a program that binds an unsupported event fails, the
// way a P4 compile against the wrong architecture file would.
func (a *Arch) Validate(p *pisa.Program) error {
	for _, k := range p.HandledKinds() {
		if !a.Supported[k] {
			return fmt.Errorf("core: architecture %q does not expose event %v bound by program %q",
				a.Name, k, p.Name())
		}
	}
	return nil
}

// Baseline returns the baseline PISA/PSA architecture: packet events
// only (paper Figure 1). There are no timers, no packet generator, and
// the traffic manager's events are invisible to the program.
func Baseline() *Arch {
	a := &Arch{Name: "baseline-pisa"}
	a.Supported[events.IngressPacket] = true
	a.Supported[events.EgressPacket] = true
	a.Supported[events.RecirculatedPacket] = true
	return a
}

// EventDriven returns the full event-driven architecture of the SUME
// Event Switch (paper Figure 4): every event of Table 1, eight hardware
// timers, and the packet generator.
func EventDriven() *Arch {
	a := &Arch{Name: "sume-event-switch", Timers: 8, Generator: true}
	for k := 0; k < events.NumKinds; k++ {
		a.Supported[k] = true
	}
	return a
}
