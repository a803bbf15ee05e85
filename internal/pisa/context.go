// Package pisa provides the programmable parts of a PISA-style data
// plane: the per-slot execution context, match-action tables, actions,
// and externs (registers, counters, meters, hash units). P4-visible
// behaviour — whether written directly in Go or produced by the µP4
// compiler in internal/p4 — executes against these objects. The physical
// datapath that drives them (ports, clock cycles, traffic manager, event
// merger) lives in internal/core.
package pisa

import (
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/sim"
)

// PortDrop is the sentinel egress port meaning "drop the packet".
const PortDrop = -1

// Context is the execution context for one pipeline slot: the packet (if
// any), the data-plane event being handled, the parsed headers, and the
// forwarding decision under construction. A Context is reused across
// slots; Reset prepares it for the next one.
type Context struct {
	// Pkt is the packet occupying the slot; nil or Empty for pure event
	// metadata slots injected by the Event Merger.
	Pkt *packet.Packet

	// Ev is the data-plane event that triggered this execution.
	Ev events.Event

	// Now is the virtual time of the slot.
	Now sim.Time

	// Cycle is the pipeline clock cycle of the slot.
	Cycle uint64

	// Parsed holds the decoded headers (valid layers listed in Decoded).
	Parsed  packet.Parser
	Decoded []packet.LayerType

	// Flow is the packet's 5-tuple when FlowOK.
	Flow   packet.Flow
	FlowOK bool

	// EgressPort is the forwarding decision, owned by the ingress packet
	// handler: an output port, or PortDrop to drop. The port has one FIFO
	// queue, so there is no queue or rank to choose.
	EgressPort int

	// Recirculate requests the packet re-enter the pipeline after this
	// pass (raising a RecirculatedPacket event).
	Recirculate bool

	// Generated collects packets the handler asks the data plane to
	// emit (reports, probe replies, ...). Each is routed independently
	// on a later pass as a GeneratedPacket event.
	Generated []GenRequest

	// Raised collects user events raised by the handler.
	Raised []events.Event

	// Meta is scratch metadata shared between the handlers that run in
	// the same slot, keyed by field name. Allocated lazily.
	Meta map[string]uint64
}

// GenRequest asks the data plane to emit a packet on a port.
type GenRequest struct {
	Data []byte
	Port int // output port; PortDrop means "route by pipeline" is not supported for generated packets
}

// Reset clears the context for the next slot, retaining allocated
// storage. The slot's triggering event is copied from *ev.
func (c *Context) Reset(pkt *packet.Packet, ev *events.Event, now sim.Time, cycle uint64) {
	c.Pkt = pkt
	c.Ev = *ev
	c.Now = now
	c.Cycle = cycle
	c.Decoded = c.Decoded[:0]
	c.Flow = packet.Flow{}
	c.FlowOK = false
	c.EgressPort = PortDrop
	c.Recirculate = false
	c.Generated = c.Generated[:0]
	c.Raised = c.Raised[:0]
	clear(c.Meta)
}

// Has reports whether the given layer was decoded for this slot's packet.
func (c *Context) Has(t packet.LayerType) bool {
	for _, lt := range c.Decoded {
		if lt == t {
			return true
		}
	}
	return false
}

// Emit queues a generated packet for transmission on the given port.
func (c *Context) Emit(data []byte, port int) {
	c.Generated = append(c.Generated, GenRequest{Data: data, Port: port})
}

// RaiseUser raises a user event with the given payload, to be handled by
// the UserEvent control on a later slot.
func (c *Context) RaiseUser(data uint64) {
	c.Raised = append(c.Raised, events.Event{
		Kind: events.UserEvent, When: c.Now, Data: data, Port: c.Ev.Port,
	})
}

// Drop marks the packet to be dropped.
func (c *Context) Drop() { c.EgressPort = PortDrop }

// SetTOS rewrites the packet's IPv4 TOS byte in place — the multi-bit
// ECN-style marking of paper §3 ("packets carrying multiple bits rather
// than just one, to communicate queue occupancy along the path"). It
// returns false for non-IP or empty packets.
func (c *Context) SetTOS(tos uint8) bool {
	if c.Pkt == nil || c.Pkt.Empty {
		return false
	}
	return packet.SetTOS(c.Pkt.Data, tos)
}

// Trim truncates the packet to its headers (the NDP-style cut-payload
// operation), returning false when there is nothing to trim.
func (c *Context) Trim() bool {
	if c.Pkt == nil || c.Pkt.Empty {
		return false
	}
	trimmed, ok := packet.Trim(c.Pkt.Data)
	if ok {
		c.Pkt.Data = trimmed
	}
	return ok
}

// Control is a P4 control block bound to one or more event kinds: the
// unit of event-handling logic in the paper's programming model.
type Control interface {
	// Apply executes the control's logic for the current slot.
	Apply(ctx *Context)
}

// ControlFunc adapts a function to the Control interface.
type ControlFunc func(ctx *Context)

// Apply implements Control.
func (f ControlFunc) Apply(ctx *Context) { f(ctx) }
