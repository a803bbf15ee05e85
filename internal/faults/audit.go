package faults

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/netsim"
)

// Report is the outcome of a conservation audit: the number of
// identities checked and the ones that failed.
type Report struct {
	Checks     int
	Violations []string
}

// OK reports whether every checked identity held.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// String renders the report for test failures and experiment logs.
func (r *Report) String() string {
	if r.OK() {
		return fmt.Sprintf("audit ok (%d identities)", r.Checks)
	}
	return fmt.Sprintf("audit FAILED (%d/%d identities):\n  %s",
		len(r.Violations), r.Checks, strings.Join(r.Violations, "\n  "))
}

func (r *Report) check(ok bool, format string, args ...any) {
	r.Checks++
	if !ok {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

// Audit checks packet and event conservation across an entire network:
// every frame offered to a link and every packet accepted by a switch is
// accounted for — delivered, counted lost with a reason, or still
// residing somewhere the audit can see. A flap storm only moves packets
// between these bins; it never makes the books stop balancing.
// Run it at the end of an experiment (mid-run audits are also valid: the
// in-flight terms absorb whatever is still moving).
func Audit(net *netsim.Network) *Report {
	r := &Report{}
	for i, l := range net.Links() {
		auditLink(r, i, l)
	}
	for _, sw := range net.Switches() {
		auditSwitch(r, sw)
	}
	return r
}

// AuditSwitches checks the switch-level identities only, for experiments
// that drive switches directly without a netsim network.
func AuditSwitches(sws ...*core.Switch) *Report {
	r := &Report{}
	for _, sw := range sws {
		auditSwitch(r, sw)
	}
	return r
}

// MustAudit panics with the report when an audit fails; experiments call
// it so a conservation bug can never produce a quietly-wrong table.
func MustAudit(net *netsim.Network) {
	if r := Audit(net); !r.OK() {
		panic("faults: " + r.String())
	}
}

// auditLink checks the link identity: every frame offered is delivered,
// lost to a down link (at send or mid-flight), or still propagating.
func auditLink(r *Report, i int, l *netsim.Link) {
	out := l.Delivered() + l.LostAtSend() + l.LostInFlight() + l.InFlight()
	r.check(l.Sent() == out,
		"link %d (%v): sent %d != delivered %d + lostSend %d + lostFlight %d + inflight %d",
		i, l, l.Sent(), l.Delivered(), l.LostAtSend(), l.LostInFlight(), l.InFlight())
}

// auditSwitch checks the packet-inventory identity and, per event kind,
// the merger-FIFO accounting identities.
func auditSwitch(r *Report, sw *core.Switch) {
	st := sw.Stats()
	_, _, tmDrops, _ := sw.TM().Stats()
	inv := sw.Inventory()
	accepted := st.RxPackets + st.Generated
	accounted := st.TxPackets + st.PipelineDrops + st.TxDroppedLinkDown +
		tmDrops + uint64(inv.Total())
	r.check(accepted == accounted,
		"switch %s: rx %d + gen %d != tx %d + pipeDrop %d + linkDown %d + tmDrop %d + inventory %d %+v",
		sw.Name(), st.RxPackets, st.Generated, st.TxPackets, st.PipelineDrops,
		st.TxDroppedLinkDown, tmDrops, inv.Total(), inv)

	for k := 0; k < events.NumKinds; k++ {
		kind := events.Kind(k)
		q := sw.EventQueue(kind)
		// The switch's per-kind counters and the queue's must agree —
		// they are maintained on opposite sides of the same Offer call.
		r.check(st.EventsDropped[k] == q.Drops(),
			"switch %s %v: stats dropped %d != queue drops %d",
			sw.Name(), kind, st.EventsDropped[k], q.Drops())
		r.check(st.EventsCoalesced[k] == q.Coalesced(),
			"switch %s %v: stats coalesced %d != queue coalesced %d",
			sw.Name(), kind, st.EventsCoalesced[k], q.Coalesced())
		r.check(st.EventsShed[k] == q.Shed(),
			"switch %s %v: stats shed %d != queue shed %d",
			sw.Name(), kind, st.EventsShed[k], q.Shed())
		// Packet events reach the merger on the packet path, not through
		// a FIFO, so the popped==merged identity only applies to kinds
		// that actually traverse their queue.
		if kind.IsPacketEvent() || kind == events.GeneratedPacket {
			continue
		}
		r.check(q.Pushed() == st.EventsMerged[k]+q.Shed()+uint64(q.Len()),
			"switch %s %v: pushed %d != merged %d + shed %d + queued %d",
			sw.Name(), kind, q.Pushed(), st.EventsMerged[k], q.Shed(), q.Len())
	}
}
