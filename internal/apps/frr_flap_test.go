package apps

import (
	"testing"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/pisa"
	"repro/internal/sim"
)

// TestFRRSurvivesFlapStorm drives fast re-route through 100 periodic
// link flaps from faults.FlapStorm: every failure converges within one
// LinkStatusChange (packets-lost-per-flap stays at in-flight scale, far
// below the down-time worth of traffic), the router returns to the
// primary after each repair, the failover counters match the storm
// exactly, and the whole run passes the conservation audit. The two
// switches run in separate partition domains, so the stormed primary
// crosses the domain boundary and each side flips in its own domain.
func TestFRRSurvivesFlapStorm(t *testing.T) {
	part := sim.NewPartition(2)
	net := netsim.NewPartitioned(part)
	sched := part.Sched(0)

	frrSw := core.New(core.Config{Name: "frr"}, core.EventDriven(), sched)
	dstIdx := int(uint32(flowN(0).Dst) >> 16)
	r, prog := NewFRR(FRRConfig{
		Primary: map[int]int{dstIdx: 1},
		Backup:  map[int]int{dstIdx: 2},
	})
	frrSw.MustLoad(prog)

	sink := core.New(core.Config{Name: "sink"}, core.Baseline(), part.Sched(1))
	sinkProg := pisa.NewProgram("to-dst")
	sinkProg.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) { ctx.EgressPort = 2 })
	sink.MustLoad(sinkProg)

	net.AddSwitch(frrSw)
	net.AddSwitch(sink)
	src := net.NewHost("src", flowN(7).Src)
	dst := net.NewHost("dst", flowN(7).Dst)
	net.Attach(src, frrSw, 0, 0)
	primary := net.Connect(frrSw, 1, sink, 0, 500*sim.Nanosecond)
	net.Connect(frrSw, 2, sink, 1, 500*sim.Nanosecond) // backup
	net.Attach(dst, sink, 2, 0)
	if !primary.Cross() {
		t.Fatal("primary link does not cross the domain boundary")
	}

	// 100 flaps on the primary, 50us down every 200us: a 20ms storm.
	const flaps = 100
	downs := 0
	net.OnLinkChange = func(l *netsim.Link, up bool) {
		if l == primary && !up {
			downs++
		}
	}
	faults.FlapStorm(net, primary, sim.Millisecond, 200*sim.Microsecond, 50*sim.Microsecond, flaps)

	// CBR source: one packet every 10us for 25ms — 2500 packets, ~5 of
	// which would die per flap if failover took the whole down-time.
	const sent = 2500
	for i := 0; i < sent; i++ {
		at := sim.Time(i) * 10 * sim.Microsecond
		sched.At(at, func() { src.Send(frameFor(flowN(7), 100)) })
	}
	net.Run(30 * sim.Millisecond)

	if downs != flaps {
		t.Fatalf("storm ran %d flaps, want %d", downs, flaps)
	}
	if r.Failovers != flaps {
		t.Errorf("failovers = %d, want exactly %d (one per flap)", r.Failovers, flaps)
	}
	// Every received packet was routed one way or the other.
	st := frrSw.Stats()
	if r.RoutedPrimary+r.RoutedBackup != st.RxPackets {
		t.Errorf("routed %d+%d != rx %d", r.RoutedPrimary, r.RoutedBackup, st.RxPackets)
	}
	// The storm keeps the primary down 25%% of the time, so a correct
	// re-router sends a visible share — but not the majority — via backup.
	if r.RoutedBackup == 0 || r.RoutedBackup >= r.RoutedPrimary {
		t.Errorf("primary=%d backup=%d, want backup in (0, primary)", r.RoutedPrimary, r.RoutedBackup)
	}
	// Convergence within one event: losses stay at in-flight scale
	// (frames already on the failed link or routed before the event
	// drained), nowhere near the 5-per-flap a slow path would lose.
	if lost := sent - dst.RxPackets; lost > 2*flaps {
		t.Errorf("lost %d packets across %d flaps, want <= %d (one-event convergence)",
			lost, flaps, 2*flaps)
	}
	// After the last repair the router is back on the primary.
	before := r.RoutedPrimary
	src.Send(frameFor(flowN(7), 100))
	net.Run(31 * sim.Millisecond)
	if r.RoutedPrimary != before+1 {
		t.Errorf("post-storm packet not routed on primary (primary %d -> %d)", before, r.RoutedPrimary)
	}
	if rep := faults.Audit(net); !rep.OK() {
		t.Fatal(rep)
	}
}
