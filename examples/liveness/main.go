// Liveness monitoring example (paper §5): a switch's data plane
// periodically transmits echo requests on each port from timer events,
// its neighbor answers entirely in its own data plane, and when the link
// dies the monitor notifies a collector host with a Report frame — the
// control plane never runs.
//
//	go run ./examples/liveness
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
)

func main() { run(os.Stdout) }

// run is the example, writing its report to w.
func run(w io.Writer) {
	sched := sim.NewScheduler()
	net := netsim.New(sched)

	mon := core.New(core.Config{Name: "monitor"}, core.EventDriven(), sched)
	nbr := core.New(core.Config{Name: "neighbor"}, core.EventDriven(), sched)

	lv, prog := apps.NewLiveness(apps.LivenessConfig{
		SwitchID:    1,
		ProbePorts:  []int{1},
		Period:      sim.Millisecond,
		DeadAfter:   3,
		MonitorPort: 0,
	})
	mon.MustLoad(prog)
	nbr.MustLoad(apps.EchoResponder(2, 0))

	net.AddSwitch(mon)
	net.AddSwitch(nbr)
	link := net.Connect(mon, 1, nbr, 1, 10*sim.Microsecond)

	collector := net.NewHost("collector", packet.IP4(9, 9, 9, 9))
	net.Attach(collector, mon, 0, 0)
	collector.OnRecv = func(data []byte) {
		var p packet.Parser
		var dec []packet.LayerType
		if p.Decode(data, &dec) == nil && len(dec) == 2 && dec[1] == packet.LayerReport {
			fmt.Fprintf(w, "t=%-7v collector: report kind=%d switch=%d port=%d\n",
				sched.Now(), p.Report.Kind, p.Report.Switch, p.Report.V0)
		}
	}

	if err := lv.Arm(mon); err != nil {
		panic(err)
	}

	failAt := 20 * sim.Millisecond
	repairAt := 45 * sim.Millisecond
	sched.At(failAt, func() {
		fmt.Fprintf(w, "t=%-7v link to neighbor FAILS\n", sched.Now())
		net.Fail(link)
	})
	sched.At(repairAt, func() {
		fmt.Fprintf(w, "t=%-7v link REPAIRED\n", sched.Now())
		net.Repair(link)
	})
	sched.Every(10*sim.Millisecond, func() {
		fmt.Fprintf(w, "t=%-7v monitor's view: neighbor alive=%v (echo replies so far: %d)\n",
			sched.Now(), lv.Alive(1), lv.RepliesSeen)
	})

	sched.Run(70 * sim.Millisecond)

	fmt.Fprintln(w)
	for _, n := range lv.Notifications {
		fmt.Fprintf(w, "neighbor-down notification at %v (%v after failure)\n", n.At, n.At-failAt)
	}
	for _, r := range lv.Recoveries {
		fmt.Fprintf(w, "neighbor recovered at %v (%v after repair)\n", r.At, r.At-repairAt)
	}
}
