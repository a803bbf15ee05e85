package bench

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	register(Experiment{ID: "cmsreset", Paper: "§1 claim: CMS periodic reset overhead, control plane vs timer events", Run: CMSReset})
}

// CMSReset quantifies the paper's §1 motivating overhead: a count-min
// sketch that must be reset every T. On a baseline architecture the
// control plane issues the reset (messages on the control channel,
// software latency and jitter); on the event-driven architecture a timer
// event resets it in the data plane with no control traffic and
// slot-scale jitter. Sweeping T shows the control-plane message rate
// exploding at small periods while the event-driven cost stays zero.
func CMSReset(env *Env) *Result {
	res := &Result{
		ID:    "cmsreset",
		Title: "Count-min-sketch periodic reset: control plane vs timer events (paper §1)",
		Cols: []string{"reset period", "design", "resets", "ctrl msgs/s",
			"jitter mean", "jitter p99"},
	}
	const horizon = 400 * sim.Millisecond
	for _, period := range []sim.Time{sim.Millisecond, 10 * sim.Millisecond, 100 * sim.Millisecond} {
		// Event-driven.
		{
			sched := sim.NewScheduler()
			sw := env.newSwitch(core.Config{}, core.EventDriven(), sched)
			app, prog := apps.NewCMSEventDriven(3, 2048, 1)
			sw.MustLoad(prog)
			mustOK(app.Arm(sw, period))
			driveCMSTraffic(sched, sw, horizon)
			sched.Run(horizon)
			mustConserve(sw)
			j := app.ResetJitter()
			res.AddRow(period.String(), "timer event",
				d(len(app.ResetTimes)), "0",
				sim.Time(j.Mean()).String(), sim.Time(j.Percentile(99)).String())
		}
		// Baseline via control plane.
		{
			sched := sim.NewScheduler()
			sw := env.newSwitch(core.Config{}, core.Baseline(), sched)
			app, prog := apps.NewCMSBaseline(3, 2048, 1)
			sw.MustLoad(prog)
			agent := controlplane.New(sched, sim.NewRNG(5))
			app.StartBaselineResets(sched, agent, period)
			driveCMSTraffic(sched, sw, horizon)
			sched.Run(horizon)
			mustConserve(sw)
			j := app.ResetJitter()
			msgsPerSec := float64(agent.Messages) / horizon.Seconds()
			res.AddRow(period.String(), "control plane",
				d(len(app.ResetTimes)), fmt.Sprintf("%.0f", msgsPerSec),
				sim.Time(j.Mean()).String(), sim.Time(j.Percentile(99)).String())
		}
	}
	res.Notef("control channel modeled at 100us latency + up to 400us software jitter, 1 message per sketch row")
	res.Notef("timer-event jitter is the gap between timer expiry and the handler's slot (at most a few cycles)")
	return res
}

func driveCMSTraffic(sched *sim.Scheduler, sw *core.Switch, horizon sim.Time) {
	rng := sim.NewRNG(77)
	flows := workload.NewFlowSet(500, 1.0, packet.IP4(10, 0, 0, 0))
	g := workload.NewGen(sched, rng, func(d []byte) { sw.Inject(0, d) })
	g.StartPoisson(workload.PoissonConfig{Flows: flows, MeanGap: 10 * sim.Microsecond, Until: horizon})
}
