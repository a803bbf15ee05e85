package bench

import (
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/self"
)

// Env is everything one campaign owns: how wide it runs and what it
// collects. Experiments are handed
// their Env and keep no state of their own, so campaigns with different
// settings can share a process. The zero Env is the default run; set the
// fields before the first experiment starts and leave them alone after.
// Output is byte-identical for every Parallelism and Domains value and
// with or without the self-metrics plane; only wall-clock time changes.
type Env struct {
	// Parallelism is the number of RunParallel workers; 0 (or less)
	// means GOMAXPROCS, 1 runs trials serially.
	Parallelism int
	// Domains is how many partition domains topology experiments split
	// their switches across; 0 (or less) means 1, the single scheduler.
	Domains int
	// Telemetry, when set, makes instrumented experiments record one
	// collector per trial (TelemetryRuns), read only after the campaign.
	Telemetry *telemetry.Options
	// Self, when set, is the wall-clock self-metrics plane every
	// scheduler, switch and worker pool of the campaign records into.
	Self *self.Plane

	mu   sync.Mutex // guards runs: RunParallel workers add collectors concurrently
	runs []telemetry.RunExport
}

func (e *Env) workers() int {
	if e.Parallelism > 0 {
		return e.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (e *Env) domains() int { return max(e.Domains, 1) }

// newSwitch is how every experiment builds a switch: core.New on a
// scheduler that records into the campaign's plane.
func (e *Env) newSwitch(cfg core.Config, arch *core.Arch, sched *sim.Scheduler) *core.Switch {
	sched.SetSelf(e.Self)
	return core.New(cfg, arch, sched)
}

// fabric returns the network a topology experiment wires its nSwitches
// switches into and the scheduler each of them is built on: one scheduler
// for everything, or, from 2 domains up, a partition of at most one
// domain per switch with switch i in domain plan(i, domains).
func (e *Env) fabric(domains, nSwitches int, classic bool, plan func(i, domains int) int) (*netsim.Network, func(i int) *sim.Scheduler) {
	domains = min(domains, nSwitches)
	if domains < 2 {
		sched := sim.NewScheduler()
		return netsim.New(sched), func(int) *sim.Scheduler { return sched }
	}
	part := sim.NewPartition(domains)
	part.SetSelf(e.Self)
	part.SetClassicWindows(classic)
	return netsim.NewPartitioned(part), func(i int) *sim.Scheduler { return part.Sched(plan(i, domains)) }
}

// roundRobin is the fabric plan that deals switches out in index order.
func roundRobin(i, domains int) int { return i % domains }
