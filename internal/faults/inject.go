package faults

import (
	"fmt"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Options supplies targets a Schedule can reference beyond the network's
// own links, switches and hosts.
type Options struct {
	// Agents are the control-plane agents CPDelay specs index into.
	Agents []*controlplane.Agent
}

// SpecStats counts what one spec's injector actually did. Frame counters
// apply to the impairment kinds; the rest to their named kinds.
type SpecStats struct {
	Flaps          int    // FlapStorm: fail/repair cycles started
	Frames         uint64 // impairments: frames this stage examined
	Lost           uint64 // GELoss: frames discarded
	Corrupted      uint64 // Corrupt: frames with a flipped byte
	Reordered      uint64 // Reorder: frames given extra latency
	Duplicated     uint64 // Duplicate: extra copies created
	EventsInjected uint64 // EventStorm: events the switch accepted
	EventsRefused  uint64 // EventStorm: events the switch refused
}

// Engine is a schedule compiled onto a network's scheduler. It exists to
// expose per-spec statistics; the injectors themselves run as scheduler
// callbacks and link impairments.
type Engine struct {
	sch   *Schedule
	stats []SpecStats
}

// Stats returns a snapshot of spec i's injector counters.
func (e *Engine) Stats(i int) SpecStats { return e.stats[i] }

// stage is one impairment step: it maps an incoming copy of a frame to
// the copies that survive it.
type stage func(d netsim.Deliverable) []netsim.Deliverable

// Apply validates the schedule and arms every spec on the network's
// scheduler: flap storms and event storms become timed callbacks, frame
// impairments chain (in spec order) into a single netsim.Impairment per
// link, pauses and control-plane slowdowns become window callbacks.
//
// Each spec draws from its own RNG seeded by specSeed(sch.Seed, i), so
// the fault trace is a pure function of the schedule: same seed, same
// faults, regardless of what else the simulation does.
//
// Apply is typically called once before Scheduler.Run; specs whose Start
// has already passed begin immediately.
func Apply(net *netsim.Network, sch *Schedule, opts Options) (*Engine, error) {
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	eng := &Engine{
		sch:   sch,
		stats: make([]SpecStats, len(sch.Specs)),
	}
	sched := net.Scheduler()
	chains := make(map[*netsim.Link][]stage)

	for i := range sch.Specs {
		s := &sch.Specs[i]
		rng := sim.NewRNG(specSeed(sch.Seed, i))
		st := &eng.stats[i]
		switch s.Kind {
		case FlapStorm:
			l, err := linkAt(net, s.Link)
			if err != nil {
				return nil, fmt.Errorf("spec %d: %w", i, err)
			}
			if s.Count > 0 || s.End > 0 {
				// Bounded storm: the trace is a pure function of the
				// schedule, so unroll it into timed transitions now.
				// ScheduleLinkChange arms both endpoints for the same
				// instants, which also covers cross-domain links.
				unrollFlapStorm(net, l, s, rng, st)
			} else {
				if l.Cross() {
					return nil, fmt.Errorf("spec %d: unbounded flap storm on cross-domain link %v (set count or end)", i, l)
				}
				armFlapStorm(net, l.Scheduler(), l, s, rng, st)
			}
		case GELoss, Corrupt, Reorder, Duplicate:
			l, err := linkAt(net, s.Link)
			if err != nil {
				return nil, fmt.Errorf("spec %d: %w", i, err)
			}
			if l.Cross() {
				return nil, fmt.Errorf("spec %d: impairment on cross-domain link %v (impairments keep shared state; keep the link inside one domain)", i, l)
			}
			chains[l] = append(chains[l], frameStage(l.Scheduler(), s, rng, st))
		case HostPause:
			hosts := net.Hosts()
			if s.Host >= len(hosts) {
				return nil, fmt.Errorf("spec %d: host %d of %d", i, s.Host, len(hosts))
			}
			h := hosts[s.Host]
			hs := h.Scheduler()
			hs.At(laterOf(s.Start, hs.Now()), h.Pause)
			hs.At(laterOf(s.End, hs.Now()), h.Resume)
		case EventStorm:
			sws := net.Switches()
			if s.Switch >= len(sws) {
				return nil, fmt.Errorf("spec %d: switch %d of %d", i, s.Switch, len(sws))
			}
			armEventStorm(sws[s.Switch].Scheduler(), sws[s.Switch], s, rng, st)
		case CPDelay:
			if s.Agent >= len(opts.Agents) {
				return nil, fmt.Errorf("spec %d: agent %d of %d", i, s.Agent, len(opts.Agents))
			}
			armCPDelay(sched, opts.Agents[s.Agent], s)
		}
	}
	for l, stages := range chains {
		l.SetImpair(compose(stages))
	}
	return eng, nil
}

// MustApply is Apply for experiment code, where a bad schedule is a
// programming error.
func MustApply(net *netsim.Network, sch *Schedule, opts Options) *Engine {
	eng, err := Apply(net, sch, opts)
	if err != nil {
		panic(err)
	}
	return eng
}

func linkAt(net *netsim.Network, i int) (*netsim.Link, error) {
	links := net.Links()
	if i >= len(links) {
		return nil, fmt.Errorf("link %d of %d", i, len(links))
	}
	return links[i], nil
}

func laterOf(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

// unrollFlapStorm expands a bounded storm (Count or End set) into
// statically scheduled link transitions, replaying exactly the cadence,
// jitter draws, and stop conditions of the live loop in armFlapStorm.
// Static unrolling is what makes storms partition-safe: every transition
// is armed on both endpoints' domains before the run starts, so no
// domain ever has to reach across a boundary mid-window.
func unrollFlapStorm(net *netsim.Network, l *netsim.Link, s *Spec, rng *sim.RNG, st *SpecStats) {
	t := laterOf(s.Start, l.Scheduler().Now())
	for {
		if s.End > 0 && t > s.End {
			return
		}
		st.Flaps++
		down, up := s.Down, s.Up
		if s.Jitter {
			down = rng.ExpTime(s.Down)
			if s.Up > 0 {
				up = rng.ExpTime(s.Up)
			}
		}
		if s.Period > 0 && down >= s.Period {
			down = s.Period - 1
		}
		net.ScheduleLinkChange(l, t, false)
		net.ScheduleLinkChange(l, t+down, true)
		if s.Count > 0 && st.Flaps >= s.Count {
			return
		}
		if s.Period > 0 {
			t += s.Period
		} else {
			t += down + up
		}
	}
}

// armFlapStorm schedules the fail/repair loop for an unbounded storm
// (no Count or End: it cannot be unrolled). With Period the loop runs
// on a fixed cadence (jittered down-times are clamped below the period so
// the link is back up before the next flap); without it, each cycle is
// down + up long.
func armFlapStorm(net *netsim.Network, sched *sim.Scheduler, l *netsim.Link,
	s *Spec, rng *sim.RNG, st *SpecStats) {
	var flap func()
	flap = func() {
		if s.End > 0 && sched.Now() > s.End {
			return
		}
		st.Flaps++
		down, up := s.Down, s.Up
		if s.Jitter {
			down = rng.ExpTime(s.Down)
			if s.Up > 0 {
				up = rng.ExpTime(s.Up)
			}
		}
		if s.Period > 0 && down >= s.Period {
			down = s.Period - 1
		}
		net.Fail(l)
		sched.After(down, func() { net.Repair(l) })
		if s.Count > 0 && st.Flaps >= s.Count {
			return
		}
		if s.Period > 0 {
			sched.After(s.Period, flap)
		} else {
			sched.After(down+up, flap)
		}
	}
	sched.At(laterOf(s.Start, sched.Now()), flap)
}

// armEventStorm schedules Count bursts of Burst raw events into the
// switch's merger FIFOs, Period apart.
func armEventStorm(sched *sim.Scheduler, sw *core.Switch, s *Spec,
	rng *sim.RNG, st *SpecStats) {
	fired := 0
	var burst func()
	burst = func() {
		if s.End > 0 && sched.Now() > s.End {
			return
		}
		fired++
		for j := 0; j < s.Burst; j++ {
			ev := events.Event{
				Kind: s.Event,
				When: sched.Now(),
				Port: s.Port,
				Up:   rng.Bool(0.5),
				Data: rng.Uint64(),
			}
			if sw.InjectEvent(ev) {
				st.EventsInjected++
			} else {
				st.EventsRefused++
			}
		}
		if fired < s.Count {
			sched.After(s.Period, burst)
		}
	}
	sched.At(laterOf(s.Start, sched.Now()), burst)
}

// armCPDelay scales the agent's control-channel latency (and jitter, in
// proportion) over [Start, End], then restores the originals.
func armCPDelay(sched *sim.Scheduler, a *controlplane.Agent, s *Spec) {
	var savedLat, savedJit sim.Time
	sched.At(laterOf(s.Start, sched.Now()), func() {
		savedLat, savedJit = a.Latency, a.Jitter
		a.Latency = sim.Time(float64(a.Latency) * s.Factor)
		a.Jitter = sim.Time(float64(a.Jitter) * s.Factor)
	})
	sched.At(laterOf(s.End, sched.Now()), func() {
		a.Latency, a.Jitter = savedLat, savedJit
	})
}

// active reports whether a windowed frame impairment applies right now.
func active(sched *sim.Scheduler, s *Spec) bool {
	now := sched.Now()
	return now >= s.Start && (s.End == 0 || now <= s.End)
}

// frameStage builds the per-frame impairment step for one spec.
func frameStage(sched *sim.Scheduler, s *Spec, rng *sim.RNG, st *SpecStats) stage {
	switch s.Kind {
	case GELoss:
		// Two-state Gilbert–Elliott chain: per frame, lose with the
		// current state's probability, then step the chain.
		bad := false
		return func(d netsim.Deliverable) []netsim.Deliverable {
			if !active(sched, s) {
				return []netsim.Deliverable{d}
			}
			st.Frames++
			loss := s.LossGood
			if bad {
				loss = s.LossBad
			}
			lost := rng.Bool(loss)
			if bad {
				if rng.Bool(s.PBadGood) {
					bad = false
				}
			} else if rng.Bool(s.PGoodBad) {
				bad = true
			}
			if lost {
				st.Lost++
				return nil
			}
			return []netsim.Deliverable{d}
		}
	case Corrupt:
		return func(d netsim.Deliverable) []netsim.Deliverable {
			if !active(sched, s) {
				return []netsim.Deliverable{d}
			}
			st.Frames++
			if len(d.Data) > 0 && rng.Bool(s.Prob) {
				// Flip at least one bit of a random byte. The frame is
				// already a private copy (netsim guarantees it), so this
				// cannot corrupt a buffer the sender retains.
				d.Data[rng.Intn(len(d.Data))] ^= byte(1 + rng.Intn(255))
				st.Corrupted++
			}
			return []netsim.Deliverable{d}
		}
	case Reorder:
		return func(d netsim.Deliverable) []netsim.Deliverable {
			if !active(sched, s) {
				return []netsim.Deliverable{d}
			}
			st.Frames++
			if rng.Bool(s.Prob) {
				d.ExtraDelay += 1 + sim.Time(rng.Int63n(int64(s.Delay)))
				st.Reordered++
			}
			return []netsim.Deliverable{d}
		}
	case Duplicate:
		return func(d netsim.Deliverable) []netsim.Deliverable {
			if !active(sched, s) {
				return []netsim.Deliverable{d}
			}
			st.Frames++
			if !rng.Bool(s.Prob) {
				return []netsim.Deliverable{d}
			}
			st.Duplicated++
			// The copy gets its own bytes so a later corruption stage
			// mutating one copy cannot alias the other.
			dup := netsim.Deliverable{
				Data:       append([]byte(nil), d.Data...),
				ExtraDelay: d.ExtraDelay + s.Delay,
			}
			return []netsim.Deliverable{d, dup}
		}
	}
	panic("faults: not a frame impairment: " + s.Kind.String())
}

// compose chains stages in spec order into one link Impairment: each
// stage maps every copy the previous stages let through.
func compose(stages []stage) netsim.Impairment {
	if len(stages) == 1 {
		only := stages[0]
		return func(data []byte) []netsim.Deliverable {
			return only(netsim.Deliverable{Data: data})
		}
	}
	return func(data []byte) []netsim.Deliverable {
		outs := []netsim.Deliverable{{Data: data}}
		for _, st := range stages {
			next := outs[:0:0]
			for _, d := range outs {
				next = append(next, st(d)...)
			}
			outs = next
			if len(outs) == 0 {
				return nil
			}
		}
		return outs
	}
}
