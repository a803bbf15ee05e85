// Package faults is a deterministic, scheduler-driven fault-injection
// engine for netsim networks. A declarative Schedule lists timed fault
// Specs — link flap storms, Gilbert–Elliott loss, byte corruption,
// reordering, duplication, host pause/resume, control-plane slowdowns,
// and event-queue pressure storms — that an Engine compiles onto the
// simulation scheduler. Every stochastic choice flows through a seeded
// sim.RNG derived from the Schedule's seed and the spec's index, so a
// schedule replays bit-identically: same seed, same fault trace, at any
// experiment-harness worker count.
//
// The package also provides Audit, an end-of-run invariant checker that
// proves packet and event conservation — injected = delivered + lost +
// dropped — across netsim links, switch counters, and event queues. The
// paper's operational claim (§3, §5) is that an event-driven data plane
// reacts to faults at data-plane timescales; the resilience experiments
// in internal/bench use this package to quantify that claim under
// realistic fault workloads instead of hand-placed Fail/Repair calls.
package faults

import (
	"fmt"

	"repro/internal/events"
	"repro/internal/sim"
)

// Kind enumerates the fault injectors a Spec can select.
type Kind uint8

const (
	// FlapStorm repeatedly fails and repairs one link. With Period set,
	// flaps start on a fixed cadence (the flap rate of the resilience
	// sweeps); otherwise each repair is followed by an up-time gap. With
	// Jitter, down/up durations are exponential draws around Down/Up.
	FlapStorm Kind = iota + 1
	// GELoss drops frames on a link following a two-state
	// Gilbert–Elliott chain: per-frame transitions between a good and a
	// bad state with per-state loss probabilities, modeling bursty loss.
	GELoss
	// Corrupt flips random bytes of frames crossing a link with a
	// per-frame probability. The link layer hands injectors a private
	// copy, so corruption never aliases sender-retained buffers.
	Corrupt
	// Reorder delays individual frames by a uniform extra latency with a
	// per-frame probability, letting later frames overtake them.
	Reorder
	// Duplicate delivers an extra copy of a frame with a per-frame
	// probability (the copy trails by Delay, or arrives in order when
	// Delay is zero).
	Duplicate
	// HostPause freezes a host's transmit path from Start to End; held
	// frames flush, in order, at End.
	HostPause
	// EventStorm injects bursts of raw events (LinkStatusChange,
	// BufferOverflow, UserEvent, ...) straight into a switch's merger
	// FIFOs — queue pressure without the packets that would normally
	// cause it. This is the adversarial workload for overflow policies.
	EventStorm
	// CPDelay multiplies a control-plane agent's channel latency between
	// Start and End, modeling delayed control-plane convergence.
	CPDelay

	kindEnd
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case FlapStorm:
		return "Flap"
	case GELoss:
		return "Loss"
	case Corrupt:
		return "Corrupt"
	case Reorder:
		return "Reorder"
	case Duplicate:
		return "Dup"
	case HostPause:
		return "Pause"
	case EventStorm:
		return "Storm"
	case CPDelay:
		return "CPDelay"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Spec is one declarative fault. Fields beyond Kind and the target index
// are interpreted per kind; Validate rejects combinations that would
// misbehave (negative probabilities, unbounded storms, ...).
type Spec struct {
	Kind Kind

	// Link, Switch, Host and Agent select the fault's target by index
	// into the network's Links()/Switches()/Hosts() slices or the
	// engine's Options.Agents. Only the index relevant to Kind is read.
	Link   int
	Switch int
	Host   int
	Agent  int

	// Start and End bound the fault's active window. End zero means
	// "no explicit end" where the kind allows it (frame impairments run
	// forever; FlapStorm and EventStorm are bounded by Count instead;
	// HostPause and CPDelay require an End).
	Start, End sim.Time

	// Period is the repetition cadence for FlapStorm and EventStorm.
	Period sim.Time
	// Count bounds repetitions (flaps or bursts).
	Count int

	// Down and Up are the FlapStorm outage and recovery durations.
	Down, Up sim.Time
	// Jitter draws Down/Up from exponential distributions instead of
	// using them verbatim.
	Jitter bool

	// Gilbert–Elliott parameters: per-frame transition probabilities
	// good->bad and bad->good, and per-state loss probabilities.
	PGoodBad, PBadGood float64
	LossGood, LossBad  float64

	// Prob is the per-frame probability for Corrupt/Reorder/Duplicate.
	Prob float64
	// Delay is the maximum extra latency for Reorder (uniform draw) and
	// the fixed lag of a Duplicate copy.
	Delay sim.Time

	// EventStorm payload: the kind injected, the burst size per firing,
	// and the Port attribute stamped on injected events.
	Event events.Kind
	Burst int
	Port  int

	// Factor is the CPDelay latency multiplier.
	Factor float64
}

// Schedule is a reproducible fault workload: a seed plus an ordered list
// of fault specs.
type Schedule struct {
	Seed  uint64
	Specs []Spec
}

// prob reports whether p is a valid probability.
func prob(p float64) bool { return p >= 0 && p <= 1 && p == p } // p==p rejects NaN

// Validate checks a single spec's internal consistency. Target indices
// are checked for non-negativity only; Apply checks them against the
// actual network.
func (s *Spec) Validate() error {
	if s.Kind == 0 || s.Kind >= kindEnd {
		return fmt.Errorf("faults: unknown kind %d", s.Kind)
	}
	if s.Link < 0 || s.Switch < 0 || s.Host < 0 || s.Agent < 0 {
		return fmt.Errorf("faults: %v: negative target index", s.Kind)
	}
	if s.Start < 0 || s.End < 0 || s.Period < 0 || s.Down < 0 || s.Up < 0 || s.Delay < 0 {
		return fmt.Errorf("faults: %v: negative duration", s.Kind)
	}
	if s.End != 0 && s.End < s.Start {
		return fmt.Errorf("faults: %v: end %v before start %v", s.Kind, s.End, s.Start)
	}
	if s.Count < 0 {
		return fmt.Errorf("faults: %v: negative count", s.Kind)
	}
	switch s.Kind {
	case FlapStorm:
		if s.Down <= 0 {
			return fmt.Errorf("faults: flap needs a positive down duration")
		}
		if s.Period == 0 && s.Up <= 0 {
			return fmt.Errorf("faults: flap needs a positive up duration (or a period)")
		}
		if s.Period > 0 && s.Down >= s.Period {
			return fmt.Errorf("faults: flap down %v must be shorter than period %v", s.Down, s.Period)
		}
		if s.Count == 0 && s.End == 0 {
			return fmt.Errorf("faults: unbounded flap storm (set count or end)")
		}
	case GELoss:
		if !prob(s.PGoodBad) || !prob(s.PBadGood) || !prob(s.LossGood) || !prob(s.LossBad) {
			return fmt.Errorf("faults: loss probabilities must be in [0,1]")
		}
	case Corrupt, Reorder, Duplicate:
		if !prob(s.Prob) {
			return fmt.Errorf("faults: %v probability must be in [0,1]", s.Kind)
		}
		if s.Kind == Reorder && s.Delay <= 0 {
			return fmt.Errorf("faults: reorder needs a positive delay")
		}
	case HostPause:
		if s.End == 0 {
			return fmt.Errorf("faults: pause needs an end time")
		}
	case EventStorm:
		if int(s.Event) < 0 || int(s.Event) >= events.NumKinds {
			return fmt.Errorf("faults: storm event kind %d out of range", s.Event)
		}
		if s.Burst <= 0 {
			return fmt.Errorf("faults: storm needs a positive burst size")
		}
		if s.Count > 1 && s.Period <= 0 {
			return fmt.Errorf("faults: repeated storm needs a positive period")
		}
		if s.Count == 0 {
			return fmt.Errorf("faults: storm needs a positive count")
		}
	case CPDelay:
		if s.Factor < 1 || s.Factor != s.Factor {
			return fmt.Errorf("faults: cpdelay factor must be >= 1")
		}
		if s.End == 0 {
			return fmt.Errorf("faults: cpdelay needs an end time")
		}
	}
	return nil
}

// Validate checks every spec in the schedule.
func (s *Schedule) Validate() error {
	for i := range s.Specs {
		if err := s.Specs[i].Validate(); err != nil {
			return fmt.Errorf("spec %d: %w", i, err)
		}
	}
	return nil
}

// specSeed derives the per-spec RNG seed from the schedule seed and the
// spec index (a splitmix64 step), so each injector draws an independent
// deterministic stream no matter how specs interleave at run time.
func specSeed(base uint64, idx int) uint64 {
	x := base + uint64(idx+1)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
