// Package controlplane models the switch-local control plane and its
// channel to the data plane. The paper's motivating overhead argument
// (§1) is that baseline PISA architectures force periodic maintenance —
// like resetting a count-min sketch — through this channel: every
// operation costs messages and suffers millisecond-scale latency and
// jitter, while an event-driven data plane does the same work from a
// timer event with zero control traffic and cycle-scale jitter.
package controlplane

import (
	"repro/internal/pisa"
	"repro/internal/sim"
)

// Agent is a control-plane process attached to one switch's control
// channel. Operations are asynchronous: they complete after the channel
// latency plus uniform jitter (PCIe + driver + software stack).
type Agent struct {
	sched *sim.Scheduler
	rng   *sim.RNG

	// Latency is the one-way control-channel latency per operation.
	Latency sim.Time
	// Jitter adds a uniform [0, Jitter) delay per operation, modeling OS
	// scheduling noise in the control-plane software.
	Jitter sim.Time

	// Messages counts control-channel messages issued.
	Messages uint64
	// Completed counts operations that have taken effect.
	Completed uint64
}

// New builds an agent with typical PCIe-attached control latency
// (default 100 microseconds ± 400 microseconds jitter, matching software
// control planes under load).
func New(sched *sim.Scheduler, rng *sim.RNG) *Agent {
	return &Agent{
		sched:   sched,
		rng:     rng,
		Latency: 100 * sim.Microsecond,
		Jitter:  400 * sim.Microsecond,
	}
}

// delay draws one operation's completion delay.
func (a *Agent) delay() sim.Time {
	d := a.Latency
	if a.Jitter > 0 {
		d += sim.Time(a.rng.Int63n(int64(a.Jitter)))
	}
	return d
}

// Do issues an operation that costs msgs control messages and applies fn
// when it reaches the data plane. It returns the scheduled apply time.
func (a *Agent) Do(msgs int, fn func()) sim.Time {
	a.Messages += uint64(msgs)
	at := a.sched.Now() + a.delay()
	a.sched.At(at, func() {
		a.Completed++
		if fn != nil {
			fn()
		}
	})
	return at
}

// InstallEntry writes a table entry through the control channel
// (one message).
func (a *Agent) InstallEntry(t *pisa.Table, e *pisa.Entry) {
	a.Do(1, func() {
		// Installation errors are programming mistakes in experiments;
		// surface them loudly.
		if err := t.AddEntry(e); err != nil {
			panic(err)
		}
	})
}
