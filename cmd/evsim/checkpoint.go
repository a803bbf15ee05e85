package main

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/sim"
)

// checkpointer periodically serializes the whole simulation to one file,
// atomically (temp + rename), so a SIGKILL at any instant leaves either
// the previous checkpoint or the new one — never a torn file.
//
// The checkpoint protocol needs the checkpointer to be part of the state
// it captures: its firing event consumed a scheduler sequence number, so
// a resumed run must replay that event (and the next one) at the exact
// same coordinates or every later event shifts. fire therefore arms the
// next firing before snapshotting, records the just-fired event's
// (at, seq) — the DropFired cut line — and the armed one's, and the
// restore path re-creates the armed firing with RestoreAt.
type checkpointer struct {
	st    *simState
	every sim.Time
	path  string
	dig   uint64

	// The "clock" section: the scheduler's counters, the just-fired
	// event's coordinates (the DropFired cut line) and the armed one's
	// (the handle goes dead the moment it fires, so they are cached at arm
	// time).
	clk             sim.ClockState
	curAt, nextAt   sim.Time
	curSeq, nextSeq uint64
	h               sim.Handle

	wrote int
	err   error // first write failure; reported after the run
}

func newCheckpointer(st *simState) *checkpointer {
	return &checkpointer{st: st, every: st.cfg.ckptEvery, path: st.cfg.ckptPath, dig: st.cfg.digest()}
}

// section is one named part of the checkpoint file and the walk that
// saves or loads it.
type section struct {
	name string
	walk func(*checkpoint.Codec)
}

// sections lists what a checkpoint file holds, in file order. fire saves
// the list and restoreRun loads it, so a section added here is both
// written and read.
func (c *checkpointer) sections() []section {
	st := c.st
	return []section{
		{"clock", func(cc *checkpoint.Codec) {
			cc.I64((*int64)(&c.clk.Now))
			cc.U64(&c.clk.Seq)
			cc.U64(&c.clk.Fired)
			cc.I64((*int64)(&c.curAt))
			cc.U64(&c.curSeq)
			cc.I64((*int64)(&c.nextAt))
			cc.U64(&c.nextSeq)
		}},
		{"switch", st.sw.Checkpoint},
		{"gens", func(cc *checkpoint.Codec) {
			cc.FixedInt("generators", len(st.gens))
			for _, g := range st.gens {
				g.Checkpoint(cc)
			}
		}},
		{"p4", func(cc *checkpoint.Codec) {
			cc.FixedBool("µP4 instance", st.inst != nil)
			if st.inst != nil {
				st.inst.Checkpoint(cc)
			}
		}},
		{"telemetry", func(cc *checkpoint.Codec) {
			cc.FixedBool("telemetry", st.tel != nil)
			if st.tel != nil {
				st.tel.Checkpoint(cc)
			}
		}},
	}
}

// arm schedules the next firing d from now. Fresh runs arm once at
// construction (after the generators start, keeping the construction
// sequence draw order identical between fresh and resumed builds up to
// that point); every later arming happens inside fire.
func (c *checkpointer) arm(d sim.Time) {
	c.h = c.st.sched.After(d, c.fire)
	c.nextAt, c.nextSeq, _ = c.h.When()
}

func (c *checkpointer) fire() {
	c.curAt, c.curSeq = c.nextAt, c.nextSeq
	// Arm the successor before snapshotting so its (at, seq) is part of
	// the captured state: the resumed run re-creates it and keeps firing
	// on the same cadence with the same sequence numbers.
	c.arm(c.every)
	c.clk = c.st.sched.Clock()

	f := checkpoint.New(c.dig)
	for _, s := range c.sections() {
		cc := checkpoint.NewSaver()
		s.walk(cc)
		f.Add(s.name, cc.Saved())
	}

	start := time.Now()
	n, err := f.WriteFile(c.path)
	if err != nil && c.err == nil {
		c.err = err
	}
	if p := c.st.sched.Self(); p != nil && err == nil {
		p.CheckpointWriteNS.Observe(uint64(time.Since(start).Nanoseconds()))
		p.CheckpointBytes.Add(uint64(n))
		p.CheckpointLastUnixNS.Set(time.Now().UnixNano())
	}
	c.wrote++
}

// restoreRun pours a checkpoint into a freshly built simulation (traffic
// generators prepared but not started) and leaves the scheduler ready to
// continue exactly where the checkpointed run left off. Order matters:
// components re-create their pending events first (the clock is still at
// zero, so nothing lands in the past), then DropFired removes the
// construction-scheduled events the original run had already consumed,
// and RestoreClock pins the counters last.
func restoreRun(st *simState, f *checkpoint.File) (*checkpointer, error) {
	ck := newCheckpointer(st)
	for _, s := range ck.sections() {
		b, ok := f.Section(s.name)
		if !ok {
			return nil, fmt.Errorf("checkpoint has no %q section", s.name)
		}
		cc := checkpoint.NewLoader(b)
		if s.walk(cc); cc.Err() != nil {
			return nil, fmt.Errorf("section %q: %w", s.name, cc.Err())
		}
	}
	ck.h = st.sched.RestoreAt(ck.nextAt, ck.nextSeq, ck.fire)
	st.sched.DropFired(ck.curAt, ck.curSeq)
	st.sched.RestoreClock(ck.clk)
	return ck, nil
}
