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

	// Coordinates of the currently armed firing (the handle goes dead
	// the moment it fires, so they are cached at arm time).
	h       sim.Handle
	nextAt  sim.Time
	nextSeq uint64

	wrote int
	err   error // first write failure; reported after the run
}

func newCheckpointer(st *simState) *checkpointer {
	return &checkpointer{st: st, every: st.cfg.ckptEvery, path: st.cfg.ckptPath, dig: st.cfg.digest()}
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
	curAt, curSeq := c.nextAt, c.nextSeq
	// Arm the successor before snapshotting so its (at, seq) is part of
	// the captured state: the resumed run re-creates it and keeps firing
	// on the same cadence with the same sequence numbers.
	c.arm(c.every)

	f := checkpoint.New(c.dig)
	e := checkpoint.NewEncoder()
	clk := c.st.sched.Clock()
	e.I64(int64(clk.Now))
	e.U64(clk.Seq)
	e.U64(clk.Fired)
	e.I64(int64(curAt))
	e.U64(curSeq)
	e.I64(int64(c.nextAt))
	e.U64(c.nextSeq)
	f.Add("clock", e.Bytes())

	e = checkpoint.NewEncoder()
	c.st.sw.Snapshot(e)
	f.Add("switch", e.Bytes())

	e = checkpoint.NewEncoder()
	e.Int(len(c.st.gens))
	for _, g := range c.st.gens {
		g.Snapshot(e)
	}
	f.Add("gens", e.Bytes())

	e = checkpoint.NewEncoder()
	e.Bool(c.st.inst != nil)
	if c.st.inst != nil {
		c.st.inst.Snapshot(e)
	}
	f.Add("p4", e.Bytes())

	e = checkpoint.NewEncoder()
	e.Bool(c.st.tel != nil)
	if c.st.tel != nil {
		c.st.tel.SnapshotTo(e)
	}
	f.Add("telemetry", e.Bytes())

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
	section := func(name string) (*checkpoint.Decoder, error) {
		b, ok := f.Section(name)
		if !ok {
			return nil, fmt.Errorf("checkpoint has no %q section", name)
		}
		return checkpoint.NewDecoder(b), nil
	}

	d, err := section("clock")
	if err != nil {
		return nil, err
	}
	var clk sim.ClockState
	clk.Now = sim.Time(d.I64())
	clk.Seq = d.U64()
	clk.Fired = d.U64()
	curAt := sim.Time(d.I64())
	curSeq := d.U64()
	nextAt := sim.Time(d.I64())
	nextSeq := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}

	d, err = section("switch")
	if err != nil {
		return nil, err
	}
	st.sw.Restore(d)
	if err := d.Err(); err != nil {
		return nil, err
	}

	d, err = section("gens")
	if err != nil {
		return nil, err
	}
	n := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n != len(st.gens) {
		return nil, fmt.Errorf("checkpoint has %d generators, this run has %d", n, len(st.gens))
	}
	for _, g := range st.gens {
		g.Restore(d)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}

	d, err = section("p4")
	if err != nil {
		return nil, err
	}
	hadInst := d.Bool()
	if hadInst != (st.inst != nil) {
		return nil, fmt.Errorf("checkpoint µP4 instance presence (%v) differs from this run", hadInst)
	}
	if st.inst != nil {
		st.inst.Restore(d)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}

	d, err = section("telemetry")
	if err != nil {
		return nil, err
	}
	hadTel := d.Bool()
	if hadTel != (st.tel != nil) {
		return nil, fmt.Errorf("checkpoint telemetry presence (%v) differs from this run", hadTel)
	}
	if st.tel != nil {
		st.tel.RestoreFrom(d)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}

	ck := newCheckpointer(st)
	ck.nextAt, ck.nextSeq = nextAt, nextSeq
	ck.h = st.sched.RestoreAt(nextAt, nextSeq, ck.fire)

	st.sched.DropFired(curAt, curSeq)
	st.sched.RestoreClock(clk)
	return ck, nil
}
