package pisa

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/events"
	"repro/internal/sim"
	"repro/internal/state"
)

// The eager reference below is the register port model that cycle stamps
// replaced: every pipeline cycle ticks every memory (the main array and
// each aggregation bank's own single-ported array) to reset its budget,
// and every cycle walks every register to drain, each bank refusing a
// second drain in one cycle. FuzzRegisterStamp and
// TestRegisterStampMatchesEager hold the stamped registers and
// Program.EndCycle, which visits only backlogged registers, to it.

type eagerArray struct {
	vals  []uint64
	ports int
	used  int
	cycle uint64
}

func (a *eagerArray) tick(c uint64) {
	if c < a.cycle {
		panic("eager array ticked backwards")
	}
	if c != a.cycle {
		a.cycle, a.used = c, 0
	}
}

func (a *eagerArray) acquire() bool {
	if a.used >= a.ports {
		return false
	}
	a.used++
	return true
}

type eagerBank struct {
	arr       eagerArray
	delta     []int64
	since     []uint64
	dirty     []uint32
	inq       []bool
	lastDrain uint64
}

type eagerAgg struct {
	main    eagerArray
	banks   []*eagerBank
	rr      int
	m       state.AggMetrics
	lagSum  uint64
	onDrain func(idx uint32, lag uint64)
}

func newEagerAgg(size, classes int) *eagerAgg {
	ag := &eagerAgg{main: eagerArray{vals: make([]uint64, size), ports: 1}}
	for i := 0; i < classes; i++ {
		ag.banks = append(ag.banks, &eagerBank{
			arr:   eagerArray{ports: 1},
			delta: make([]int64, size), since: make([]uint64, size),
			inq: make([]bool, size), lastDrain: ^uint64(0),
		})
	}
	return ag
}

func (ag *eagerAgg) tick(c uint64) {
	ag.main.tick(c)
	for _, b := range ag.banks {
		b.arr.tick(c)
	}
}

func (ag *eagerAgg) backlog() int {
	n := 0
	for _, b := range ag.banks {
		n += len(b.dirty)
	}
	return n
}

func (ag *eagerAgg) deferDelta(c int, i uint32, d int64) {
	b := ag.banks[c]
	idx := i % uint32(len(b.delta))
	if !b.arr.acquire() {
		ag.m.Dropped++
		return
	}
	ag.m.Deferred++
	b.delta[idx] += d
	if !b.inq[idx] && b.delta[idx] != 0 {
		b.inq[idx] = true
		b.since[idx] = ag.main.cycle
		b.dirty = append(b.dirty, idx)
	}
	ag.m.MaxBacklog = max(ag.m.MaxBacklog, ag.backlog())
}

func (ag *eagerAgg) endCycle() {
	for ag.main.used < ag.main.ports && ag.drainOne() {
	}
}

func (ag *eagerAgg) drainOne() bool {
	n, start := len(ag.banks), ag.rr
	for k := 0; k < n; k++ {
		b := ag.banks[(start+k)%n]
		if len(b.dirty) == 0 || b.lastDrain == ag.main.cycle {
			continue
		}
		idx := b.dirty[0]
		b.dirty = b.dirty[1:]
		b.inq[idx] = false
		d := b.delta[idx]
		b.delta[idx] = 0
		b.lastDrain = ag.main.cycle
		ag.rr = (start + k + 1) % n
		if d == 0 {
			continue
		}
		ag.main.acquire()
		ag.main.vals[idx] = uint64(int64(ag.main.vals[idx]) + d)
		lag := ag.main.cycle - b.since[idx]
		ag.lagSum += lag
		ag.m.MaxLag = max(ag.m.MaxLag, lag)
		ag.m.Drained++
		if ag.onDrain != nil {
			ag.onDrain(idx, lag)
		}
		return true
	}
	return false
}

func (ag *eagerAgg) metrics() state.AggMetrics {
	m := ag.m
	if m.Drained > 0 {
		m.MeanLag = float64(ag.lagSum) / float64(m.Drained)
	}
	return m
}

// eagerReg is SharedRegister over the eager memories.
type eagerReg struct {
	agg       *eagerAgg
	arr       *eagerArray
	classOf   [events.NumKinds]int
	held      [events.NumKinds]uint64
	conflicts uint64
}

func newEagerReg(size, ports int, deferred []events.Kind) *eagerReg {
	r := &eagerReg{}
	for i := range r.classOf {
		r.classOf[i] = -1
		r.held[i] = ^uint64(0)
	}
	if ports > 0 {
		r.arr = &eagerArray{vals: make([]uint64, size), ports: ports}
		return r
	}
	for i, k := range deferred {
		r.classOf[k] = i
	}
	r.agg = newEagerAgg(size, len(deferred))
	return r
}

func (r *eagerReg) mainArr() *eagerArray {
	if r.agg != nil {
		return &r.agg.main
	}
	return r.arr
}

func (r *eagerReg) deferred(k events.Kind) bool { return r.agg != nil && r.classOf[k] >= 0 }

func (r *eagerReg) acquire(k events.Kind, cycle uint64) bool {
	if r.held[k] == cycle {
		return true
	}
	a := r.mainArr()
	a.tick(cycle)
	if !a.acquire() {
		r.conflicts++
		return false
	}
	r.held[k] = cycle
	return true
}

func (r *eagerReg) peek(i uint32) uint64 {
	a := r.mainArr()
	return a.vals[i%uint32(len(a.vals))]
}

func (r *eagerReg) read(k events.Kind, cycle uint64, i uint32) uint64 {
	if !r.deferred(k) {
		r.acquire(k, cycle)
	}
	return r.peek(i)
}

func (r *eagerReg) add(k events.Kind, cycle uint64, i uint32, d int64) {
	if r.deferred(k) {
		r.agg.tick(cycle)
		r.agg.deferDelta(r.classOf[k], i, d)
		return
	}
	if r.acquire(k, cycle) {
		a := r.mainArr()
		a.vals[i%uint32(len(a.vals))] = uint64(int64(r.peek(i)) + d)
	}
}

func (r *eagerReg) write(k events.Kind, cycle uint64, i uint32, v uint64) {
	if r.acquire(k, cycle) {
		a := r.mainArr()
		a.vals[i%uint32(len(a.vals))] = v
	}
}

func (r *eagerReg) trueVal(i uint32) int64 {
	v := int64(r.peek(i))
	if r.agg != nil {
		for _, b := range r.agg.banks {
			v += b.delta[i%uint32(len(b.delta))]
		}
	}
	return v
}

func (r *eagerReg) reset() {
	clear(r.mainArr().vals)
	if r.agg != nil {
		for _, b := range r.agg.banks {
			clear(b.delta)
			clear(b.inq)
			b.dirty = b.dirty[:0]
		}
	}
}

func (r *eagerReg) backlog() int {
	if r.agg == nil {
		return 0
	}
	return r.agg.backlog()
}

func (r *eagerReg) metrics() (state.AggMetrics, uint64) {
	if r.agg == nil {
		return state.AggMetrics{}, r.conflicts
	}
	return r.agg.metrics(), r.conflicts
}

// stampRegs are the registers a stamp run declares: two-bank and
// three-bank aggregated registers, one with no bank, and the multi-ported
// ablation register at 3 ports and at 1.
var stampRegs = []struct {
	size, ports int
	deferred    []events.Kind
}{
	{8, 0, []events.Kind{events.BufferEnqueue, events.BufferDequeue}},
	{4, 0, nil},
	{5, 0, []events.Kind{events.BufferDequeue, events.BufferOverflow, events.BufferEnqueue}},
	{4, 3, nil},
	{6, 1, nil},
	{3, 0, []events.Kind{events.BufferEnqueue}},
}

// stampKinds are the kinds a stamp run's accesses come from: packet
// kinds, a timer, and the traffic manager's deferred kinds.
var stampKinds = []events.Kind{
	events.IngressPacket, events.EgressPacket, events.TimerExpiration,
	events.BufferEnqueue, events.BufferDequeue, events.BufferOverflow,
}

// runStamp interprets ops as a switch's register traffic — slots that
// access registers and then drain, egress-time accesses at the last
// slot's cycle, control-plane resets and runs of idle cycles — on the
// stamped registers of one Program and on the eager reference, and
// returns the first step at which any register's Stale, True, Backlog or
// Metrics, the program's backlog flag, or the drain-hook record differ.
func runStamp(ops []byte) error {
	prog := NewProgram("stamp")
	var regs []*SharedRegister
	var ref []*eagerReg
	var gotLog, wantLog []string
	for ri, d := range stampRegs {
		r := NewMultiPortRegister(fmt.Sprintf("r%d", ri), d.size, max(d.ports, 1))
		if d.ports == 0 {
			r = NewAggregatedRegister(fmt.Sprintf("r%d", ri), d.size, d.deferred...)
		}
		prog.AddRegister(r)
		e := newEagerReg(d.size, d.ports, d.deferred)
		r.SetDrainHook(func(idx uint32, lag uint64) { gotLog = append(gotLog, fmt.Sprint(ri, idx, lag)) })
		if e.agg != nil {
			e.agg.onDrain = func(idx uint32, lag uint64) { wantLog = append(wantLog, fmt.Sprint(ri, idx, lag)) }
		}
		regs, ref = append(regs, r), append(ref, e)
	}
	ctx := &Context{}
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	var readErr error
	access := func(cycle uint64) {
		ri := int(next()) % len(regs)
		k := stampKinds[int(next())%len(stampKinds)]
		op, idx, v := next()%3, uint32(next()), next()
		r, e := regs[ri], ref[ri]
		ctx.Reset(nil, &events.Event{Kind: k}, sim.Time(cycle), cycle)
		switch {
		case op == 0:
			if got, want := r.Read(ctx, idx), e.read(k, cycle, idx); got != want && readErr == nil {
				readErr = fmt.Errorf("r%d read(%v, %d) at cycle %d = %d, eager %d", ri, k, idx, cycle, got, want)
			}
		case op == 1 || e.deferred(k):
			r.Add(ctx, idx, int64(int8(v)))
			e.add(k, cycle, idx, int64(int8(v)))
		default:
			r.Write(ctx, idx, uint64(v))
			e.write(k, cycle, idx, uint64(v))
		}
	}
	var cycle uint64
	for step := 0; len(ops) > 0; step++ {
		var what string
		switch op := next(); op % 8 {
		case 5: // an egress-time access, at the last slot's cycle
			what = "egress access"
			access(cycle)
		case 6: // a control-plane reset
			ri := int(next()) % len(regs)
			what = fmt.Sprintf("reset r%d", ri)
			regs[ri].Reset()
			ref[ri].reset()
		case 7: // idle cycles: no slot runs, nothing ticks
			what = "idle"
			cycle += uint64(next() % 64)
		default: // one slot: accesses, then the drain
			cycle++
			what = fmt.Sprintf("slot %d", cycle)
			for _, e := range ref {
				if e.agg != nil {
					e.agg.tick(cycle)
				} else {
					e.arr.tick(cycle)
				}
			}
			for n := op % 4; n > 0; n-- {
				access(cycle)
			}
			prog.EndCycle(cycle)
			for _, e := range ref {
				if e.agg != nil {
					e.agg.endCycle()
				}
			}
		}
		if readErr != nil {
			return fmt.Errorf("step %d (%s): %v", step, what, readErr)
		}
		anyBacklog := false
		for ri, r := range regs {
			e := ref[ri]
			for i := uint32(0); i < uint32(r.Size()); i++ {
				if r.Stale(i) != e.peek(i) || r.True(i) != e.trueVal(i) {
					return fmt.Errorf("step %d (%s): r%d[%d] stale/true %d/%d, eager %d/%d",
						step, what, ri, i, r.Stale(i), r.True(i), e.peek(i), e.trueVal(i))
				}
			}
			gm, gc := r.Metrics()
			wm, wc := e.metrics()
			if r.Backlog() != e.backlog() || gm != wm || gc != wc {
				return fmt.Errorf("step %d (%s): r%d backlog %d metrics %v conflicts %d, eager %d %v %d",
					step, what, ri, r.Backlog(), gm, gc, e.backlog(), wm, wc)
			}
			anyBacklog = anyBacklog || e.backlog() > 0
		}
		if prog.HasBacklog() != anyBacklog {
			return fmt.Errorf("step %d (%s): HasBacklog %v, eager backlog %v", step, what, prog.HasBacklog(), anyBacklog)
		}
		if !reflect.DeepEqual(gotLog, wantLog) {
			return fmt.Errorf("step %d (%s): drains %v, eager %v", step, what, gotLog, wantLog)
		}
	}
	return nil
}

func TestRegisterStampMatchesEager(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rng := sim.NewRNG(seed)
		ops := make([]byte, 4000)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		if err := runStamp(ops); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func FuzzRegisterStamp(f *testing.F) {
	f.Add([]byte{0, 3, 3, 1, 2, 9, 1, 3, 1, 0, 5, 0, 0, 0, 1, 7, 7, 40})
	f.Add([]byte{6, 0, 3, 0, 3, 1, 4, 4, 3, 0, 4, 1, 4, 2, 2, 5, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if err := runStamp(ops); err != nil {
			t.Fatal(err)
		}
	})
}
