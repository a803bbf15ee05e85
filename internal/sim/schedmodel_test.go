package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// A deliberately naive model of the scheduler's order, written from the
// rules S1–S8 in DESIGN §7 rather than from scheduler.go: one
// container/heap of pending firings keyed by band and key, with no lanes,
// no wire heap of its own and no root parking. A lane or ticker is only
// the owner of at most one pending record. Random programs drive the real
// scheduler and the model through the same calls, and both must fire the
// same (id, instant) sequence, see the same NextAt and leave the same
// clock after every run call.

// dispatch is one line of a program's log: a callback firing (id >= 0,
// at its instant, next what NextAt reports once the callback has made its
// calls) or the end of a run call (id < 0, at the clock after it, n the
// count it returned, next what NextAt reports).
type dispatch struct {
	id      int
	at      Time
	n       uint64
	next    Time
	hasNext bool
}

func (d dispatch) String() string {
	if d.id < 0 {
		return fmt.Sprintf("run call returned %d, clock %v, NextAt (%v, %v)", d.n, d.at, d.next, d.hasNext)
	}
	return fmt.Sprintf("id %d at %v, NextAt (%v, %v) on return", d.id, d.at, d.next, d.hasNext)
}

// schedSide is what a program does to a scheduler; the real scheduler
// and the model each implement it. Lanes and tickers are numbered in
// creation order.
type schedSide interface {
	now() Time
	at(at Time, id int)
	atRunner(at Time, id int)
	afterRunner(d Time, id int)
	atWire(at Time, k1, k2 uint64, id int)
	nextSeq() uint64
	newLane(id int)
	armAt(lane int, at Time)
	armExact(lane int, at Time, seq uint64)
	disarm(lane int)
	every(period Time, id int)
	stop(ticker int)
	run(until Time) uint64
	runBefore(limit Time) uint64
	nextAt() (Time, bool)
}

// prog is one program: a byte string read as a sequence of choices, run
// against one side. Both sides read the same bytes in the same order
// until their dispatches differ.
type prog struct {
	src     []byte
	pos     int
	side    schedSide
	log     []dispatch
	lanes   int
	tickers int
	nextID  int
	wireK2  uint64
	spare   []uint64 // seqs drawn with NextSeq, for ArmExact
}

const (
	progLanes      = 4
	progMaxTickers = 6
)

// intn reads the next choice in [0, n); an exhausted program reads 0.
func (p *prog) intn(n int) int {
	if p.pos >= len(p.src) {
		return 0
	}
	b := p.src[p.pos]
	p.pos++
	return int(b) % n
}

func (p *prog) id() int {
	p.nextID++
	return p.nextID - 1
}

// fire logs a callback, lets it schedule and logs what NextAt sees from
// inside it (S8). lane and ticker name the lane or ticker whose callback
// this is, -1 for none.
func (p *prog) fire(id, lane, ticker int) {
	i := len(p.log)
	p.log = append(p.log, dispatch{id: id, at: p.side.now()})
	p.mutate(lane, ticker)
	d := &p.log[i]
	d.next, d.hasNext = p.side.nextAt()
}

// mutate makes up to three scheduling calls. Instants lie a few
// picoseconds ahead so that ties are the rule, not the exception.
func (p *prog) mutate(lane, ticker int) {
	sd := p.side
	now := sd.now()
	for n := p.intn(4); n > 0; n-- {
		switch p.intn(13) {
		case 0: // re-arm the firing lane, possibly at the current instant
			if lane >= 0 {
				sd.armAt(lane, now+Time(p.intn(4)))
			}
		case 1:
			sd.armAt(p.intn(p.lanes), now+Time(p.intn(6)))
		case 2: // an older seq: ties on the instant resolve by it
			if m := len(p.spare); m > 0 {
				i := p.intn(m)
				seq := p.spare[i]
				p.spare[i] = p.spare[m-1]
				p.spare = p.spare[:m-1]
				sd.armExact(p.intn(p.lanes), now+Time(p.intn(4)), seq)
			}
		case 3: // any lane, the firing one included
			sd.disarm(p.intn(p.lanes))
		case 4:
			sd.at(now+Time(p.intn(5)), p.id())
		case 5:
			sd.atRunner(now+Time(p.intn(5)), p.id())
		case 6:
			sd.afterRunner(Time(p.intn(5)), p.id())
		case 7, 8:
			p.wireK2++
			sd.atWire(now+Time(p.intn(5)), uint64(p.intn(3)), p.wireK2, p.id())
		case 9:
			p.spare = append(p.spare, sd.nextSeq())
		case 10:
			if p.tickers < progMaxTickers {
				sd.every(Time(1+p.intn(4)), p.id())
				p.tickers++
			}
		case 11: // the firing ticker stops itself
			if ticker >= 0 {
				sd.stop(ticker)
			}
		case 12:
			if p.tickers > 0 {
				sd.stop(p.intn(p.tickers))
			}
		}
	}
}

// runProg runs src against side: scheduling calls, then a Run or
// RunBefore with a bound near the clock, until the bytes run out.
func runProg(src []byte, side schedSide, p *prog) []dispatch {
	p.src, p.side = src, side
	for p.lanes < progLanes {
		side.newLane(p.id())
		p.lanes++
	}
	for p.pos < len(p.src) {
		p.mutate(-1, -1)
		bound := side.now() + Time(p.intn(10)) - 1
		var n uint64
		if p.intn(2) == 0 {
			n = side.run(bound)
		} else {
			n = side.runBefore(bound)
		}
		next, ok := side.nextAt()
		p.log = append(p.log, dispatch{id: -1, at: side.now(), n: n, next: next, hasNext: ok})
	}
	return p.log
}

// realSide drives a Scheduler.
type realSide struct {
	s       *Scheduler
	p       *prog
	lanes   []*Lane
	tickers []*Ticker
}

// progRunner is a Runner that fires a program callback.
type progRunner struct {
	p  *prog
	id int
}

func (r *progRunner) Run() { r.p.fire(r.id, -1, -1) }

func (r *realSide) now() Time { return r.s.Now() }
func (r *realSide) at(at Time, id int) {
	r.s.At(at, func() { r.p.fire(id, -1, -1) })
}
func (r *realSide) atRunner(at Time, id int)   { r.s.AtRunner(at, &progRunner{r.p, id}) }
func (r *realSide) afterRunner(d Time, id int) { r.s.AfterRunner(d, &progRunner{r.p, id}) }
func (r *realSide) atWire(at Time, k1, k2 uint64, id int) {
	r.s.AtWireRunner(at, k1, k2, &progRunner{r.p, id})
}
func (r *realSide) nextSeq() uint64 { return r.s.NextSeq() }
func (r *realSide) newLane(id int) {
	j := len(r.lanes)
	r.lanes = append(r.lanes, r.s.NewLane(func() { r.p.fire(id, j, -1) }))
}
func (r *realSide) armAt(lane int, at Time)                { r.lanes[lane].ArmAt(at) }
func (r *realSide) armExact(lane int, at Time, seq uint64) { r.lanes[lane].ArmExact(at, seq) }
func (r *realSide) disarm(lane int)                        { r.lanes[lane].Disarm() }
func (r *realSide) every(period Time, id int) {
	j := len(r.tickers)
	r.tickers = append(r.tickers, r.s.Every(period, func() { r.p.fire(id, -1, j) }))
}
func (r *realSide) stop(ticker int)             { r.tickers[ticker].Stop() }
func (r *realSide) run(until Time) uint64       { return r.s.Run(until) }
func (r *realSide) runBefore(limit Time) uint64 { return r.s.RunBefore(limit) }
func (r *realSide) nextAt() (Time, bool)        { return r.s.NextAt() }

// modelRec is one pending firing in the model. The key is (at, band,
// k1, k2): band 0 is the wire band with the caller's (k1, k2), band 1
// holds every other firing with k1 its seq and k2 zero.
type modelRec struct {
	at           Time
	band         int
	k1, k2       uint64
	id           int
	lane, ticker int // owner, -1 for none
}

type modelHeap []*modelRec

func (h modelHeap) Len() int { return len(h) }
func (h modelHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.band != b.band {
		return a.band < b.band
	}
	if a.k1 != b.k1 {
		return a.k1 < b.k1
	}
	return a.k2 < b.k2
}
func (h modelHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *modelHeap) Push(x any)   { *h = append(*h, x.(*modelRec)) }
func (h *modelHeap) Pop() any {
	old := *h
	r := old[len(old)-1]
	*h = old[:len(old)-1]
	return r
}

type modelTicker struct {
	period  Time
	stopped bool
}

// model is the naive scheduler. Each method cites the rule it follows.
type model struct {
	clock   Time
	seq     uint64
	h       modelHeap
	p       *prog
	lanes   []int // callback id per lane
	tickers []modelTicker
}

// draw takes the next value of the shared counter (S3).
func (m *model) draw() uint64 {
	m.seq++
	return m.seq - 1
}

func (m *model) push(at Time, seq uint64, id, lane, ticker int) {
	heap.Push(&m.h, &modelRec{at: at, band: 1, k1: seq, id: id, lane: lane, ticker: ticker})
}

// drop removes the pending firing a lane or ticker owns, if any (S4, S6).
func (m *model) drop(lane, ticker int) {
	for i, r := range m.h {
		if (lane >= 0 && r.lane == lane) || (ticker >= 0 && r.ticker == ticker) {
			heap.Remove(&m.h, i)
			return
		}
	}
}

func (m *model) now() Time { return m.clock }
func (m *model) at(at Time, id int) {
	m.push(at, m.draw(), id, -1, -1) // S3
}
func (m *model) atRunner(at Time, id int)   { m.at(at, id) }
func (m *model) afterRunner(d Time, id int) { m.at(m.clock+d, id) }
func (m *model) atWire(at Time, k1, k2 uint64, id int) {
	heap.Push(&m.h, &modelRec{at: at, band: 0, k1: k1, k2: k2, id: id, lane: -1, ticker: -1}) // S2
}
func (m *model) nextSeq() uint64 { return m.draw() } // S3
func (m *model) newLane(id int)  { m.lanes = append(m.lanes, id) }
func (m *model) armAt(lane int, at Time) {
	m.drop(lane, -1) // S4: one pending firing per lane
	m.push(at, m.draw(), m.lanes[lane], lane, -1)
}
func (m *model) armExact(lane int, at Time, seq uint64) {
	m.drop(lane, -1)
	m.push(at, seq, m.lanes[lane], lane, -1) // S4: the caller's seq, none drawn
}
func (m *model) disarm(lane int) { m.drop(lane, -1) }
func (m *model) every(period Time, id int) {
	m.tickers = append(m.tickers, modelTicker{period: period})
	m.push(m.clock+period, m.draw(), id, -1, len(m.tickers)-1) // S6
}
func (m *model) stop(ticker int) {
	m.tickers[ticker].stopped = true // S6
	m.drop(-1, ticker)
}

// fireUntil fires the least record (S1) while it lies within the bound
// (S7).
func (m *model) fireUntil(limit Time, strict bool) uint64 {
	var n uint64
	for len(m.h) > 0 {
		r := m.h[0]
		if r.at > limit || (strict && r.at == limit) {
			break
		}
		heap.Pop(&m.h) // S5: a lane is disarmed before its callback runs
		m.clock = r.at
		n++
		m.p.fire(r.id, r.lane, r.ticker)
		if t := r.ticker; t >= 0 && !m.tickers[t].stopped {
			m.push(m.clock+m.tickers[t].period, m.draw(), r.id, -1, t) // S6: drawn after the action
		}
	}
	return n
}

func (m *model) run(until Time) uint64 {
	n := m.fireUntil(until, false)
	if m.clock < until {
		m.clock = until // S7
	}
	return n
}

func (m *model) runBefore(limit Time) uint64 { return m.fireUntil(limit, true) }

// nextAt is the least pending instant, inside a callback too (S8).
func (m *model) nextAt() (Time, bool) {
	if len(m.h) == 0 {
		return Forever, false
	}
	return m.h[0].at, true
}

// checkSchedModel runs src on a fresh scheduler and on the model and
// fails at the first dispatch where the two logs differ, printing it
// from both sides.
func checkSchedModel(t testing.TB, src []byte) {
	t.Helper()
	rp := &prog{}
	got := runProg(src, &realSide{s: NewScheduler(), p: rp}, rp)
	mp := &prog{}
	want := runProg(src, &model{p: mp}, mp)
	show := func(log []dispatch, i int) string {
		if i >= len(log) {
			return "(log ends)"
		}
		return log[i].String()
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		if i < len(got) && i < len(want) && got[i] == want[i] {
			continue
		}
		prev := "(start)"
		if i > 0 {
			prev = got[i-1].String()
		}
		t.Fatalf("program of %d bytes: dispatch %d differs (after %s)\n  scheduler: %s\n  model:     %s",
			len(src), i, prev, show(got, i), show(want, i))
	}
}

// TestSchedModel drives random programs through the scheduler and the
// model.
func TestSchedModel(t *testing.T) {
	rng := NewRNG(1)
	for i := 0; i < 1000; i++ {
		src := make([]byte, 64+rng.Intn(2048))
		for j := range src {
			src[j] = byte(rng.Uint64())
		}
		checkSchedModel(t, src)
	}
}

// FuzzSchedModel is TestSchedModel with the fuzzer choosing programs.
func FuzzSchedModel(f *testing.F) {
	for _, s := range []string{"", "\x01\x0a\x02", "\x03\x0a\x01\x02\x03\x04\x05\x06\x07\x08\x09", "ticker\x0a\x0b\x0c"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) > 1<<13 {
			src = src[:1<<13]
		}
		checkSchedModel(t, src)
	})
}
