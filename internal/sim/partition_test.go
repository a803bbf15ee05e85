package sim

import (
	"fmt"
	"testing"
)

// ring is a token-passing model over N domains, the partition analogue
// of netsim's link topology: a token arriving at domain d at time t is
// traced, spawns same-instant local work (a heap event and a lane, so
// band ordering is exercised), and is forwarded to domain (d+1)%N with
// one link latency of delay. Cross-domain forwarding goes through
// mailboxes drained at barriers via AtWireRunner with engine-independent keys
// (source id, per-source frame counter), exactly like netsim.
type ring struct {
	p       *Partition
	domains int
	latency Time
	per     [][]string // per-domain trace; single writer each
	mail    [][]ringFrame
	seq     []uint64
	lane    []*Lane
}

type ringFrame struct {
	at     Time
	k1, k2 uint64
	dst    int
	token  int
}

func newRing(domains int) *ring {
	m := &ring{
		p:       NewPartition(domains),
		domains: domains,
		latency: 5 * Microsecond,
		per:     make([][]string, domains),
		mail:    make([][]ringFrame, domains),
		seq:     make([]uint64, domains),
		lane:    make([]*Lane, domains),
	}
	m.p.SetLookahead(m.latency)
	m.p.OnBarrier(m.drain)
	for d := 0; d < domains; d++ {
		d := d
		m.lane[d] = m.p.Sched(d).NewLane(func() {
			m.trace(d, "lane", m.p.Sched(d).Now())
		})
	}
	return m
}

func (m *ring) trace(d int, what string, now Time) {
	m.per[d] = append(m.per[d], fmt.Sprintf("%d %s d%d", now, what, d))
}

func (m *ring) drain() {
	for d := range m.mail {
		for _, f := range m.mail[d] {
			f := f
			m.p.Sched(f.dst).AtWireRunner(f.at, f.k1, f.k2, Action(func() { m.arrive(f.dst, f.token) }))
		}
		m.mail[d] = m.mail[d][:0]
	}
}

func (m *ring) send(src, dst, token int, sendAt Time) {
	f := ringFrame{
		at:    sendAt + m.latency,
		k1:    uint64(src),
		k2:    m.seq[src],
		dst:   dst,
		token: token,
	}
	m.seq[src]++
	m.mail[dst] = append(m.mail[dst], f)
}

func (m *ring) arrive(d, token int) {
	s := m.p.Sched(d)
	now := s.Now()
	m.trace(d, fmt.Sprintf("tok%d", token), now)
	s.At(now, func() { m.trace(d, "local", now) })
	m.lane[d].ArmAt(now)
	if token < 40 {
		m.send(d, (d+1)%m.domains, token+1, now)
	}
}

func (m *ring) seed() {
	for i := 0; i < 3; i++ {
		m.send(0, i%m.domains, 1, Time(i)*Microsecond)
	}
}

func (m *ring) collect() []string {
	var out []string
	for d := 0; d < m.domains; d++ {
		out = append(out, fmt.Sprintf("-- domain %d --", d))
		out = append(out, m.per[d]...)
	}
	return out
}

// runRingParallel drives the ring through Partition.Run (the calling
// goroutine as domain 0, one worker per other domain, barrier windows).
func runRingParallel(domains int, until Time) []string {
	m := newRing(domains)
	m.seed()
	m.p.Run(until)
	return m.collect()
}

// runRingSerial drives the identical ring with a hand-rolled serial
// window loop on the calling goroutine — the reference executor. Any
// divergence from runRingParallel is a determinism bug in Partition.
func runRingSerial(domains int, until Time) []string {
	return newRing(domains).runSerial(until)
}

func (m *ring) runSerial(until Time) []string {
	m.seed()
	for {
		m.drain()
		s := Forever
		for _, d := range m.p.scheds {
			if at, ok := d.NextAt(); ok && at < s {
				s = at
			}
		}
		if s >= until {
			break
		}
		edge := until
		if m.latency < until-s {
			edge = s + m.latency
		}
		for _, d := range m.p.scheds {
			d.RunBefore(edge)
		}
	}
	for _, d := range m.p.scheds {
		d.Run(until)
	}
	m.drain()
	return m.collect()
}

func diffTraces(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: trace lengths differ: %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: traces diverge at line %d:\nwant %q\ngot  %q", label, i, want[i], got[i])
		}
	}
}

// TestPartitionMatchesSerial verifies Partition.Run's concurrent window
// execution produces exactly the per-domain event sequences of a serial
// reference executor, for several domain counts. Run under -race this is
// also the partition's concurrency-safety check.
func TestPartitionMatchesSerial(t *testing.T) {
	for _, domains := range []int{2, 3, 4, 7} {
		want := runRingSerial(domains, 600*Microsecond)
		got := runRingParallel(domains, 600*Microsecond)
		diffTraces(t, fmt.Sprintf("domains=%d", domains), want, got)
	}
}

// TestPartitionRepeatable verifies back-to-back parallel runs agree
// line-for-line (no scheduling nondeterminism leaks into the model).
func TestPartitionRepeatable(t *testing.T) {
	first := runRingParallel(4, 600*Microsecond)
	for i := 0; i < 3; i++ {
		diffTraces(t, "repeat", first, runRingParallel(4, 600*Microsecond))
	}
}

// TestPartitionClocksSettle verifies every domain clock rests exactly at
// the horizon after Run, like Scheduler.Run.
func TestPartitionClocksSettle(t *testing.T) {
	p := NewPartition(3)
	p.SetLookahead(Microsecond)
	fired := 0
	p.Sched(1).At(2*Microsecond, func() { fired++ })
	p.Run(10 * Microsecond)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	for i := 0; i < 3; i++ {
		if now := p.Sched(i).Now(); now != 10*Microsecond {
			t.Errorf("domain %d clock = %v, want 10us", i, now)
		}
	}
}

// TestPartitionSingleDomain verifies a 1-domain partition needs no
// lookahead and still runs its barrier hooks (before and after).
func TestPartitionSingleDomain(t *testing.T) {
	p := NewPartition(1)
	barriers := 0
	p.OnBarrier(func() { barriers++ })
	ran := false
	p.Sched(0).At(Microsecond, func() { ran = true })
	p.Run(2 * Microsecond)
	if !ran {
		t.Error("event did not run")
	}
	if barriers != 2 {
		t.Errorf("barrier hooks ran %d times, want 2", barriers)
	}
}

// TestPartitionZeroLookaheadPanics verifies the multi-domain guard.
func TestPartitionZeroLookaheadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero lookahead")
		}
	}()
	NewPartition(2).Run(Microsecond)
}

// TestPartitionEventAtHorizon verifies events at exactly the horizon
// execute (the final inclusive pass), matching Scheduler.Run semantics.
func TestPartitionEventAtHorizon(t *testing.T) {
	p := NewPartition(2)
	p.SetLookahead(Microsecond)
	var fired [2]bool // one slot per domain: no cross-goroutine writes
	p.Sched(0).At(5*Microsecond, func() { fired[0] = true })
	p.Sched(1).At(5*Microsecond, func() { fired[1] = true })
	p.Run(5 * Microsecond)
	if !fired[0] || !fired[1] {
		t.Fatalf("fired = %v, want both", fired)
	}
}

// TestAtWireOrdering pins the wire band's contract: at one instant, wire
// events fire before heap events and lanes regardless of scheduling
// order, and among themselves by (k1, k2).
func TestAtWireOrdering(t *testing.T) {
	s := NewScheduler()
	var got []string
	s.At(Microsecond, func() { got = append(got, "heap") })
	lane := s.NewLane(func() { got = append(got, "lane") })
	s.At(0, func() { lane.ArmAt(Microsecond) })
	s.AtWireRunner(Microsecond, 2, 0, Action(func() { got = append(got, "wire-k1=2") }))
	s.AtWireRunner(Microsecond, 1, 1, Action(func() { got = append(got, "wire-k2=1") }))
	s.AtWireRunner(Microsecond, 1, 0, Action(func() { got = append(got, "wire-k2=0") }))
	s.Run(Microsecond)
	want := []string{"wire-k2=0", "wire-k2=1", "wire-k1=2", "heap", "lane"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestAtWirePastPanics mirrors the At contract for the wire band.
func TestAtWirePastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(Microsecond, func() {})
	s.Run(Microsecond)
	defer func() {
		if recover() == nil {
			t.Error("expected panic scheduling wire event in the past")
		}
	}()
	s.AtWireRunner(0, 0, 0, Action(func() {}))
}

// wireRunner records its firing order for TestAtWireRunnerOrdering.
type wireRunner struct {
	tag string
	got *[]string
}

func (r *wireRunner) Run() { *r.got = append(*r.got, r.tag) }

// TestAtWireRunnerOrdering pins pooled wire records to the same
// contract, interleaved at one instant with func-backed wire events.
func TestAtWireRunnerOrdering(t *testing.T) {
	s := NewScheduler()
	var got []string
	s.At(Microsecond, func() { got = append(got, "heap") })
	s.AtWireRunner(Microsecond, 2, 0, &wireRunner{"runner-k1=2", &got})
	s.AtWireRunner(Microsecond, 1, 1, Action(func() { got = append(got, "fn-k2=1") }))
	s.AtWireRunner(Microsecond, 1, 0, &wireRunner{"runner-k2=0", &got})
	s.Run(Microsecond)
	want := []string{"runner-k2=0", "fn-k2=1", "runner-k1=2", "heap"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestRunBeforeStrict verifies RunBefore excludes the limit and leaves
// the clock at the last fired event rather than advancing it.
func TestRunBeforeStrict(t *testing.T) {
	s := NewScheduler()
	var got []Time
	s.At(Microsecond, func() { got = append(got, s.Now()) })
	s.At(2*Microsecond, func() { got = append(got, s.Now()) })
	n := s.RunBefore(2 * Microsecond)
	if n != 1 || len(got) != 1 || got[0] != Microsecond {
		t.Fatalf("RunBefore fired %d events (%v), want just t=1us", n, got)
	}
	if s.Now() != Microsecond {
		t.Errorf("clock = %v, want 1us (not advanced to limit)", s.Now())
	}
	s.Run(2 * Microsecond)
	if len(got) != 2 {
		t.Errorf("follow-up Run fired %d events total, want 2", len(got))
	}
}

// TestPartitionUnboundedLookahead covers the zero-cross-domain-links
// case: with no cross-domain latency to respect the lookahead is
// unbounded (Forever), and the whole run executes in a single
// conservative window plus the final inclusive pass.
func TestPartitionUnboundedLookahead(t *testing.T) {
	p := NewPartition(2)
	p.SetLookahead(Forever) // what netsim computes when no link crosses domains
	var fired [2]int
	for d := 0; d < 2; d++ {
		d := d
		for i := 1; i <= 3; i++ {
			p.Sched(d).At(Time(i)*Microsecond, func() { fired[d]++ })
		}
	}
	p.Run(10 * Microsecond)
	if fired[0] != 3 || fired[1] != 3 {
		t.Fatalf("fired = %v, want [3 3]", fired)
	}
	if p.Windows() != 2 {
		t.Errorf("windows = %d, want 2 (one unbounded window + the inclusive pass)", p.Windows())
	}
}
