package sim

import (
	"fmt"
	"testing"
)

// edgeModel is a 2-domain model built so cross-domain frames arrive at
// exactly the adaptive window edges computeEdges produces. Domain 0 runs
// a dense local chain (events every busyStep); every fourth event sends
// a frame to domain 1 carrying exactly crossLat of latency. At the first
// barrier domain 1's adaptive edge is next_0 + dist(0→1) = 0 + crossLat,
// and the frame sent by domain 0's t=0 event arrives at precisely that
// instant — the boundary RunBefore must exclude. Arrivals echo a reply
// back to domain 0, also landing exactly on later edges, so the boundary
// is exercised in both directions and across chained windows.
type edgeModel struct {
	p        *Partition
	crossLat Time
	per      [][]string  // per-domain trace; single writer each
	mail     [][]edgeMsg // mail[dst], drained at barriers
	seq      []uint64
}

type edgeMsg struct {
	at     Time
	k1, k2 uint64
	dst    int
	hop    int
}

const (
	edgeBusyStep = 10 * Microsecond
	edgeCrossLat = 40 * Microsecond
)

func newEdgeModel(classic bool) *edgeModel {
	m := &edgeModel{
		p:        NewPartition(2),
		crossLat: edgeCrossLat,
		per:      make([][]string, 2),
		mail:     make([][]edgeMsg, 2),
		seq:      make([]uint64, 2),
	}
	m.p.SetLookahead(edgeBusyStep) // deliberately < crossLat: adaptive edges must win
	m.p.SetCrossLatency(0, 1, m.crossLat)
	m.p.SetCrossLatency(1, 0, m.crossLat)
	m.p.SetClassicWindows(classic)
	m.p.OnBarrier(m.drain)
	return m
}

func (m *edgeModel) trace(d int, what string) {
	m.per[d] = append(m.per[d], fmt.Sprintf("%d %s", m.p.Sched(d).Now(), what))
}

func (m *edgeModel) drain() {
	for dst := range m.mail {
		for _, f := range m.mail[dst] {
			f := f
			m.p.Sched(f.dst).AtWireRunner(f.at, f.k1, f.k2, Action(func() { m.arrive(f.dst, f.hop) }))
		}
		m.mail[dst] = m.mail[dst][:0]
	}
}

func (m *edgeModel) send(src, dst, hop int) {
	m.mail[dst] = append(m.mail[dst], edgeMsg{
		at: m.p.Sched(src).Now() + m.crossLat,
		k1: uint64(src), k2: m.seq[src], dst: dst, hop: hop,
	})
	m.seq[src]++
}

func (m *edgeModel) arrive(d, hop int) {
	m.trace(d, fmt.Sprintf("arrive hop%d", hop))
	if hop < 6 {
		m.send(d, 1-d, hop+1)
	}
}

func (m *edgeModel) run(until Time) {
	// Domain 0's local chain: 20 events, every fourth one a sender.
	for k := 0; k < 20; k++ {
		k := k
		m.p.Sched(0).At(Time(k)*edgeBusyStep, func() {
			m.trace(0, "busy")
			if k%4 == 0 {
				m.send(0, 1, 1)
			}
		})
	}
	m.p.Run(until)
}

func (m *edgeModel) collect() []string {
	var out []string
	for d := range m.per {
		out = append(out, fmt.Sprintf("-- domain %d --", d))
		out = append(out, m.per[d]...)
	}
	return out
}

// TestBatchedWindowEdgeArrival pins the window-boundary semantics of
// adaptive batching: a cross-domain frame whose arrival instant equals a
// batched window's edge is excluded from that window (RunBefore is
// strict) and executes in a later one, producing exactly the event
// sequence of the classic fixed-width protocol. The adaptive run must
// also genuinely batch — strictly fewer barriers than classic — or the
// boundary was never exercised.
func TestBatchedWindowEdgeArrival(t *testing.T) {
	until := 500 * Microsecond
	classic := newEdgeModel(true)
	classic.run(until)
	adaptive := newEdgeModel(false)
	adaptive.run(until)

	diffTraces(t, "adaptive vs classic", classic.collect(), adaptive.collect())

	// The construction guarantees the first frame lands at exactly
	// crossLat (= domain 1's first adaptive edge); if the model drifts,
	// the test is no longer testing the boundary.
	found := false
	for _, ln := range adaptive.per[1] {
		if ln == fmt.Sprintf("%d arrive hop1", edgeCrossLat) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no arrival at exactly t=%v in domain 1: %v", edgeCrossLat, adaptive.per[1])
	}
	if ab, cb := adaptive.p.Barriers(), classic.p.Barriers(); ab >= cb {
		t.Errorf("adaptive run did not batch: %d barriers vs classic %d", ab, cb)
	}
}
