package telemetry

import (
	"sort"

	"repro/internal/sim"
)

// Stage identifies where in an event's lifecycle a trace record was
// stamped. The five stages follow one data-plane event from its hardware
// source to its effect on state:
//
//	StageGen     — the source generated the event
//	StageEnqueue — the merger FIFO's overflow policy decided its fate
//	StageMerge   — the Event Merger attached it to a pipeline slot
//	StageSlot    — a slot (packet or injected empty carrier) entered the
//	               pipeline; stamped once per slot for the slot's packet
//	StageCommit  — an aggregated register delta drained into the main
//	               array (stamped on the register's stream)
type Stage uint8

// The lifecycle stages, in pipeline order.
const (
	StageGen Stage = iota
	StageEnqueue
	StageMerge
	StageSlot
	StageCommit

	numStages
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageGen:
		return "gen"
	case StageEnqueue:
		return "enqueue"
	case StageMerge:
		return "merge"
	case StageSlot:
		return "slot"
	case StageCommit:
		return "commit"
	default:
		return "stage?"
	}
}

// Outcome qualifies a stage: what the queue did with the event, or how
// the merger carried it.
type Outcome uint8

// Stage outcomes.
const (
	OutNone      Outcome = iota
	OutStored            // enqueue: appended to the FIFO
	OutCoalesced         // enqueue: merged into a pending same-port event
	OutShed              // enqueue: stored after evicting the oldest
	OutDropped           // enqueue: FIFO full, event lost
	OutPiggyback         // merge: rode a real packet's slot
	OutInjected          // merge: carried by an injected empty packet
)

// String names the outcome ("" for OutNone).
func (o Outcome) String() string {
	switch o {
	case OutStored:
		return "stored"
	case OutCoalesced:
		return "coalesced"
	case OutShed:
		return "shed"
	case OutDropped:
		return "dropped"
	case OutPiggyback:
		return "piggyback"
	case OutInjected:
		return "injected"
	default:
		return ""
	}
}

// Rec is one trace record: a lifecycle stage stamp. Records are plain
// values (no pointers) so a ring of them costs one allocation for its
// whole lifetime.
type Rec struct {
	At   sim.Time // simulated instant of the stamp
	Seq  uint64   // the event's per-switch sequence number (or cycle for StageSlot, index for StageCommit)
	Arg  uint64   // stage-specific: port for gen, cycle for merge, lag for commit
	Kind uint8    // events.Kind, or KindRegister for register streams
	Stg  Stage
	Out  Outcome
}

// KindRegister marks records on register streams (StageCommit), which
// describe state drains rather than a Table 1 event kind.
const KindRegister = 0xff

// Stream is one component's bounded trace ring. A stream has exactly one
// writing domain. When the ring is about to overwrite a record that was
// never written out, it first spills the records from flushed to n to
// its tracer's StreamSink, so a sink sees every record in emission order.
// With no sink attached the spill only moves the cursor, and the ring
// keeps flight-recorder semantics: the post-run export holds its tail.
type Stream struct {
	id      int32
	name    string
	ring    []Rec
	n       uint64 // total records emitted (>= len(ring) once wrapped)
	flushed uint64 // records already spilled (or passed over with no sink)
	tracer  *Tracer
}

// Emit appends one record, spilling the ring first when it is full of
// records not yet spilled.
func (s *Stream) Emit(at sim.Time, stg Stage, kind uint8, out Outcome, seq, arg uint64) {
	if s.n-s.flushed == uint64(len(s.ring)) {
		s.spill()
	}
	s.ring[s.n%uint64(len(s.ring))] = Rec{At: at, Seq: seq, Arg: arg, Kind: kind, Stg: stg, Out: out}
	s.n++
}

// spill hands the records from flushed to n, oldest first, to the
// tracer's sink, if any, and moves the cursor past them.
func (s *Stream) spill() {
	if sk := s.tracer.sink; sk != nil {
		sk.write(s.tracer.label, s)
	}
	s.flushed = s.n
}

// Emitted returns the total number of records emitted.
func (s *Stream) Emitted() uint64 { return s.n }

// Dropped returns how many records were overwritten by ring wrap-around.
func (s *Stream) Dropped() uint64 {
	if s.n <= uint64(len(s.ring)) {
		return 0
	}
	return s.n - uint64(len(s.ring))
}

// records returns the retained records oldest-first.
func (s *Stream) records() []Rec {
	if s.n <= uint64(len(s.ring)) {
		return s.ring[:s.n]
	}
	out := make([]Rec, 0, len(s.ring))
	head := int(s.n % uint64(len(s.ring)))
	out = append(out, s.ring[head:]...)
	out = append(out, s.ring[:head]...)
	return out
}

// Tracer owns the trace streams of one collector. Streams are created
// during single-threaded setup (creation order must be deterministic —
// it is part of the exported identity) and written each by its own
// domain during the run.
type Tracer struct {
	perStream int
	streams   []*Stream
	sink      *StreamSink // spill target, set by StreamSink.Attach
	label     string      // the collector's label in sink
}

// NewTracer builds a tracer whose streams each retain up to perStream
// records.
func NewTracer(perStream int) *Tracer {
	if perStream <= 0 {
		perStream = 1 << 12
	}
	return &Tracer{perStream: perStream}
}

// Stream creates (or returns) the named stream. Stream ids are assigned
// in creation order.
func (t *Tracer) Stream(name string) *Stream {
	for _, s := range t.streams {
		if s.name == name {
			return s
		}
	}
	s := &Stream{id: int32(len(t.streams)), name: name, ring: make([]Rec, t.perStream), tracer: t}
	t.streams = append(t.streams, s)
	return s
}

// Emitted returns the total records emitted across all streams.
func (t *Tracer) Emitted() uint64 {
	var n uint64
	for _, s := range t.streams {
		n += s.Emitted()
	}
	return n
}

// Dropped returns the total records lost to ring wrap-around.
func (t *Tracer) Dropped() uint64 {
	var n uint64
	for _, s := range t.streams {
		n += s.Dropped()
	}
	return n
}

// flatRec is a record tagged with its stream for merged export.
type flatRec struct {
	Rec
	stream int32
}

// merged returns every retained record across streams, ordered by
// timestamp with ties broken by (stream creation order, emission order) —
// a stable merge, so the result is a pure function of each stream's
// deterministic content and the deterministic stream creation order. No
// goroutine interleaving can affect it.
func (t *Tracer) merged() []flatRec {
	var total int
	for _, s := range t.streams {
		n := s.Emitted()
		if n > uint64(len(s.ring)) {
			n = uint64(len(s.ring))
		}
		total += int(n)
	}
	out := make([]flatRec, 0, total)
	for _, s := range t.streams {
		for _, r := range s.records() {
			out = append(out, flatRec{Rec: r, stream: s.id})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
