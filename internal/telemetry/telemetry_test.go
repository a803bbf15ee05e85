package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/events"
	"repro/internal/sim"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {^uint64(0), 64},
	}
	for _, c := range cases {
		before := h.Bucket(c.bucket)
		h.Observe(c.v)
		if h.Bucket(c.bucket) != before+1 {
			t.Errorf("Observe(%d): bucket %d not incremented", c.v, c.bucket)
		}
		if c.v < BucketLow(c.bucket) || c.v > BucketHigh(c.bucket) {
			t.Errorf("value %d outside [BucketLow,BucketHigh]=[%d,%d] of bucket %d",
				c.v, BucketLow(c.bucket), BucketHigh(c.bucket), c.bucket)
		}
	}
	if h.Count() != uint64(len(cases)) {
		t.Errorf("Count = %d, want %d", h.Count(), len(cases))
	}
	if h.Max() != ^uint64(0) {
		t.Errorf("Max = %d, want max uint64", h.Max())
	}
}

func TestRegistrySnapshotOrdered(t *testing.T) {
	r := NewRegistry()
	// Create in scrambled order; snapshot must come out sorted by name.
	r.Counter("z.last").Add(3)
	r.Histogram("m.mid").Observe(5)
	r.Counter("a.first").Inc()
	r.Gauge("m.gauge").Set(-7)
	if r.Counter("a.first") != r.Counter("a.first") {
		t.Fatal("Counter not idempotent")
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name > snap[i].Name {
			t.Fatalf("snapshot unsorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
	if snap[0].Name != "a.first" || snap[0].Value != 1 {
		t.Errorf("snap[0] = %+v, want a.first counter 1", snap[0])
	}
	if snap[1].Name != "m.gauge" || snap[1].Value != -7 {
		t.Errorf("snap[1] = %+v, want m.gauge -7", snap[1])
	}
	hist := snap[2]
	if hist.Name != "m.mid" || hist.Count != 1 || hist.Sum != 5 || hist.Max != 5 {
		t.Errorf("snap[2] = %+v, want m.mid histogram count=1 sum=5 max=5", hist)
	}
	if len(hist.Buckets) != 1 || hist.Buckets[0].Low != 4 || hist.Buckets[0].High != 7 {
		t.Errorf("hist buckets = %+v, want one bucket [4,7]", hist.Buckets)
	}
}

func TestStreamRingOverflow(t *testing.T) {
	tr := NewTracer(4)
	s := tr.Stream("s")
	for i := 0; i < 10; i++ {
		s.Emit(sim.Time(i), StageGen, 0, OutNone, uint64(i), 0)
	}
	if s.Emitted() != 10 {
		t.Errorf("Emitted = %d, want 10", s.Emitted())
	}
	if s.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", s.Dropped())
	}
	recs := s.records()
	if len(recs) != 4 {
		t.Fatalf("retained %d records, want 4", len(recs))
	}
	// Flight-recorder semantics: the newest 4 survive, oldest-first.
	for i, r := range recs {
		if want := uint64(6 + i); r.Seq != want {
			t.Errorf("recs[%d].Seq = %d, want %d", i, r.Seq, want)
		}
	}
}

func TestTracerMergeStable(t *testing.T) {
	tr := NewTracer(8)
	a := tr.Stream("a")
	b := tr.Stream("b")
	// Same timestamp on both streams: stream creation order breaks the tie.
	b.Emit(5, StageGen, 0, OutNone, 100, 0)
	a.Emit(5, StageGen, 0, OutNone, 200, 0)
	a.Emit(1, StageGen, 0, OutNone, 300, 0)
	m := tr.merged()
	if len(m) != 3 {
		t.Fatalf("merged %d records, want 3", len(m))
	}
	if m[0].Seq != 300 {
		t.Errorf("m[0].Seq = %d, want 300 (earliest timestamp)", m[0].Seq)
	}
	if m[1].Seq != 200 || m[2].Seq != 100 {
		t.Errorf("tie at t=5 broke wrong: got %d,%d want 200 (stream a) then 100 (stream b)",
			m[1].Seq, m[2].Seq)
	}
}

// collectSample builds two identical collectors by running the same
// deterministic emission script against each.
func collectSample() *Collector {
	c := New(Options{TraceCap: 16})
	p := c.NewSwitchProbe("s0")
	rp := c.NewRegisterProbe("s0", "occ")
	e := events.Event{Kind: events.TimerExpiration, Seq: 1, Port: -1}
	p.ObserveOffer(10, e, events.Stored)
	p.ObserveSlotStart(20, 1, events.IngressPacket, true)
	p.ObserveMerge(20, 1, e, true)
	p.ObserveSlotStart(30, 2, events.IngressPacket, false)
	p.ObserveMerge(30, 2, e, false)
	rp.ObserveDrain(40, 3, 17)
	c.Registry().Gauge("sw.s0.tm.port0.bytes").Set(1500)
	return c
}

func TestExportDeterministicAndValidJSON(t *testing.T) {
	runs1 := []RunExport{{Label: "t01", C: collectSample()}, {Label: "t00", C: collectSample()}}
	// Reversed insertion order must not change any export byte.
	runs2 := []RunExport{{Label: "t00", C: collectSample()}, {Label: "t01", C: collectSample()}}

	for name, enc := range map[string]func([]RunExport) ([]byte, error){
		"metrics": EncodeMetrics, "jsonl": EncodeJSONL,
	} {
		b1, err := enc(runs1)
		if err != nil {
			t.Fatalf("%s encode: %v", name, err)
		}
		b2, err := enc(runs2)
		if err != nil {
			t.Fatalf("%s encode: %v", name, err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s export differs across run insertion order", name)
		}
	}

	// Metrics export must round-trip and carry the schema marker.
	mb, err := EncodeMetrics(runs1)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(mb, &doc); err != nil {
		t.Fatalf("metrics doc is not valid JSON: %v", err)
	}
	if doc["schema"] != MetricsSchema {
		t.Errorf("schema = %v, want %q", doc["schema"], MetricsSchema)
	}

	// JSONL: every line a JSON object, 7 per run (gen, enqueue, 2 slots
	// and 2 merges, plus one commit on the register stream).
	jb, err := EncodeJSONL(runs1)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(jb, "\n"), []byte("\n"))
	if len(lines) != 14 {
		t.Errorf("jsonl lines = %d, want 14", len(lines))
	}
	for i, ln := range lines {
		var obj map[string]any
		if err := json.Unmarshal(ln, &obj); err != nil {
			t.Fatalf("jsonl line %d invalid: %v", i, err)
		}
	}

	d1, err := Digest(runs1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Digest(runs2)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("digest differs across run insertion order")
	}
}

func TestHotPathZeroAlloc(t *testing.T) {
	c := New(Options{TraceCap: 8})
	ctr := c.Registry().Counter("c")
	g := c.Registry().Gauge("g")
	h := c.Registry().Histogram("h")
	s := c.Stream("s")
	p := c.NewSwitchProbe("z")
	e := events.Event{Kind: events.TimerExpiration, Seq: 9, Port: -1}
	allocs := testing.AllocsPerRun(1000, func() {
		ctr.Add(2)
		g.Set(5)
		h.Observe(123)
		s.Emit(1, StageGen, 0, OutNone, 1, 2)
		p.ObserveOffer(10, e, events.Stored)
		p.ObserveSlotStart(20, 1, events.IngressPacket, true)
		p.ObserveMerge(20, 1, e, true)
	})
	if allocs != 0 {
		t.Errorf("hot-path telemetry allocates %v allocs/op, want 0", allocs)
	}
}
