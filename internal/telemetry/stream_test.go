package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry/self"
)

// emitFixture drives an identical deterministic workload into a
// collector: a few counters/gauges/histograms and two trace streams.
func emitFixture(c *Collector) {
	reg := c.Registry()
	evs := reg.Counter("sw0.events")
	occ := reg.Gauge("sw0.fifo_occupancy")
	lag := reg.Histogram("r0.commit_lag")
	a := c.Stream("sw0")
	b := c.Stream("r0")
	for i := 0; i < 500; i++ {
		evs.Add(3)
		occ.Set(int64(i % 7))
		lag.Observe(uint64(i % 33))
		if a != nil {
			a.Emit(sim.Time(i*1000), StageGen, 2, OutNone, uint64(i), uint64(i%4))
			a.Emit(sim.Time(i*1000+10), StageEnqueue, 2, OutStored, uint64(i), 0)
		}
		if b != nil {
			b.Emit(sim.Time(i*1000+20), StageCommit, KindRegister, OutNone, uint64(i), 5)
		}
	}
}

// TestLiveExportIdentical: the same workload through a live collector and
// a plain one exports byte-identical metrics, traces, and digests — the
// observability plane's core read-only guarantee at the collector layer.
func TestLiveExportIdentical(t *testing.T) {
	plain := New(Options{TraceCap: 256})
	live := New(Options{TraceCap: 256, Live: true})
	emitFixture(plain)
	emitFixture(live)
	pr := []RunExport{{Label: "fix", C: plain}}
	lr := []RunExport{{Label: "fix", C: live}}
	pm, err := EncodeMetrics(pr)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := EncodeMetrics(lr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pm, lm) {
		t.Error("metrics documents differ between live and plain collectors")
	}
	pj, _ := EncodeJSONL(pr)
	lj, _ := EncodeJSONL(lr)
	if !bytes.Equal(pj, lj) {
		t.Error("JSONL traces differ between live and plain collectors")
	}
	pd, _ := Digest(pr)
	ld, _ := Digest(lr)
	if pd != ld {
		t.Errorf("digests differ: %016x vs %016x", pd, ld)
	}
}

// TestLiveHotPathZeroAlloc pins the live-mode instrument hot path at zero
// allocations, mirroring TestHotPathZeroAlloc for plain mode.
func TestLiveHotPathZeroAlloc(t *testing.T) {
	c := New(Options{TraceCap: 64, Live: true})
	ctr := c.Registry().Counter("c")
	g := c.Registry().Gauge("g")
	h := c.Registry().Histogram("h")
	s := c.Stream("s")
	allocs := testing.AllocsPerRun(1000, func() {
		ctr.Add(2)
		g.Set(41)
		h.Observe(17)
		s.Emit(1234, StageGen, 1, OutNone, 7, 0)
	})
	if allocs != 0 {
		t.Errorf("live hot path allocates %v allocs/op, want 0", allocs)
	}
}

// TestStreamDrainNew checks incremental drain bookkeeping including loss
// on ring wrap between drains.
func TestStreamDrainNew(t *testing.T) {
	tr := NewTracer(4)
	tr.SetLive()
	s := tr.Stream("x")
	for i := 0; i < 3; i++ {
		s.Emit(sim.Time(i), StageGen, 1, OutNone, uint64(i), 0)
	}
	recs, lost := s.DrainNew(nil)
	if len(recs) != 3 || lost != 0 {
		t.Fatalf("first drain: %d recs, %d lost; want 3, 0", len(recs), lost)
	}
	// Emit 6 more into a 4-slot ring: 2 of them are overwritten before
	// the next drain sees them.
	for i := 3; i < 9; i++ {
		s.Emit(sim.Time(i), StageGen, 1, OutNone, uint64(i), 0)
	}
	recs, lost = s.DrainNew(nil)
	if len(recs) != 4 || lost != 2 {
		t.Fatalf("second drain: %d recs, %d lost; want 4, 2", len(recs), lost)
	}
	if recs[0].Seq != 5 || recs[3].Seq != 8 {
		t.Errorf("drained window [%d,%d], want [5,8]", recs[0].Seq, recs[3].Seq)
	}
	if recs, lost = s.DrainNew(nil); len(recs) != 0 || lost != 0 {
		t.Errorf("idle drain returned %d recs, %d lost", len(recs), lost)
	}
}

// TestStreamSinkJSONL: records and metric snapshots land on disk
// mid-run, lines parse under the EncodeJSONL / evbench-metrics/v1
// schemas, and the final trace export is unaffected by draining.
func TestStreamSinkJSONL(t *testing.T) {
	plane := new(self.Plane)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "stream.jsonl")
	metricsPath := filepath.Join(dir, "metrics.jsonl")
	sk, err := NewStreamSink(StreamOptions{TracePath: tracePath, MetricsPath: metricsPath, Self: plane})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Options{TraceCap: 1 << 12, Live: true})
	sk.Attach("trial0", c)
	emitFixture(c)
	if err := sk.Flush(); err != nil {
		t.Fatal(err)
	}
	// More records after the first flush: the next flush drains only the
	// increment.
	emitFixture(c)
	if err := sk.Close(); err != nil {
		t.Fatal(err)
	}

	// Every line in the streamed trace parses with the JSONL schema, and
	// the total matches what was emitted (ring large enough: no loss).
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	scan := bufio.NewScanner(f)
	var lines int
	for scan.Scan() {
		var rec jsonlRec
		if err := json.Unmarshal(scan.Bytes(), &rec); err != nil {
			t.Fatalf("line %d: %v", lines+1, err)
		}
		if rec.Run != "trial0" || rec.Stream == "" || rec.Stage == "" {
			t.Fatalf("line %d: incomplete record %+v", lines+1, rec)
		}
		lines++
	}
	want := int(c.Tracer().Emitted())
	if lines != want {
		t.Errorf("streamed %d trace lines, want %d", lines, want)
	}

	// Metrics lines: one evbench-metrics/v1 document per flush (first
	// flush + close's final flush).
	mf, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	mlines := bytes.Split(bytes.TrimSpace(mf), []byte("\n"))
	if len(mlines) != 2 {
		t.Fatalf("got %d metrics lines, want 2", len(mlines))
	}
	for i, ln := range mlines {
		var doc metricsDoc
		if err := json.Unmarshal(ln, &doc); err != nil {
			t.Fatalf("metrics line %d: %v", i+1, err)
		}
		if doc.Schema != MetricsSchema || len(doc.Runs) != 1 || doc.Runs[0].Label != "trial0" {
			t.Fatalf("metrics line %d: unexpected doc %+v", i+1, doc)
		}
	}

	// Draining did not disturb the rings: the post-run export matches an
	// undrained collector fed the same workload.
	ref := New(Options{TraceCap: 1 << 12, Live: true})
	emitFixture(ref)
	emitFixture(ref)
	got, _ := Digest([]RunExport{{Label: "trial0", C: c}})
	wantD, _ := Digest([]RunExport{{Label: "trial0", C: ref}})
	if got != wantD {
		t.Error("post-run digest changed by stream draining")
	}

	if plane.StreamFlushes.Value() != 2 {
		t.Errorf("StreamFlushes = %d, want 2", plane.StreamFlushes.Value())
	}
	if plane.StreamRecords.Value() != uint64(want) {
		t.Errorf("StreamRecords = %d, want %d", plane.StreamRecords.Value(), want)
	}
}
