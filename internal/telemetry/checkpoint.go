package telemetry

import (
	"fmt"

	"repro/internal/checkpoint"
)

// Checkpoint walks every instrument under its name (sorted, so the
// section is deterministic) plus, when tracing is on, every stream's ring
// content in creation order. The names are fixed: values pour back into
// the instruments and streams the rebuilt simulation's construction path
// re-created, so a name the rebuilt run lacks means it was built
// differently from the checkpointed one.
func (c *Collector) Checkpoint(cc *checkpoint.Codec) {
	r := c.reg
	names := checkpoint.SortedKeys(r.counters)
	cc.FixedU32("telemetry: counters", len(names))
	for _, n := range names {
		cc.FixedString("telemetry: counter", n)
		cc.U64(&r.counters[n].v)
	}
	names = checkpoint.SortedKeys(r.gauges)
	cc.FixedU32("telemetry: gauges", len(names))
	for _, n := range names {
		cc.FixedString("telemetry: gauge", n)
		cc.I64(&r.gauges[n].v)
	}
	names = checkpoint.SortedKeys(r.hists)
	cc.FixedU32("telemetry: histograms", len(names))
	for _, n := range names {
		cc.FixedString("telemetry: histogram", n)
		h := r.hists[n]
		for i := range h.buckets {
			cc.U64(&h.buckets[i])
		}
		cc.U64(&h.count)
		cc.U64(&h.sum)
		cc.U64(&h.max)
	}
	var streams []*Stream
	if c.tracer != nil {
		streams = c.tracer.streams
	}
	cc.FixedU32("telemetry: trace streams", len(streams))
	for _, s := range streams {
		cc.FixedString("telemetry: trace stream", s.name)
		// The retained records are written oldest first, whatever the
		// ring's rotation; loading lays them out from slot 0.
		recs := s.records()
		cc.U64(&s.n)
		kept := cc.Len32(len(recs))
		if cc.Loading() {
			if kept > len(s.ring) {
				cc.Fail(fmt.Errorf("telemetry: stream %q: snapshot keeps %d records, ring holds %d", s.name, kept, len(s.ring)))
				return
			}
			recs = s.ring[:kept]
		}
		for i := range recs {
			rec := &recs[i]
			cc.I64((*int64)(&rec.At))
			cc.U64(&rec.Seq)
			cc.U64(&rec.Arg)
			cc.U8(&rec.Kind)
			cc.U8((*uint8)(&rec.Stg))
			cc.U8((*uint8)(&rec.Out))
		}
		// An unwrapped ring (n == kept) is now laid out exactly as the
		// original. A wrapped one must have its oldest record at physical
		// slot n % len, where the original's next Emit would land, so
		// later writes evict in the same order; records() normalizes the
		// rotation on export, so exports stay byte-identical.
		if size := uint64(len(s.ring)); cc.Loading() && s.n > size {
			rotated := make([]Rec, size)
			for j := range recs {
				rotated[(s.n+uint64(j))%size] = recs[j]
			}
			copy(s.ring, rotated)
		}
	}
}
