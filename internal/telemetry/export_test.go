package telemetry

import (
	"encoding/json"
	"testing"

	"repro/internal/events"
	"repro/internal/sim"
)

// Offered sums the four outcome counters.
func (qc QueueCounters) Offered() uint64 {
	return qc.Stored.Value() + qc.Coalesced.Value() + qc.Shed.Value() + qc.Dropped.Value()
}

// jsonlRec is one JSONL trace line as encoding/json sees it: the
// reference appendJSONL is held to, and what the stream tests decode.
type jsonlRec struct {
	Run     string `json:"run"`
	Stream  string `json:"stream"`
	TsPs    int64  `json:"ts_ps"`
	Stage   string `json:"stage"`
	Kind    string `json:"kind"`
	Outcome string `json:"outcome,omitempty"`
	Seq     uint64 `json:"seq"`
	Arg     uint64 `json:"arg"`
}

// TestAppendJSONLMatchesMarshal holds the hand-written line encoder to
// json.Marshal of jsonlRec over every stage, kind and outcome name (and
// one past each vocabulary), with labels that need escaping.
func TestAppendJSONLMatchesMarshal(t *testing.T) {
	labels := [][2]string{
		{"trial0", "sw0.events"},
		{`a<b>&c`, `q"uote\back`},
		{"häßlich ✓", "\x00ctl\n\t "},
		{"bad\xffutf8", ""},
	}
	kinds := []uint8{KindRegister, uint8(events.NumKinds)}
	for k := 0; k < events.NumKinds; k++ {
		kinds = append(kinds, uint8(k))
	}
	var line []byte
	for _, lb := range labels {
		prefix := jsonlPrefix(lb[0], lb[1])
		for stg := Stage(0); stg <= numStages; stg++ {
			for _, kind := range kinds {
				for out := OutNone; out <= OutInjected+1; out++ {
					rec := Rec{At: sim.Time(1<<62 + int64(kind)), Seq: ^uint64(0) - uint64(stg), Arg: uint64(out), Kind: kind, Stg: stg, Out: out}
					want, err := json.Marshal(jsonlRec{
						Run: lb[0], Stream: lb[1], TsPs: int64(rec.At),
						Stage: stg.String(), Kind: kindName(kind), Outcome: out.String(),
						Seq: rec.Seq, Arg: rec.Arg,
					})
					if err != nil {
						t.Fatal(err)
					}
					line = appendJSONL(line[:0], prefix, rec)
					if got := string(line); got != string(want)+"\n" {
						t.Fatalf("appendJSONL(%q, %q, %+v)\n got %s\nwant %s", lb[0], lb[1], rec, got, want)
					}
				}
			}
		}
	}
}
