// Package repro's root benchmarks regenerate every table and figure of
// the paper (and its quantified inline claims): one testing.B benchmark
// per artifact, each delegating to the experiment harness in
// internal/bench. Run them all with
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the experiment's wall-clock cost per full run;
// the experiment's table itself is printed once (on the first iteration)
// so `go test -bench` output doubles as the reproduction record. The
// cmd/evbench tool prints the same tables without the benchmark harness.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/bench"
)

// runExperiment benchmarks one experiment end-to-end and prints its table
// on the first iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.Get(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		res := e.Run(&bench.Env{})
		if i == 0 {
			fmt.Println(res.String())
		}
	}
}

// BenchmarkTable1Events reproduces Table 1: all thirteen data-plane
// events firing on the event-driven architecture.
func BenchmarkTable1Events(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2Applications reproduces Table 2: one application per
// class, run end-to-end.
func BenchmarkTable2Applications(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable3Resources reproduces Table 3: the FPGA resource cost of
// event support on the Virtex-7.
func BenchmarkTable3Resources(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFig2LogicalArchitecture contrasts the baseline PSA (Figure 1)
// with the event-driven logical architecture (Figure 2) on occupancy
// tracking.
func BenchmarkFig2LogicalArchitecture(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig3Aggregation exercises the Figure 3 aggregation-register
// mechanism across packet loads.
func BenchmarkFig3Aggregation(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig4LineRate demonstrates the §5 line-rate feasibility claim
// on the Figure 4 datapath.
func BenchmarkFig4LineRate(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkMicroburst reproduces the §2 running example against the
// Snappy-style baseline (state and accuracy).
func BenchmarkMicroburst(b *testing.B) { runExperiment(b, "microburst") }

// BenchmarkCMSReset reproduces the §1 control-plane-overhead argument for
// periodic sketch resets.
func BenchmarkCMSReset(b *testing.B) { runExperiment(b, "cmsreset") }

// BenchmarkStaleness reproduces the §4 bounded-staleness claim across
// overspeed and load.
func BenchmarkStaleness(b *testing.B) { runExperiment(b, "staleness") }

// BenchmarkStudentProjects reproduces the four §5 student projects.
func BenchmarkStudentProjects(b *testing.B) { runExperiment(b, "projects") }

// BenchmarkHULA reproduces the §3 congestion-aware-forwarding experiment:
// HULA probing at data-plane vs control-plane periods.
func BenchmarkHULA(b *testing.B) { runExperiment(b, "hula") }

// BenchmarkAblations quantifies the design choices called out in
// DESIGN.md §5.
func BenchmarkAblations(b *testing.B) { runExperiment(b, "ablations") }

// BenchmarkTofino quantifies §6: emulating dequeue events by
// recirculation on a baseline device vs native event support.
func BenchmarkTofino(b *testing.B) { runExperiment(b, "tofino") }

// BenchmarkINTFilter quantifies §3's monitoring claim: event-driven
// aggregation and filtering of INT report volume.
func BenchmarkINTFilter(b *testing.B) { runExperiment(b, "intfilter") }

// BenchmarkAQMFamily runs the four AQM algorithms the paper names (RED,
// AFD, FRED, PIE) plus tail-drop on one shared congestion scenario.
func BenchmarkAQMFamily(b *testing.B) { runExperiment(b, "aqm") }
