package bench

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

func init() {
	register(Experiment{
		ID:    "scale",
		Paper: "§5 event-driven processing at scale: multi-core conservative parallel execution",
		Run:   ScaleBench,
	})
}

// scaleRunner abstracts one topology for the scale sweep: a label and a
// function that runs it at a given domain count / batching mode. Both the
// leaf-spine HULA fabrics and the fat trees plug in here.
type scaleRunner struct {
	label    string
	switches int
	run      func(domains int, classic bool, tel *telemetry.Collector) fabricMetrics
}

// ScaleBench sweeps fabric topology × partition domain count and checks
// the conservative parallel engine's byte-identity claim: every row's
// digest must equal the 1-domain baseline for the same fabric — across
// domain counts and across adaptive vs classic fixed-width windows ("Nc"
// rows). What the partition costs or buys in wall-clock time is the
// standing benchmark's question (benchmark/, fattree_serial vs
// fattree_domains2), not this table's.
//
// The fat trees are the paper-scale proof: ft8 is an 80-switch k=8
// fat tree whose rolling shuffle workload pushes millions of packets
// through the fabric per run.
func ScaleBench(env *Env) *Result {
	res, _ := scaleSweep(env)
	return res
}

// scaleSweep is ScaleBench plus every row's raw metrics, keyed
// "<fabric>/<domains cell>": the barrier counts are simulated quantities
// the table does not print but TestScaleDigestsMatch holds a bound on.
func scaleSweep(env *Env) (*Result, map[string]fabricMetrics) {
	res := &Result{
		ID:    "scale",
		Title: "parallel simulation scaling: fabric size x domain count",
		Cols:  []string{"fabric", "domains", "switches", "cycles", "tx packets", "digest", "identical"},
	}

	type fab struct {
		tors, spines, flows int
		rate                sim.Rate
		horizon             sim.Time
	}
	var runners []scaleRunner
	for _, f := range []fab{
		{tors: 4, spines: 4, flows: 12, rate: 500 * sim.Mbps, horizon: 20 * sim.Millisecond},
		{tors: 8, spines: 8, flows: 28, rate: 400 * sim.Mbps, horizon: 20 * sim.Millisecond},
	} {
		f := f
		label := fmt.Sprintf("%dx%d", f.tors, f.spines)
		runners = append(runners, scaleRunner{
			label: label, switches: f.tors + f.spines,
			run: func(domains int, classic bool, tel *telemetry.Collector) fabricMetrics {
				return runHULAFabric(env, fabricSpec{
					tors: f.tors, spines: f.spines,
					probePeriod: 200 * sim.Microsecond, horizon: f.horizon,
					flows: f.flows, flowRate: f.rate,
					domains: domains, classic: classic,
					tel: tel,
				})
			},
		})
	}
	for _, ft := range []fatTreeSpec{
		{k: 4, horizon: 24 * sim.Millisecond, slot: 250 * sim.Microsecond,
			hostRate: 1120 * sim.Mbps, interGap: 150 * sim.Microsecond},
		{k: 8, horizon: 96 * sim.Millisecond, slot: 250 * sim.Microsecond,
			hostRate: 1120 * sim.Mbps, interGap: 150 * sim.Microsecond},
	} {
		ft := ft
		runners = append(runners, scaleRunner{
			label: fmt.Sprintf("ft%d", ft.k), switches: ft.switches(),
			run: func(domains int, classic bool, tel *telemetry.Collector) fabricMetrics {
				spec := ft
				spec.domains, spec.classic, spec.tel = domains, classic, tel
				return runFatTree(env, spec)
			},
		})
	}

	metrics := make(map[string]fabricMetrics)
	for _, r := range runners {
		// Adaptive sweep at 1 (baseline), 2, 4 domains, then the classic
		// fixed-width twin at 4 ("4c"): same simulation, no window
		// batching.
		var base fabricMetrics
		for i, c := range []struct {
			cell    string
			domains int
			classic bool
		}{{"1", 1, false}, {"2", 2, false}, {"4", 4, false}, {"4c", 4, true}} {
			m := r.run(c.domains, c.classic, env.collector(fmt.Sprintf("scale/%s-d%s", r.label, c.cell)))
			ident := "baseline"
			if i == 0 {
				base = m
			} else if m.ident() == base.ident() {
				ident = "yes"
			} else {
				ident = "NO"
			}
			res.AddRow(r.label, c.cell, d(r.switches),
				d(m.cycles), d(m.txPackets), fmt.Sprintf("%016x", m.digest), ident)
			metrics[r.label+"/"+c.cell] = m
		}
	}

	res.Notef("digest folds every switch/link/host counter; 'identical' checks it against the 1-domain baseline")
	res.Notef("'Nc' rows force classic fixed-width windows; they must stay byte-identical")
	return res, metrics
}
