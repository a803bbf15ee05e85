package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// golden pins what seed 1 must compute on one workload, at full horizon.
// Only a change to the simulated behaviour may alter these; a change meant
// to speed the simulator up must leave every one of them as it is.
type golden struct {
	Digest             string `json:"digest"`
	Cycles             uint64 `json:"core.cycles"`
	PktHops            uint64 `json:"pkt_hops"`
	Offered            uint64 `json:"frames_offered"`
	Failed             uint64 `json:"frames_failed"`
	StalenessMaxCycles uint64 `json:"sim_staleness_max_cycles"`
	Barriers           uint64 `json:"sim.barriers"`
}

func goldenOf(c counts) golden {
	return golden{
		Digest: fmt.Sprintf("%016x", c.Digest), Cycles: c.Cycles, PktHops: c.PktHops,
		Offered: c.Offered, Failed: c.failed(), StalenessMaxCycles: c.MaxLag, Barriers: c.Barriers,
	}
}

//go:embed golden.json
var goldenJSON []byte

var goldens = func() map[string]golden {
	var g map[string]golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("benchmark: golden.json: " + err.Error())
	}
	return g
}()
