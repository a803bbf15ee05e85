package bench

import (
	"fmt"

	"repro/internal/resources"
)

func init() {
	register(Experiment{ID: "table3", Paper: "Table 3 (FPGA resource cost of event support)", Run: Table3})
}

// Table3 reproduces the paper's Table 3: the resource increase of the
// SUME Event Switch's event logic as a percentage of the Virtex-7 device,
// from the structural cost model (see internal/resources).
func Table3(env *Env) *Result {
	cfg := resources.SUMEEventConfig()
	dev := resources.Virtex7_690T
	res := &Result{
		ID:    "table3",
		Title: fmt.Sprintf("Event-support hardware cost on %s (paper Table 3)", dev.Name),
		Cols:  []string{"FPGA resource", "paper % increase", "measured % increase"},
	}
	for _, row := range resources.Table3(cfg, dev) {
		res.AddRow(row.Resource, fmt.Sprintf("%.1f", row.Paper), fmt.Sprintf("%.2f", row.Measured))
	}
	inv := resources.EventLogicInventory(cfg)
	for _, it := range inv.Items {
		res.Notef("component %-38s LUT=%-6.0f FF=%-6.0f BRAM36=%.0f", it.Name, it.LUTs, it.FFs, it.BRAM36)
	}
	u := inv.Total()
	res.Notef("total event logic: LUT=%.0f FF=%.0f BRAM36=%.0f on a device with %d/%d/%d",
		u.LUTs, u.FFs, u.BRAM36, dev.LUTs, dev.FFs, dev.BRAM36)
	return res
}
