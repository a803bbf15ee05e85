package apps

import "repro/internal/core"

// Arm starts the AFD timer on the switch the program is loaded on.
func (a *AFD) Arm(sw *core.Switch) error {
	return sw.ConfigureTimer(0, a.cfg.Interval)
}

// Arm starts the PIE update timer on the switch the program is loaded on.
func (pie *PIE) Arm(sw *core.Switch) error {
	return sw.ConfigureTimer(0, pie.cfg.Update)
}
