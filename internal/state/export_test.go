package state

// Ports returns the per-cycle access budget.
func (a *Array) Ports() int { return a.ports }

// Stats reports lifetime access counts.
func (a *Array) Stats() (reads, writes, denied uint64) { return a.reads, a.writes, a.denied }
