package state

// Name returns the array's configured name.
func (a *Array) Name() string { return a.name }

// Ports returns the per-cycle access budget.
func (a *Array) Ports() int { return a.ports }

// Stats reports lifetime access counts.
func (a *Array) Stats() (reads, writes, denied uint64) { return a.reads, a.writes, a.denied }
