// Package state models the stateful memories of a PISA pipeline: register
// arrays with per-clock-cycle port budgets, and the paper's §4 mechanism
// for sharing state between event-processing threads at high line rate —
// aggregation registers that buffer low-priority event updates in
// single-ported memories and drain them into the main algorithmic state
// during idle clock cycles (Figure 3 of the paper).
//
// Memory here is cycle-accurate in the one dimension that matters for the
// paper's claims: how many accesses each physical memory can serve per
// clock cycle. A single-ported array serves one read-modify-write per
// cycle; requests beyond the budget are refused and the caller must
// arbitrate (stall, drop, or defer).
package state

import "fmt"

// Array is a register array backed by a physical memory with a fixed
// number of access ports. Each read, write, or read-modify-write consumes
// one port for the current cycle. The pipeline advances the cycle with
// Tick; accesses beyond the port budget in a cycle fail.
type Array struct {
	name   string
	vals   []uint64
	ports  int
	used   int
	cycle  uint64
	reads  uint64
	writes uint64
	denied uint64
}

// NewArray returns a register array with the given number of entries and
// access ports per cycle. ports is typically 1 (single-ported SRAM); the
// multi-ported configuration models low-line-rate devices (paper §4).
func NewArray(name string, size, ports int) *Array {
	if size <= 0 {
		// µP4 source cannot reach this: check.go's `register %q size %d
		// out of range` rule refuses a size of 0 (and above 1<<24).
		panic("state: array size must be positive")
	}
	if ports <= 0 {
		// Not reachable from µP4 source either: ports is no language
		// construct. The aggregated design passes 1, and the one
		// multi-ported caller (the memory ablation) passes a constant 3.
		panic("state: array must have at least one port")
	}
	return &Array{name: name, vals: make([]uint64, size), ports: ports}
}

// Size returns the number of entries.
func (a *Array) Size() int { return len(a.vals) }

// Tick advances the array to the given clock cycle, resetting the port
// budget. Cycles must be non-decreasing.
func (a *Array) Tick(cycle uint64) {
	if cycle < a.cycle {
		panic(fmt.Sprintf("state: %s ticked backwards (%d -> %d)", a.name, a.cycle, cycle))
	}
	if cycle != a.cycle {
		a.cycle = cycle
		a.used = 0
	}
}

// Free returns the number of unused ports remaining this cycle.
func (a *Array) Free() int { return a.ports - a.used }

// TryRead reads entry i, consuming one port. ok is false (and the value
// zero) when the port budget for this cycle is exhausted.
func (a *Array) TryRead(i uint32) (v uint64, ok bool) {
	if a.used >= a.ports {
		a.denied++
		return 0, false
	}
	a.used++
	a.reads++
	return a.vals[i%uint32(len(a.vals))], true
}

// TryRMW atomically applies f to entry i, consuming one port (a stateful
// ALU performs read-modify-write as a single memory transaction).
func (a *Array) TryRMW(i uint32, f func(uint64) uint64) (uint64, bool) {
	if a.used >= a.ports {
		a.denied++
		return 0, false
	}
	a.used++
	a.reads++
	a.writes++
	idx := i % uint32(len(a.vals))
	a.vals[idx] = f(a.vals[idx])
	return a.vals[idx], true
}

// TryAcquire consumes one port without performing an access, opening a
// memory transaction whose reads and writes the caller performs via Peek
// and Poke. It returns false when the budget is exhausted.
func (a *Array) TryAcquire() bool {
	if a.used >= a.ports {
		a.denied++
		return false
	}
	a.used++
	return true
}

// Peek reads entry i without consuming a port. It models debug/monitor
// visibility (and the control plane's out-of-band access), not a
// data-plane read.
func (a *Array) Peek(i uint32) uint64 { return a.vals[i%uint32(len(a.vals))] }

// Poke writes entry i without consuming a port, for control-plane
// initialization and test setup.
func (a *Array) Poke(i uint32, v uint64) { a.vals[i%uint32(len(a.vals))] = v }

// Reset zeroes every entry without consuming ports (control-plane reset).
func (a *Array) Reset() {
	for i := range a.vals {
		a.vals[i] = 0
	}
}
