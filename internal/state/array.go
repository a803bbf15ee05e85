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
//
// A port budget is a cycle stamp: every port-consuming access names its
// cycle, and the first access in a new cycle resets the budget. Nothing
// walks the memories once per cycle, so a cycle costs only the memories
// it touches.
package state

// Array is a register array backed by a physical memory with a fixed
// number of access ports. Each read, write, or read-modify-write consumes
// one port of the cycle it names; accesses beyond the port budget in a
// cycle fail.
type Array struct {
	vals  []uint64
	ports int
	used  int    // ports consumed in cycle
	cycle uint64 // the cycle of the last port-consuming access
}

// NewArray returns a register array with the given number of entries and
// access ports per cycle. ports is typically 1 (single-ported SRAM); the
// multi-ported configuration models low-line-rate devices (paper §4).
func NewArray(size, ports int) *Array {
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
	return &Array{vals: make([]uint64, size), ports: ports}
}

// Size returns the number of entries.
func (a *Array) Size() int { return len(a.vals) }

// Free returns the number of ports still unused in the given cycle.
func (a *Array) Free(cycle uint64) int {
	if cycle != a.cycle {
		return a.ports
	}
	return a.ports - a.used
}

// TryAcquire consumes one port in the given cycle without performing an
// access, opening a memory transaction whose reads and writes the caller
// performs via Peek and Poke (a stateful ALU's read-modify-write is one
// such transaction). It returns false when the cycle's budget is
// exhausted.
func (a *Array) TryAcquire(cycle uint64) bool {
	if cycle != a.cycle {
		a.cycle = cycle
		a.used = 0
	}
	if a.used >= a.ports {
		return false
	}
	a.used++
	return true
}

// TryRead reads entry i, consuming one port in the given cycle. ok is
// false (and the value zero) when the cycle's port budget is exhausted.
func (a *Array) TryRead(cycle uint64, i uint32) (v uint64, ok bool) {
	if !a.TryAcquire(cycle) {
		return 0, false
	}
	return a.Peek(i), true
}

// Peek reads entry i without consuming a port. It models debug/monitor
// visibility (and the control plane's out-of-band access), not a
// data-plane read.
func (a *Array) Peek(i uint32) uint64 { return a.vals[i%uint32(len(a.vals))] }

// Poke writes entry i without consuming a port, for control-plane
// initialization and test setup.
func (a *Array) Poke(i uint32, v uint64) { a.vals[i%uint32(len(a.vals))] = v }

// Reset zeroes every entry without consuming ports (control-plane reset).
func (a *Array) Reset() { clear(a.vals) }
