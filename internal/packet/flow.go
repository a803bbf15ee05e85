package packet

import "fmt"

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Flow is an IPv4 5-tuple. It is comparable and usable as a map key, and
// is the unit at which the example applications keep per-flow state.
type Flow struct {
	Src, Dst         IP
	SrcPort, DstPort uint16
	Proto            IPProto
}

// String formats the flow as "proto src:sport>dst:dport".
func (f Flow) String() string {
	return fmt.Sprintf("%s %s:%d>%s:%d", f.Proto, f.Src, f.SrcPort, f.Dst, f.DstPort)
}

// Reverse returns the flow in the opposite direction.
func (f Flow) Reverse() Flow {
	return Flow{Src: f.Dst, Dst: f.Src, SrcPort: f.DstPort, DstPort: f.SrcPort, Proto: f.Proto}
}

// Hash returns a direction-sensitive hash of the flow, as computed by the
// hash extern in data-plane programs (paper §2's `hash(hdr.ip.src ++
// hdr.ip.dst, flowID)`).
func (f Flow) Hash() uint64 {
	h := mix64(uint64(f.Src))
	h = mix64(h ^ uint64(f.Dst))
	h = mix64(h ^ uint64(f.SrcPort)<<32 ^ uint64(f.DstPort)<<16 ^ uint64(f.Proto))
	return h
}

// Index reduces the flow hash onto a register array of size n, as the
// data-plane programs do when indexing per-flow state.
func (f Flow) Index(n int) uint32 {
	if n <= 0 {
		panic("packet: Flow.Index with non-positive size")
	}
	return uint32(f.Hash() % uint64(n))
}
