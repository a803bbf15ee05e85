package packet

import "fmt"

// EndpointType says what kind of address an Endpoint holds.
type EndpointType uint8

// Endpoint kinds.
const (
	EndpointMAC EndpointType = iota + 1
	EndpointIPv4
	EndpointPort
)

// Endpoint is a hashable representation of one side of a conversation at
// some layer (gopacket's Endpoint, specialized to the protocols modeled
// here). Endpoints are comparable and usable as map keys.
type Endpoint struct {
	Type EndpointType
	A    uint64 // MAC in low 48 bits, or IPv4 in low 32, or port in low 16
}

// String formats the endpoint according to its type.
func (e Endpoint) String() string {
	switch e.Type {
	case EndpointMAC:
		return MACFromUint64(e.A).String()
	case EndpointIPv4:
		return IP(e.A).String()
	case EndpointPort:
		return fmt.Sprintf("port %d", e.A)
	default:
		return fmt.Sprintf("endpoint(%d,%d)", e.Type, e.A)
	}
}

// IPEndpoint builds an IPv4 endpoint.
func IPEndpoint(ip IP) Endpoint { return Endpoint{Type: EndpointIPv4, A: uint64(ip)} }

// PortEndpoint builds a transport-port endpoint.
func PortEndpoint(p uint16) Endpoint { return Endpoint{Type: EndpointPort, A: uint64(p)} }

// MACEndpoint builds a link-layer endpoint.
func MACEndpoint(m MAC) Endpoint { return Endpoint{Type: EndpointMAC, A: m.Uint64()} }

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// FastHash returns a quick non-cryptographic hash of the endpoint.
func (e Endpoint) FastHash() uint64 {
	return mix64(e.A ^ uint64(e.Type)<<56)
}

// EndpointPair is a directed (src, dst) pair of endpoints at one layer.
type EndpointPair struct {
	Src, Dst Endpoint
}

// FastHash returns a symmetric hash: the A→B pair hashes identically to
// B→A, so both directions of a conversation land in the same bucket (the
// gopacket Flow.FastHash property).
func (p EndpointPair) FastHash() uint64 {
	return p.Src.FastHash() + p.Dst.FastHash() // commutative combine
}

// Reverse returns the pair with src and dst swapped.
func (p EndpointPair) Reverse() EndpointPair { return EndpointPair{Src: p.Dst, Dst: p.Src} }

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

// FastHash returns a symmetric (direction-independent) hash of the flow.
func (f Flow) FastHash() uint64 {
	a := mix64(uint64(f.Src)<<16 | uint64(f.SrcPort))
	b := mix64(uint64(f.Dst)<<16 | uint64(f.DstPort))
	return a + b + mix64(uint64(f.Proto))
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
