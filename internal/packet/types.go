// Package packet implements the packet substrate for the simulator:
// wire-format encoding and decoding of Ethernet, IPv4, UDP and TCP
// headers plus the custom experiment protocols used by the event-driven
// applications (HULA probes, liveness echoes, telemetry reports).
//
// The design follows the gopacket conventions: each header type is a
// DecodingLayer that parses itself from a byte slice into preallocated
// storage without heap allocation, and a Parser walks a known layer stack
// the way gopacket's DecodingLayerParser does. Flow values are compact,
// comparable flow identifiers.
package packet

import (
	"encoding/binary"
	"fmt"
)

// MAC is a 48-bit Ethernet hardware address.
type MAC [6]byte

// String formats the address in canonical colon-separated hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Broadcast is the Ethernet broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// MACFromUint64 builds a MAC from the low 48 bits of v; handy for giving
// simulated hosts dense, readable addresses.
func MACFromUint64(v uint64) MAC {
	var m MAC
	m[0] = byte(v >> 40)
	m[1] = byte(v >> 32)
	m[2] = byte(v >> 24)
	m[3] = byte(v >> 16)
	m[4] = byte(v >> 8)
	m[5] = byte(v)
	return m
}

// Uint64 returns the address as an integer in the low 48 bits.
func (m MAC) Uint64() uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 |
		uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

// IP is an IPv4 address held as a big-endian uint32. The simulator is an
// IPv4-only world; a fixed-size integer representation keeps flow keys
// comparable and allocation-free.
type IP uint32

// IPFromBytes builds an IP from 4 bytes in network order.
func IPFromBytes(b []byte) IP {
	_ = b[3]
	return IP(binary.BigEndian.Uint32(b))
}

// IP4 builds an address from its dotted-quad components.
func IP4(a, b, c, d byte) IP {
	return IP(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// Put writes the address into b in network order.
func (ip IP) Put(b []byte) {
	binary.BigEndian.PutUint32(b, uint32(ip))
}

// String formats the address as a dotted quad.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// EtherType identifies the protocol carried in an Ethernet frame.
type EtherType uint16

// EtherTypes used by the simulator. The Probe/Echo/Report types sit in the
// IEEE local-experimental range and carry the custom event-protocol
// headers used by the example applications.
const (
	EtherTypeIPv4   EtherType = 0x0800
	EtherTypeProbe  EtherType = 0x88b5
	EtherTypeEcho   EtherType = 0x88b6
	EtherTypeReport EtherType = 0x88b7
)

// String names well-known EtherTypes.
func (t EtherType) String() string {
	switch t {
	case EtherTypeIPv4:
		return "IPv4"
	case EtherTypeProbe:
		return "Probe"
	case EtherTypeEcho:
		return "Echo"
	case EtherTypeReport:
		return "Report"
	default:
		return fmt.Sprintf("EtherType(0x%04x)", uint16(t))
	}
}

// IPProto identifies the transport protocol in an IPv4 header.
type IPProto uint8

// Transport protocol numbers used by the simulator.
const (
	ProtoICMP IPProto = 1
	ProtoTCP  IPProto = 6
	ProtoUDP  IPProto = 17
)

// String names well-known IP protocols.
func (p IPProto) String() string {
	switch p {
	case ProtoICMP:
		return "ICMP"
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	default:
		return fmt.Sprintf("IPProto(%d)", uint8(p))
	}
}

// Header sizes in bytes.
const (
	EthernetHeaderLen = 14
	IPv4HeaderLen     = 20 // without options
	UDPHeaderLen      = 8
	TCPHeaderLen      = 20 // without options
)

// MinFrameLen is the minimum Ethernet frame length (without FCS) enforced
// by the workload generators, matching the 64-byte wire minimum less the
// 4-byte FCS that the simulator does not model.
const MinFrameLen = 60

// MaxFrameLen is the maximum standard Ethernet frame length modeled.
const MaxFrameLen = 1514

// Checksum computes the RFC 1071 ones-complement checksum over b, with an
// optional initial partial sum (pass 0 normally).
func Checksum(b []byte, initial uint32) uint16 {
	sum := initial
	n := len(b)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if n%2 == 1 {
		sum += uint32(b[n-1]) << 8
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}
