package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Errors returned by layer decoding.
var (
	ErrTruncated = errors.New("packet: truncated header")
	ErrBadField  = errors.New("packet: invalid header field")
)

// LayerType identifies a protocol layer understood by the Parser.
type LayerType uint8

// Layer types for the protocols modeled here.
const (
	LayerNone LayerType = iota
	LayerEthernet
	LayerIPv4
	LayerUDP
	LayerTCP
	LayerProbe
	LayerEcho
	LayerReport
	LayerPayload
)

// String names the layer type.
func (t LayerType) String() string {
	switch t {
	case LayerEthernet:
		return "Ethernet"
	case LayerIPv4:
		return "IPv4"
	case LayerUDP:
		return "UDP"
	case LayerTCP:
		return "TCP"
	case LayerProbe:
		return "Probe"
	case LayerEcho:
		return "Echo"
	case LayerReport:
		return "Report"
	case LayerPayload:
		return "Payload"
	default:
		return fmt.Sprintf("LayerType(%d)", uint8(t))
	}
}

// DecodingLayer is implemented by header types that can parse themselves
// from the front of a byte slice into preallocated storage, following the
// gopacket DecodingLayerParser convention. DecodeFromBytes must not retain
// data.
type DecodingLayer interface {
	// DecodeFromBytes parses the layer's header from the front of data.
	DecodeFromBytes(data []byte) error
	// NextLayerType reports the type of the layer following this one,
	// based on the decoded header, or LayerPayload if opaque.
	NextLayerType() LayerType
	// LayerPayload returns the bytes following this layer's header within
	// the data passed to DecodeFromBytes.
	LayerPayload() []byte
}

// SerializableLayer is implemented by header types that can write their
// wire format.
type SerializableLayer interface {
	// SerializedLen returns the number of bytes SerializeTo will write.
	SerializedLen() int
	// SerializeTo writes the header into b, which must be at least
	// SerializedLen() bytes, and returns the bytes written.
	SerializeTo(b []byte) int
}

// Ethernet is an Ethernet II frame header.
type Ethernet struct {
	Dst  MAC
	Src  MAC
	Type EtherType

	payload []byte
}

// DecodeFromBytes implements DecodingLayer.
func (e *Ethernet) DecodeFromBytes(data []byte) error {
	if len(data) < EthernetHeaderLen {
		return fmt.Errorf("%w: ethernet needs %d bytes, have %d", ErrTruncated, EthernetHeaderLen, len(data))
	}
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	e.Type = EtherType(binary.BigEndian.Uint16(data[12:14]))
	e.payload = data[EthernetHeaderLen:]
	return nil
}

// NextLayerType implements DecodingLayer.
func (e *Ethernet) NextLayerType() LayerType {
	switch e.Type {
	case EtherTypeIPv4:
		return LayerIPv4
	case EtherTypeProbe:
		return LayerProbe
	case EtherTypeEcho:
		return LayerEcho
	case EtherTypeReport:
		return LayerReport
	default:
		return LayerPayload
	}
}

// LayerPayload implements DecodingLayer.
func (e *Ethernet) LayerPayload() []byte { return e.payload }

// SerializedLen implements SerializableLayer.
func (e *Ethernet) SerializedLen() int { return EthernetHeaderLen }

// SerializeTo implements SerializableLayer.
func (e *Ethernet) SerializeTo(b []byte) int {
	_ = b[EthernetHeaderLen-1]
	copy(b[0:6], e.Dst[:])
	copy(b[6:12], e.Src[:])
	binary.BigEndian.PutUint16(b[12:14], uint16(e.Type))
	return EthernetHeaderLen
}

// IPv4 is an IPv4 header without options.
type IPv4 struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	Flags    uint8 // 3 bits: reserved, DF, MF
	FragOff  uint16
	TTL      uint8
	Protocol IPProto
	Checksum uint16
	Src      IP
	Dst      IP

	payload []byte
}

// DecodeFromBytes implements DecodingLayer.
func (ip *IPv4) DecodeFromBytes(data []byte) error {
	if len(data) < IPv4HeaderLen {
		return fmt.Errorf("%w: ipv4 needs %d bytes, have %d", ErrTruncated, IPv4HeaderLen, len(data))
	}
	if v := data[0] >> 4; v != 4 {
		return fmt.Errorf("%w: ip version %d", ErrBadField, v)
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < IPv4HeaderLen {
		return fmt.Errorf("%w: ihl %d", ErrBadField, ihl)
	}
	if len(data) < ihl {
		return fmt.Errorf("%w: ipv4 options", ErrTruncated)
	}
	ip.TOS = data[1]
	ip.TotalLen = binary.BigEndian.Uint16(data[2:4])
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ff := binary.BigEndian.Uint16(data[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOff = ff & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = IPProto(data[9])
	ip.Checksum = binary.BigEndian.Uint16(data[10:12])
	ip.Src = IPFromBytes(data[12:16])
	ip.Dst = IPFromBytes(data[16:20])
	end := int(ip.TotalLen)
	if end > len(data) || end < ihl {
		end = len(data)
	}
	ip.payload = data[ihl:end]
	return nil
}

// NextLayerType implements DecodingLayer.
func (ip *IPv4) NextLayerType() LayerType {
	switch ip.Protocol {
	case ProtoUDP:
		return LayerUDP
	case ProtoTCP:
		return LayerTCP
	default:
		return LayerPayload
	}
}

// LayerPayload implements DecodingLayer.
func (ip *IPv4) LayerPayload() []byte { return ip.payload }

// SerializedLen implements SerializableLayer.
func (ip *IPv4) SerializedLen() int { return IPv4HeaderLen }

// SerializeTo implements SerializableLayer. It computes and stores the
// header checksum.
func (ip *IPv4) SerializeTo(b []byte) int {
	_ = b[IPv4HeaderLen-1]
	b[0] = 4<<4 | IPv4HeaderLen/4
	b[1] = ip.TOS
	binary.BigEndian.PutUint16(b[2:4], ip.TotalLen)
	binary.BigEndian.PutUint16(b[4:6], ip.ID)
	binary.BigEndian.PutUint16(b[6:8], uint16(ip.Flags)<<13|ip.FragOff&0x1fff)
	b[8] = ip.TTL
	b[9] = uint8(ip.Protocol)
	b[10], b[11] = 0, 0
	ip.Src.Put(b[12:16])
	ip.Dst.Put(b[16:20])
	ip.Checksum = Checksum(b[:IPv4HeaderLen], 0)
	binary.BigEndian.PutUint16(b[10:12], ip.Checksum)
	return IPv4HeaderLen
}

// UDP is a UDP header.
type UDP struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16
	Checksum uint16

	payload []byte
}

// DecodeFromBytes implements DecodingLayer.
func (u *UDP) DecodeFromBytes(data []byte) error {
	if len(data) < UDPHeaderLen {
		return fmt.Errorf("%w: udp needs %d bytes, have %d", ErrTruncated, UDPHeaderLen, len(data))
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.Length = binary.BigEndian.Uint16(data[4:6])
	u.Checksum = binary.BigEndian.Uint16(data[6:8])
	end := int(u.Length)
	if end > len(data) || end < UDPHeaderLen {
		end = len(data)
	}
	u.payload = data[UDPHeaderLen:end]
	return nil
}

// NextLayerType implements DecodingLayer.
func (u *UDP) NextLayerType() LayerType { return LayerPayload }

// LayerPayload implements DecodingLayer.
func (u *UDP) LayerPayload() []byte { return u.payload }

// SerializedLen implements SerializableLayer.
func (u *UDP) SerializedLen() int { return UDPHeaderLen }

// SerializeTo implements SerializableLayer. The checksum is left as stored
// (zero means "no checksum", which IPv4 permits).
func (u *UDP) SerializeTo(b []byte) int {
	_ = b[UDPHeaderLen-1]
	binary.BigEndian.PutUint16(b[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], u.DstPort)
	binary.BigEndian.PutUint16(b[4:6], u.Length)
	binary.BigEndian.PutUint16(b[6:8], u.Checksum)
	return UDPHeaderLen
}

// TCP flag bits.
const (
	TCPFin uint8 = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
)

// TCP is a TCP header without options.
type TCP struct {
	SrcPort  uint16
	DstPort  uint16
	Seq      uint32
	Ack      uint32
	DataOff  uint8 // header length in 32-bit words
	Flags    uint8
	Window   uint16
	Checksum uint16
	Urgent   uint16

	payload []byte
}

// DecodeFromBytes implements DecodingLayer.
func (t *TCP) DecodeFromBytes(data []byte) error {
	if len(data) < TCPHeaderLen {
		return fmt.Errorf("%w: tcp needs %d bytes, have %d", ErrTruncated, TCPHeaderLen, len(data))
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	t.DataOff = data[12] >> 4
	hl := int(t.DataOff) * 4
	if hl < TCPHeaderLen {
		return fmt.Errorf("%w: tcp data offset %d", ErrBadField, t.DataOff)
	}
	if len(data) < hl {
		return fmt.Errorf("%w: tcp options", ErrTruncated)
	}
	t.Flags = data[13] & 0x3f
	t.Window = binary.BigEndian.Uint16(data[14:16])
	t.Checksum = binary.BigEndian.Uint16(data[16:18])
	t.Urgent = binary.BigEndian.Uint16(data[18:20])
	t.payload = data[hl:]
	return nil
}

// NextLayerType implements DecodingLayer.
func (t *TCP) NextLayerType() LayerType { return LayerPayload }

// LayerPayload implements DecodingLayer.
func (t *TCP) LayerPayload() []byte { return t.payload }

// SerializedLen implements SerializableLayer.
func (t *TCP) SerializedLen() int { return TCPHeaderLen }

// SerializeTo implements SerializableLayer.
func (t *TCP) SerializeTo(b []byte) int {
	_ = b[TCPHeaderLen-1]
	binary.BigEndian.PutUint16(b[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], t.DstPort)
	binary.BigEndian.PutUint32(b[4:8], t.Seq)
	binary.BigEndian.PutUint32(b[8:12], t.Ack)
	b[12] = (TCPHeaderLen / 4) << 4
	b[13] = t.Flags & 0x3f
	binary.BigEndian.PutUint16(b[14:16], t.Window)
	binary.BigEndian.PutUint16(b[16:18], t.Checksum)
	binary.BigEndian.PutUint16(b[18:20], t.Urgent)
	return TCPHeaderLen
}
