package packet

import "fmt"

// Parser decodes a known layer stack into preallocated header storage with
// no per-packet allocation, in the style of gopacket's
// DecodingLayerParser. A Parser is not safe for concurrent use; each
// pipeline owns one.
type Parser struct {
	Eth    Ethernet
	IP     IPv4
	UDP    UDP
	TCP    TCP
	Probe  Probe
	Echo   Echo
	Report Report

	// Truncated is set when decoding stopped early because a header did
	// not fit; the layers decoded so far remain valid.
	Truncated bool
}

// Decode parses data starting at the Ethernet layer, appending each
// successfully decoded LayerType to *decoded (which is reset first). When
// an unknown or opaque layer is reached, the remaining bytes are the
// payload and decoding stops without error. A header that fails to parse
// returns an error along with the layers decoded before it.
func (p *Parser) Decode(data []byte, decoded *[]LayerType) error {
	*decoded = (*decoded)[:0]
	p.Truncated = false
	next := LayerEthernet
	for next != LayerPayload && next != LayerNone {
		layer := p.layerFor(next)
		if layer == nil {
			return fmt.Errorf("packet: no decoder for %v", next)
		}
		if err := layer.DecodeFromBytes(data); err != nil {
			p.Truncated = true
			return err
		}
		*decoded = append(*decoded, next)
		data = layer.LayerPayload()
		next = layer.NextLayerType()
		if len(data) == 0 && next != LayerPayload {
			// Nothing left for the next header; stop cleanly.
			return nil
		}
	}
	return nil
}

func (p *Parser) layerFor(t LayerType) DecodingLayer {
	switch t {
	case LayerEthernet:
		return &p.Eth
	case LayerIPv4:
		return &p.IP
	case LayerUDP:
		return &p.UDP
	case LayerTCP:
		return &p.TCP
	case LayerProbe:
		return &p.Probe
	case LayerEcho:
		return &p.Echo
	case LayerReport:
		return &p.Report
	default:
		return nil
	}
}

// Flow returns the IPv4 5-tuple of the frame Decode just parsed, given the
// data and decoded stack of that call; the result always equals
// FlowOf(data). For the common stack — Ethernet/IPv4/UDP or
// Ethernet/IPv4/TCP decoded whole — it is read from the header storage
// Decode filled, so the frame is walked once per slot. Every other stack
// (non-IP, a transport header cut short by the frame or by the IP
// total length, a decode error) takes FlowOf, whose rules differ from the
// layer decoders' exactly there: it reads the ports from the four bytes
// behind the IP header whatever the lengths claim.
func (p *Parser) Flow(data []byte, decoded []LayerType) (Flow, bool) {
	if len(decoded) == 3 && decoded[1] == LayerIPv4 {
		switch decoded[2] {
		case LayerUDP:
			return Flow{Src: p.IP.Src, Dst: p.IP.Dst, SrcPort: p.UDP.SrcPort, DstPort: p.UDP.DstPort, Proto: ProtoUDP}, true
		case LayerTCP:
			return Flow{Src: p.IP.Src, Dst: p.IP.Dst, SrcPort: p.TCP.SrcPort, DstPort: p.TCP.DstPort, Proto: ProtoTCP}, true
		}
	}
	return FlowOf(data)
}

// FlowOf extracts the IPv4 5-tuple from an Ethernet frame, returning
// ok=false for non-IP frames or frames too short to carry a transport
// header. It walks the raw bytes without a Parser: the reference
// Parser.Flow must match, and the path for frames nobody decoded.
func FlowOf(data []byte) (Flow, bool) {
	if len(data) < EthernetHeaderLen+IPv4HeaderLen {
		return Flow{}, false
	}
	if EtherTypeOf(data) != EtherTypeIPv4 {
		return Flow{}, false
	}
	ipb := data[EthernetHeaderLen:]
	ihl := int(ipb[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(ipb) < ihl+4 {
		return Flow{}, false
	}
	f := Flow{
		Proto: IPProto(ipb[9]),
		Src:   IPFromBytes(ipb[12:16]),
		Dst:   IPFromBytes(ipb[16:20]),
	}
	if f.Proto == ProtoTCP || f.Proto == ProtoUDP {
		tp := ipb[ihl:]
		f.SrcPort = uint16(tp[0])<<8 | uint16(tp[1])
		f.DstPort = uint16(tp[2])<<8 | uint16(tp[3])
	}
	return f, true
}

// EtherTypeOf returns the EtherType of a frame, or 0 if too short.
func EtherTypeOf(data []byte) EtherType {
	if len(data) < EthernetHeaderLen {
		return 0
	}
	return EtherType(uint16(data[12])<<8 | uint16(data[13]))
}
