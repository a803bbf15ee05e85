package packet

import "fmt"

// Packet is a frame travelling through the simulator. The wire bytes are
// authoritative; parsed views are produced on demand by a Parser. A Packet
// also carries the simulator-level annotations that a real switch would
// hold in per-packet metadata outside the P4-visible headers.
type Packet struct {
	// Data holds the full frame bytes (without FCS).
	Data []byte

	// InPort is the switch port the frame arrived on (-1 for packets
	// created by the data plane's packet generator).
	InPort int

	// Empty marks a zero-length placeholder "packet" injected by the
	// Event Merger purely to carry event metadata through the pipeline
	// when no real packet is available (paper §5). Empty packets consume
	// a pipeline slot but are never transmitted.
	Empty bool

	// Gen marks a packet created by the data-plane packet generator.
	Gen bool

	// Recirc counts how many times the packet has been recirculated.
	Recirc int

	// pool and freed implement the recycling arena (pool.go). A packet
	// built with a plain literal has pool == nil and Release is a no-op,
	// so pooled and unpooled packets mix freely.
	pool  *Pool
	freed bool
}

// Len returns the frame length in bytes (0 for empty metadata carriers).
func (p *Packet) Len() int {
	if p == nil || p.Empty {
		return 0
	}
	return len(p.Data)
}

// String summarizes the packet for traces.
func (p *Packet) String() string {
	if p.Empty {
		return "pkt(empty)"
	}
	kind := ""
	if p.Gen {
		kind = " gen"
	}
	return fmt.Sprintf("pkt(len=%d in=%d%s)", len(p.Data), p.InPort, kind)
}

// FrameSpec describes a frame to build. Zero values choose sensible
// defaults; TotalLen pads the frame (minimum MinFrameLen enforced).
type FrameSpec struct {
	DstMAC, SrcMAC MAC
	Flow           Flow
	TotalLen       int
	TTL            uint8
	TCPFlags       uint8 // only for ProtoTCP
	Seq            uint32
}

// BuildFrame serializes a full Ethernet/IPv4/UDP-or-TCP frame according to
// spec. Payload bytes are zero. The result length is max(TotalLen,
// minimum needed, MinFrameLen).
func BuildFrame(spec FrameSpec) []byte {
	return AppendFrame(nil, spec)
}

// grow extends buf by n zeroed bytes, reusing its capacity when possible,
// and returns the extended slice plus the offset of the new region.
func grow(buf []byte, n int) ([]byte, int) {
	off := len(buf)
	need := off + n
	if cap(buf) >= need {
		buf = buf[:need]
		clear(buf[off:])
	} else {
		nb := make([]byte, need)
		copy(nb, buf)
		buf = nb
	}
	return buf, off
}

// AppendFrame serializes the frame described by spec onto buf (reusing
// buf's spare capacity when it suffices) and returns the extended slice.
// Callers that recycle a scratch buffer get allocation-free frame
// generation: AppendFrame(scratch[:0], spec). Identical bytes to
// BuildFrame.
func AppendFrame(dst []byte, spec FrameSpec) []byte {
	dst, base := grow(dst, FrameLen(spec))
	PutFrameHeaders(dst[base:], spec)
	return dst
}

// frameProto is the transport protocol of spec's frame (UDP by default)
// and the length of its headers.
func frameProto(spec FrameSpec) (IPProto, int) {
	proto, headers := spec.Flow.Proto, EthernetHeaderLen+IPv4HeaderLen+UDPHeaderLen
	if proto == 0 {
		proto = ProtoUDP
	}
	if proto == ProtoTCP {
		headers = EthernetHeaderLen + IPv4HeaderLen + TCPHeaderLen
	}
	return proto, headers
}

// FrameLen returns the length of the frame spec describes:
// max(TotalLen, its headers, MinFrameLen).
func FrameLen(spec FrameSpec) int {
	_, headers := frameProto(spec)
	return max(spec.TotalLen, headers, MinFrameLen)
}

// PutFrameHeaders writes the Ethernet, IPv4 and UDP or TCP headers of the
// frame spec describes over the start of frame, which must be FrameLen(spec)
// bytes long, and leaves the payload bytes as they are. AppendFrame is
// PutFrameHeaders over zeroed bytes; a caller rebuilding, in place, a frame
// of the same protocol whose payload it never wrote need not clear it.
func PutFrameHeaders(frame []byte, spec FrameSpec) {
	proto, _ := frameProto(spec)
	total := len(frame)
	ttl := spec.TTL
	if ttl == 0 {
		ttl = 64
	}
	eth := Ethernet{Dst: spec.DstMAC, Src: spec.SrcMAC, Type: EtherTypeIPv4}
	off := eth.SerializeTo(frame)

	ip := IPv4{
		TotalLen: uint16(total - EthernetHeaderLen),
		TTL:      ttl,
		Protocol: proto,
		Src:      spec.Flow.Src,
		Dst:      spec.Flow.Dst,
	}
	off += ip.SerializeTo(frame[off:])

	switch proto {
	case ProtoTCP:
		t := TCP{
			SrcPort: spec.Flow.SrcPort,
			DstPort: spec.Flow.DstPort,
			Seq:     spec.Seq,
			Flags:   spec.TCPFlags,
			Window:  65535,
		}
		t.SerializeTo(frame[off:])
	default:
		u := UDP{
			SrcPort: spec.Flow.SrcPort,
			DstPort: spec.Flow.DstPort,
			Length:  uint16(total - EthernetHeaderLen - IPv4HeaderLen),
		}
		u.SerializeTo(frame[off:])
	}
}

// ControlLayer is a custom event-protocol header (Probe, Echo, Report):
// a serializable layer that names the EtherType that carries it.
type ControlLayer interface {
	SerializableLayer
	// EtherType returns the EtherType of a frame carrying the layer.
	EtherType() EtherType
}

// BuildControlFrame serializes an Ethernet frame whose payload is one of
// the custom event-protocol layers, with the layer's EtherType.
func BuildControlFrame(dst, src MAC, layer ControlLayer) []byte {
	return AppendControlFrame(nil, dst, src, layer)
}

// AppendControlFrame is BuildControlFrame onto a caller-supplied buffer:
// it serializes the control frame into buf's spare capacity when it
// suffices and returns the extended slice. Identical bytes to
// BuildControlFrame.
func AppendControlFrame(dstBuf []byte, dst, src MAC, layer ControlLayer) []byte {
	total := EthernetHeaderLen + layer.SerializedLen()
	if total < MinFrameLen {
		total = MinFrameLen
	}
	dstBuf, base := grow(dstBuf, total)
	buf := dstBuf[base:]
	eth := Ethernet{Dst: dst, Src: src, Type: layer.EtherType()}
	off := eth.SerializeTo(buf)
	layer.SerializeTo(buf[off:])
	return dstBuf
}
