package packet

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestMACRoundTrip(t *testing.T) {
	m := MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if got := MACFromUint64(m.Uint64()); got != m {
		t.Errorf("round trip = %v, want %v", got, m)
	}
	if m.String() != "de:ad:be:ef:00:01" {
		t.Errorf("String = %q", m.String())
	}
}

func TestIPRoundTrip(t *testing.T) {
	ip := IP4(10, 1, 2, 3)
	var b [4]byte
	ip.Put(b[:])
	if got := IPFromBytes(b[:]); got != ip {
		t.Errorf("round trip = %v, want %v", got, ip)
	}
	if ip.String() != "10.1.2.3" {
		t.Errorf("String = %q", ip.String())
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// Classic example header from RFC 1071 discussions.
	hdr := []byte{
		0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00,
		0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01,
		0xc0, 0xa8, 0x00, 0xc7,
	}
	sum := Checksum(hdr, 0)
	if sum != 0xb861 {
		t.Errorf("checksum = %#04x, want 0xb861", sum)
	}
	hdr[10] = byte(sum >> 8)
	hdr[11] = byte(sum)
	if got := Checksum(hdr, 0); got != 0 {
		t.Errorf("checksum over checksummed header = %#04x, want 0", got)
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	e := Ethernet{Dst: MACFromUint64(1), Src: MACFromUint64(2), Type: EtherTypeIPv4}
	buf := make([]byte, EthernetHeaderLen+4)
	n := e.SerializeTo(buf)
	if n != EthernetHeaderLen {
		t.Fatalf("SerializeTo wrote %d", n)
	}
	var d Ethernet
	if err := d.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if d.Dst != e.Dst || d.Src != e.Src || d.Type != e.Type {
		t.Errorf("decoded %+v, want %+v", d, e)
	}
	if len(d.LayerPayload()) != 4 {
		t.Errorf("payload len = %d, want 4", len(d.LayerPayload()))
	}
}

func TestEthernetTruncated(t *testing.T) {
	var d Ethernet
	err := d.DecodeFromBytes(make([]byte, 5))
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	ip := IPv4Hdr()
	buf := make([]byte, 64)
	ip.SerializeTo(buf)
	var d IPv4
	if err := d.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if d.Src != ip.Src || d.Dst != ip.Dst || d.Protocol != ip.Protocol ||
		d.TTL != ip.TTL || d.TotalLen != ip.TotalLen {
		t.Errorf("decoded %+v, want %+v", d, ip)
	}
	if Checksum(buf[:IPv4HeaderLen], 0) != 0 {
		t.Error("checksum did not verify")
	}
	buf[9] ^= 0xff // corrupt protocol
	if Checksum(buf[:IPv4HeaderLen], 0) == 0 {
		t.Error("corrupted header verified")
	}
}

// IPv4Hdr returns a representative IPv4 header for tests.
func IPv4Hdr() IPv4 {
	return IPv4{
		TOS: 0, TotalLen: 50, ID: 7, TTL: 63,
		Protocol: ProtoUDP,
		Src:      IP4(10, 0, 0, 1), Dst: IP4(10, 0, 0, 2),
	}
}

func TestIPv4BadVersion(t *testing.T) {
	buf := make([]byte, IPv4HeaderLen)
	buf[0] = 0x65 // version 6
	var d IPv4
	if err := d.DecodeFromBytes(buf); !errors.Is(err, ErrBadField) {
		t.Errorf("err = %v, want ErrBadField", err)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	u := UDP{SrcPort: 1234, DstPort: 53, Length: 20}
	buf := make([]byte, 20)
	u.SerializeTo(buf)
	var d UDP
	if err := d.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if d.SrcPort != 1234 || d.DstPort != 53 || d.Length != 20 {
		t.Errorf("decoded %+v", d)
	}
	if len(d.LayerPayload()) != 12 {
		t.Errorf("payload = %d bytes, want 12", len(d.LayerPayload()))
	}
}

func TestTCPRoundTrip(t *testing.T) {
	c := TCP{SrcPort: 80, DstPort: 4321, Seq: 99, Ack: 100, Flags: TCPSyn | TCPAck, Window: 1024}
	buf := make([]byte, TCPHeaderLen)
	c.SerializeTo(buf)
	var d TCP
	if err := d.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if d.SrcPort != 80 || d.DstPort != 4321 || d.Seq != 99 || d.Ack != 100 ||
		d.Flags != TCPSyn|TCPAck || d.Window != 1024 {
		t.Errorf("decoded %+v", d)
	}
}

func TestProbeRoundTrip(t *testing.T) {
	p := Probe{TorID: 3, PathID: 9, MaxUtil: 123456, Hops: 2, Seq: 77}
	buf := make([]byte, ProbeLen)
	p.SerializeTo(buf)
	var d Probe
	if err := d.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if d.TorID != 3 || d.PathID != 9 || d.MaxUtil != 123456 || d.Hops != 2 || d.Seq != 77 {
		t.Errorf("decoded %+v", d)
	}
}

func TestEchoRoundTrip(t *testing.T) {
	e := Echo{Op: EchoReply, Port: 2, Seq: 1000, Origin: 42}
	buf := make([]byte, EchoLen)
	e.SerializeTo(buf)
	var d Echo
	if err := d.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if d != e {
		t.Errorf("decoded %+v, want %+v", d, e)
	}
	buf[0] = 99
	if err := d.DecodeFromBytes(buf); !errors.Is(err, ErrBadField) {
		t.Errorf("bad op err = %v", err)
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := Report{Kind: ReportMicroburst, Switch: 5, Seq: 8, V0: 1 << 40, V1: 9, V2: 3}
	buf := make([]byte, ReportHdrLen)
	r.SerializeTo(buf)
	var d Report
	if err := d.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if d.Kind != r.Kind || d.Switch != r.Switch || d.Seq != r.Seq ||
		d.V0 != r.V0 || d.V1 != r.V1 || d.V2 != r.V2 {
		t.Errorf("decoded %+v, want %+v", d, r)
	}
}

func TestBuildFrameUDPParses(t *testing.T) {
	f := Flow{Src: IP4(10, 0, 0, 1), Dst: IP4(10, 0, 0, 2), SrcPort: 5000, DstPort: 6000, Proto: ProtoUDP}
	data := BuildFrame(FrameSpec{
		DstMAC: MACFromUint64(2), SrcMAC: MACFromUint64(1),
		Flow: f, TotalLen: 200,
	})
	if len(data) != 200 {
		t.Fatalf("frame len = %d, want 200", len(data))
	}
	var p Parser
	var decoded []LayerType
	if err := p.Decode(data, &decoded); err != nil {
		t.Fatal(err)
	}
	want := []LayerType{LayerEthernet, LayerIPv4, LayerUDP}
	if len(decoded) != len(want) {
		t.Fatalf("decoded %v, want %v", decoded, want)
	}
	for i := range want {
		if decoded[i] != want[i] {
			t.Fatalf("decoded %v, want %v", decoded, want)
		}
	}
	if p.IP.Src != f.Src || p.UDP.DstPort != 6000 {
		t.Errorf("fields wrong: %+v %+v", p.IP, p.UDP)
	}
	got, ok := FlowOf(data)
	if !ok || got != f {
		t.Errorf("FlowOf = %v ok=%v, want %v", got, ok, f)
	}
}

func TestBuildFrameTCP(t *testing.T) {
	f := Flow{Src: IP4(1, 1, 1, 1), Dst: IP4(2, 2, 2, 2), SrcPort: 10, DstPort: 20, Proto: ProtoTCP}
	data := BuildFrame(FrameSpec{Flow: f, TCPFlags: TCPSyn, Seq: 42})
	if len(data) != MinFrameLen {
		t.Fatalf("frame len = %d, want %d (min padding)", len(data), MinFrameLen)
	}
	var p Parser
	var decoded []LayerType
	if err := p.Decode(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if p.TCP.Flags != TCPSyn || p.TCP.Seq != 42 {
		t.Errorf("tcp = %+v", p.TCP)
	}
	got, ok := FlowOf(data)
	if !ok || got != f {
		t.Errorf("FlowOf = %v, want %v", got, f)
	}
}

func TestBuildControlFrames(t *testing.T) {
	cases := []ControlLayer{
		&Probe{TorID: 1, MaxUtil: 5},
		&Echo{Op: EchoRequest, Seq: 3, Origin: 7},
		&Report{Kind: ReportBufferSample, V0: 11},
	}
	wantNext := []LayerType{LayerProbe, LayerEcho, LayerReport}
	for i, layer := range cases {
		data := BuildControlFrame(MACFromUint64(9), MACFromUint64(8), layer)
		if len(data) < MinFrameLen {
			t.Errorf("case %d: frame too short: %d", i, len(data))
		}
		var p Parser
		var decoded []LayerType
		if err := p.Decode(data, &decoded); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(decoded) != 2 || decoded[1] != wantNext[i] {
			t.Errorf("case %d: decoded %v, want [Ethernet %v]", i, decoded, wantNext[i])
		}
		if _, ok := FlowOf(data); ok {
			t.Errorf("case %d: FlowOf claimed non-IP frame is a flow", i)
		}
	}
}

func TestParserTruncatedMidStack(t *testing.T) {
	f := Flow{Src: IP4(1, 1, 1, 1), Dst: IP4(2, 2, 2, 2), SrcPort: 1, DstPort: 2, Proto: ProtoUDP}
	data := BuildFrame(FrameSpec{Flow: f})
	var p Parser
	var decoded []LayerType
	if err := p.Decode(data[:EthernetHeaderLen+10], &decoded); err == nil {
		t.Fatal("expected truncation error")
	}
	if !p.Truncated {
		t.Error("Truncated flag not set")
	}
	if len(decoded) != 1 || decoded[0] != LayerEthernet {
		t.Errorf("decoded %v, want [Ethernet]", decoded)
	}
}

func TestPacketLen(t *testing.T) {
	if (&Packet{Empty: true, Data: []byte{1}}).Len() != 0 {
		t.Error("empty packet should have zero length")
	}
	var nilPkt *Packet
	if nilPkt.Len() != 0 {
		t.Error("nil packet length")
	}
}

func TestFlowHashDirectionSensitive(t *testing.T) {
	fl := Flow{Src: IP4(1, 0, 0, 1), Dst: IP4(1, 0, 0, 2), SrcPort: 5, DstPort: 6, Proto: ProtoUDP}
	if fl.Hash() == fl.Reverse().Hash() {
		t.Error("directional Hash matched for reversed flow (unlikely collision)")
	}
}

func TestFlowIndexInRange(t *testing.T) {
	f := func(a, b uint32, sp uint16, n uint16) bool {
		size := int(n%1024) + 1
		fl := Flow{Src: IP(a), Dst: IP(b), SrcPort: sp, Proto: ProtoUDP}
		return int(fl.Index(size)) < size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlowHashDistribution(t *testing.T) {
	// Flow hashes over a register array should spread: no bucket of 64
	// should take more than 5% of 4096 sequential flows.
	const buckets = 64
	counts := make([]int, buckets)
	for i := 0; i < 4096; i++ {
		fl := Flow{
			Src: IP4(10, 0, byte(i>>8), byte(i)), Dst: IP4(10, 1, 0, 1),
			SrcPort: uint16(1000 + i), DstPort: 80, Proto: ProtoTCP,
		}
		counts[fl.Index(buckets)]++
	}
	for i, c := range counts {
		if c > 4096/20 {
			t.Errorf("bucket %d has %d of 4096 flows", i, c)
		}
	}
}

func TestEtherTypeOf(t *testing.T) {
	data := BuildFrame(FrameSpec{Flow: Flow{Src: 1, Dst: 2, Proto: ProtoUDP}})
	if got := EtherTypeOf(data); got != EtherTypeIPv4 {
		t.Errorf("EtherTypeOf = %v", got)
	}
	if got := EtherTypeOf(nil); got != 0 {
		t.Errorf("EtherTypeOf(nil) = %v, want 0", got)
	}
}

func TestLayerTypeStrings(t *testing.T) {
	for lt := LayerEthernet; lt <= LayerPayload; lt++ {
		if lt.String() == "" {
			t.Errorf("LayerType(%d) has empty name", lt)
		}
	}
}

// TestParserFlowMatchesFlowOf: the flow read from the decoded layers is
// FlowOf's on every stack shape, including the ones where the layer
// decoders and FlowOf disagree about how much header is enough, and on a
// parser still holding the previous frame's headers.
func TestParserFlowMatchesFlowOf(t *testing.T) {
	var p Parser // one parser for every case, in order: stale storage is part of the test
	var dec []LayerType
	for _, c := range flowCases() {
		_ = p.Decode(c.data, &dec)
		got, ok := p.Flow(c.data, dec)
		want, wantOK := FlowOf(c.data)
		if got != want || ok != wantOK {
			t.Errorf("%s: Parser.Flow = %v ok=%v, FlowOf = %v ok=%v (decoded %v)", c.name, got, ok, want, wantOK, dec)
		}
		if wantOK != c.ok {
			t.Errorf("%s: FlowOf ok=%v, the case is meant to be ok=%v", c.name, wantOK, c.ok)
		}
	}
}
