package packet

import "testing"

// FuzzDecode checks that the parser never panics on arbitrary frame
// bytes and that a clean decode is internally consistent. Run with
// `go test -fuzz=FuzzDecode ./internal/packet` for continuous fuzzing.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, EthernetHeaderLen))
	f.Add(BuildFrame(FrameSpec{Flow: Flow{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: ProtoUDP}}))
	f.Add(BuildFrame(FrameSpec{Flow: Flow{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: ProtoTCP}, TotalLen: 200}))
	f.Add(BuildControlFrame(Broadcast, MACFromUint64(1), &Probe{TorID: 1}))
	f.Add(BuildControlFrame(Broadcast, MACFromUint64(1), &Echo{Op: EchoRequest}))
	f.Add(BuildControlFrame(Broadcast, MACFromUint64(1), &Report{Kind: 1}))
	f.Add(arpFrame())
	// Corrupt IHL / data offset variants.
	bad := BuildFrame(FrameSpec{Flow: Flow{Src: 1, Dst: 2, Proto: ProtoUDP}})
	bad[14] = 0x4f // ihl = 15
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Parser
		var decoded []LayerType
		err := p.Decode(data, &decoded)
		if err == nil {
			// A clean decode must report at least the Ethernet layer
			// when the frame was long enough for one.
			if len(data) >= EthernetHeaderLen && len(decoded) == 0 {
				t.Fatal("no layers decoded without error")
			}
		}
		// FlowOf must agree with the parser on IP-ness and never panic.
		fl, ok := FlowOf(data)
		if ok {
			if fl.Proto == ProtoUDP || fl.Proto == ProtoTCP {
				if fl.SrcPort == 0 && fl.DstPort == 0 && fl.Src == 0 && fl.Dst == 0 {
					// Possible all-zero frame; fine.
					_ = fl
				}
			}
			// Index must stay in range for any size.
			if fl.Index(7) >= 7 {
				t.Fatal("Index out of range")
			}
		}
		_ = EtherTypeOf(data)
	})
}

// arpFrame returns a broadcast ARP request header behind EtherType 0x0806,
// which the parser does not decode.
func arpFrame() []byte {
	data := make([]byte, MinFrameLen)
	copy(data, Broadcast[:])
	data[12], data[13] = 0x08, 0x06
	copy(data[EthernetHeaderLen:], []byte{0, 1, 0x08, 0x00, 6, 4, 0, 1})
	return data
}

// flowCase is one frame of the parse-once equivalence table; the same
// frames seed FuzzParserFlow.
type flowCase struct {
	name string
	data []byte
	ok   bool // whether FlowOf finds a 5-tuple
}

func flowCases() []flowCase {
	udp := Flow{Src: IP4(10, 0, 0, 1), Dst: IP4(10, 0, 0, 2), SrcPort: 1234, DstPort: 80, Proto: ProtoUDP}
	tcp := udp
	tcp.Proto = ProtoTCP
	frame := BuildFrame
	// insert returns data with extra spliced in at off.
	insert := func(data []byte, off int, extra ...byte) []byte {
		out := append([]byte{}, data[:off]...)
		out = append(out, extra...)
		return append(out, data[off:]...)
	}
	const ip = EthernetHeaderLen // offset of the IPv4 header
	// 802.1Q tags and ARP are EtherTypes the simulator does not decode:
	// the frame is opaque payload after Ethernet and carries no flow.
	dot1q := insert(frame(FrameSpec{Flow: tcp, TotalLen: 200}), 12, 0x81, 0x00, 0x60, 0x2a)
	doubleTag := insert(dot1q, 12, 0x81, 0x00, 0x00, 0x09)
	options := insert(frame(FrameSpec{Flow: udp}), ip+IPv4HeaderLen, 1, 1, 1, 1)
	options[ip] = 0x46
	fragment := frame(FrameSpec{Flow: udp, TotalLen: 120})
	fragment[ip+6], fragment[ip+7] = 0x20, 0x10 // MF, offset 16
	shortTotal := frame(FrameSpec{Flow: udp, TotalLen: 120})
	shortTotal[ip+2], shortTotal[ip+3] = 0, IPv4HeaderLen+4
	badVersion := frame(FrameSpec{Flow: udp})
	badVersion[ip] = 0x65
	icmp := frame(FrameSpec{Flow: udp, TotalLen: 120})
	icmp[ip+9] = 1
	full := frame(FrameSpec{Flow: tcp, TotalLen: 120})

	return []flowCase{
		{"udp", frame(FrameSpec{Flow: udp}), true},
		{"tcp", full, true},
		{"dot1q", dot1q, false},
		{"double-tag", doubleTag, false},
		{"ihl6", options, true},
		{"fragment", fragment, true},
		{"total-len-inside-l4", shortTotal, true},
		{"l4-cut-after-ports", full[:ip+IPv4HeaderLen+6], true},
		{"l4-cut-inside-ports", full[:ip+IPv4HeaderLen+2], false},
		{"ip-version-6", badVersion, true},
		{"icmp", icmp, true},
		{"arp", arpFrame(), false},
		{"runt", full[:10], false},
		{"empty", nil, false},
	}
}

// FuzzParserFlow: for arbitrary bytes, the 5-tuple the slot takes from
// the parse it already ran equals the reference walk over the raw frame.
// The parser is reused across inputs, as a switch reuses its context, so
// header storage left by one frame must never leak into the next.
func FuzzParserFlow(f *testing.F) {
	for _, c := range flowCases() {
		f.Add(c.data)
	}
	var p Parser
	var decoded []LayerType
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = p.Decode(data, &decoded)
		got, ok := p.Flow(data, decoded)
		want, wantOK := FlowOf(data)
		if got != want || ok != wantOK {
			t.Fatalf("Parser.Flow = %v ok=%v, FlowOf = %v ok=%v (decoded %v)", got, ok, want, wantOK, decoded)
		}
	})
}
