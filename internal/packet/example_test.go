package packet_test

import (
	"fmt"

	"repro/internal/packet"
)

// Building a frame and decoding it back with the zero-allocation parser.
func ExampleParser_Decode() {
	flow := packet.Flow{
		Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 0, 0, 2),
		SrcPort: 5000, DstPort: 80, Proto: packet.ProtoUDP,
	}
	data := packet.BuildFrame(packet.FrameSpec{Flow: flow, TotalLen: 128})

	var p packet.Parser
	var decoded []packet.LayerType
	if err := p.Decode(data, &decoded); err != nil {
		panic(err)
	}
	fmt.Println(decoded)
	fmt.Println(p.IP.Src, "->", p.IP.Dst, "dport", p.UDP.DstPort)
	// Output:
	// [Ethernet IPv4 UDP]
	// 10.0.0.1 -> 10.0.0.2 dport 80
}

// SetTOS performs the paper's multi-bit ECN-style marking in place,
// keeping the IPv4 checksum valid.
func ExampleSetTOS() {
	data := packet.BuildFrame(packet.FrameSpec{Flow: packet.Flow{
		Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 0, 0, 2), Proto: packet.ProtoUDP,
	}})
	packet.SetTOS(data, 17) // congestion level 17
	fmt.Println(packet.TOSOf(data))
	// Output:
	// 17
}
