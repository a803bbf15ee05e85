package packet

import (
	"testing"
	"testing/quick"
)

func mutFrame(size int, proto IPProto) []byte {
	return BuildFrame(FrameSpec{
		Flow: Flow{Src: IP4(10, 0, 0, 1), Dst: IP4(10, 0, 0, 2),
			SrcPort: 5, DstPort: 6, Proto: proto},
		TotalLen: size,
	})
}

func checksumOK(t *testing.T, data []byte) {
	t.Helper()
	off := ipOffset(data)
	if off < 0 {
		t.Fatal("not IP")
	}
	if Checksum(data[off:off+IPv4HeaderLen], 0) != 0 {
		t.Fatal("IP checksum invalid after mutation")
	}
}

func TestSetTOS(t *testing.T) {
	data := mutFrame(200, ProtoUDP)
	if !SetTOS(data, 0xa7) {
		t.Fatal("SetTOS failed on IP frame")
	}
	if TOSOf(data) != 0xa7 {
		t.Errorf("TOS = %#x", TOSOf(data))
	}
	checksumOK(t, data)
	// Still parses and still the same flow.
	var p Parser
	var dec []LayerType
	if err := p.Decode(data, &dec); err != nil {
		t.Fatal(err)
	}
	if p.IP.TOS != 0xa7 {
		t.Errorf("parsed TOS = %#x", p.IP.TOS)
	}
	if _, ok := FlowOf(data); !ok {
		t.Error("flow lost")
	}
}

func TestSetTOSNonIP(t *testing.T) {
	data := BuildControlFrame(Broadcast, MACFromUint64(1), &Echo{Op: EchoRequest})
	if SetTOS(data, 1) {
		t.Error("SetTOS succeeded on non-IP frame")
	}
	if TOSOf(data) != 0 {
		t.Error("TOSOf non-IP should be 0")
	}
}

func TestSetTOSChecksumProperty(t *testing.T) {
	// Property: any TOS value keeps the checksum valid.
	f := func(tos uint8, size uint16) bool {
		n := 60 + int(size%1400)
		data := mutFrame(n, ProtoUDP)
		SetTOS(data, tos)
		off := ipOffset(data)
		return Checksum(data[off:off+IPv4HeaderLen], 0) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTrimUDP(t *testing.T) {
	data := mutFrame(1500, ProtoUDP)
	trimmed, ok := Trim(data)
	if !ok {
		t.Fatal("Trim failed")
	}
	want := EthernetHeaderLen + IPv4HeaderLen + UDPHeaderLen
	if len(trimmed) != want {
		t.Errorf("trimmed to %d, want %d", len(trimmed), want)
	}
	checksumOK(t, trimmed)
	// Headers still parse and the flow survives.
	fl, ok := FlowOf(trimmed)
	if !ok || fl.DstPort != 6 {
		t.Errorf("flow after trim = %v ok=%v", fl, ok)
	}
	var p Parser
	var dec []LayerType
	if err := p.Decode(trimmed, &dec); err != nil {
		t.Fatal(err)
	}
	if int(p.IP.TotalLen) != IPv4HeaderLen+UDPHeaderLen {
		t.Errorf("IP total len = %d", p.IP.TotalLen)
	}
}

func TestTrimTCPAndIdempotent(t *testing.T) {
	data := mutFrame(1000, ProtoTCP)
	trimmed, ok := Trim(data)
	if !ok {
		t.Fatal("Trim failed on TCP")
	}
	if len(trimmed) != EthernetHeaderLen+IPv4HeaderLen+TCPHeaderLen {
		t.Errorf("trimmed to %d", len(trimmed))
	}
	// Trimming an already header-only frame is a no-op.
	again, ok := Trim(trimmed)
	if ok {
		t.Error("second trim claimed to trim")
	}
	if len(again) != len(trimmed) {
		t.Error("second trim changed length")
	}
}

func TestTrimNonIP(t *testing.T) {
	data := BuildControlFrame(Broadcast, MACFromUint64(1), &Probe{})
	if _, ok := Trim(data); ok {
		t.Error("Trim succeeded on non-IP frame")
	}
}
