package packet

import "encoding/binary"

// In-place frame mutation helpers used by data-plane programs that
// rewrite headers: multi-bit ECN-style marking (paper §3: "variants of
// ECN marking, with packets carrying multiple bits rather than just one,
// to communicate queue occupancy along the path") and NDP-style packet
// trimming. All helpers keep the IPv4 header checksum correct.

// ipOffset returns the byte offset of the IPv4 header in the frame, or
// -1 for non-IP frames.
func ipOffset(data []byte) int {
	if len(data) < EthernetHeaderLen+IPv4HeaderLen || EtherTypeOf(data) != EtherTypeIPv4 {
		return -1
	}
	return EthernetHeaderLen
}

// fixChecksum16 incrementally updates an IPv4 header checksum after a
// 16-bit word at the given header offset changed from old to new
// (RFC 1624 method).
func fixChecksum16(hdr []byte, old, new uint16) {
	sum := uint32(^binary.BigEndian.Uint16(hdr[10:12])) & 0xffff
	sum += uint32(^old) & 0xffff
	sum += uint32(new)
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	binary.BigEndian.PutUint16(hdr[10:12], ^uint16(sum))
}

// SetTOS rewrites the IPv4 TOS byte in place (fixing the header
// checksum) and returns true, or returns false for non-IP frames. The
// full 8-bit field is writable, so programs can carry multi-bit
// congestion values, not just the single ECN-CE bit.
func SetTOS(data []byte, tos uint8) bool {
	off := ipOffset(data)
	if off < 0 {
		return false
	}
	hdr := data[off:]
	oldWord := binary.BigEndian.Uint16(hdr[0:2]) // version/ihl + tos
	hdr[1] = tos
	newWord := binary.BigEndian.Uint16(hdr[0:2])
	fixChecksum16(hdr, oldWord, newWord)
	return true
}

// Trim truncates an IPv4 frame to its headers only (Ethernet + IP +
// transport header), the NDP-style "cut payload" operation, and
// updates the IP total length and checksum. It returns the trimmed frame
// (a prefix of the input slice) and true, or the input unchanged and
// false when the frame is non-IP or already header-only.
func Trim(data []byte) ([]byte, bool) {
	off := ipOffset(data)
	if off < 0 {
		return data, false
	}
	hdr := data[off:]
	ihl := int(hdr[0]&0x0f) * 4
	if len(hdr) < ihl+4 {
		return data, false
	}
	transport := 0
	switch IPProto(hdr[9]) {
	case ProtoUDP:
		transport = UDPHeaderLen
	case ProtoTCP:
		if len(hdr) < ihl+13 {
			return data, false
		}
		transport = int(hdr[ihl+12]>>4) * 4
	default:
		transport = 0
	}
	keep := off + ihl + transport
	if keep >= len(data) {
		return data, false
	}
	oldLen := binary.BigEndian.Uint16(hdr[2:4])
	newLen := uint16(ihl + transport)
	binary.BigEndian.PutUint16(hdr[2:4], newLen)
	fixChecksum16(hdr, oldLen, newLen)
	return data[:keep], true
}
