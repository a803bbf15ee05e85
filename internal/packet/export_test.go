package packet

// TOSOf reads the IPv4 TOS byte, or 0 for non-IP frames.
func TOSOf(data []byte) uint8 {
	off := ipOffset(data)
	if off < 0 {
		return 0
	}
	return data[off+1]
}
