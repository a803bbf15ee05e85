// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock, an event scheduler, and a seeded random number
// generator. All simulated components in this repository are driven from a
// sim.Scheduler and never read the wall clock, so runs are exactly
// reproducible for a given seed and configuration.
package sim

import "fmt"

// Time is a point in virtual time measured in integer picoseconds.
//
// Picoseconds are used (rather than nanoseconds) so that the bit times of
// common line rates are exact integers: one bit at 10 Gb/s is 100 ps, at
// 25 Gb/s 40 ps, at 100 Gb/s 10 ps. A signed 64-bit count of picoseconds
// spans about 106 days, far beyond any simulation horizon used here.
type Time int64

// Common durations expressed in Time units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Forever is a sentinel Time later than any reachable simulation instant.
const Forever Time = 1<<63 - 1

// Nanoseconds returns t converted to nanoseconds, truncating toward zero.
func (t Time) Nanoseconds() int64 { return int64(t) / int64(Nanosecond) }

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders t with an adaptive unit, e.g. "1.5us" or "250ns".
func (t Time) String() string {
	switch {
	case t == Forever:
		return "forever"
	case t < 0:
		return "-" + (-t).String()
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return trimUnit(float64(t)/float64(Nanosecond), "ns")
	case t < Millisecond:
		return trimUnit(float64(t)/float64(Microsecond), "us")
	case t < Second:
		return trimUnit(float64(t)/float64(Millisecond), "ms")
	default:
		return trimUnit(float64(t)/float64(Second), "s")
	}
}

func trimUnit(v float64, unit string) string {
	s := fmt.Sprintf("%.3f", v)
	// Trim trailing zeros and a dangling decimal point.
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s + unit
}

// Rate is a transmission rate in bits per second.
type Rate int64

// Common line rates.
const (
	Kbps Rate = 1e3
	Mbps Rate = 1e6
	Gbps Rate = 1e9
)

// BitTime returns the duration of a single bit at rate r.
// It panics if r is not positive.
func (r Rate) BitTime() Time {
	if r <= 0 {
		panic("sim: BitTime of non-positive rate")
	}
	// 1 second / r bits, in picoseconds.
	return Time(int64(Second) / int64(r))
}

// ByteTime returns the duration of transmitting n bytes at rate r.
func (r Rate) ByteTime(n int) Time {
	return Time(int64(n) * 8 * int64(r.BitTime()))
}

// String renders the rate with an adaptive unit, e.g. "10Gb/s".
func (r Rate) String() string {
	switch {
	case r >= Gbps && r%Gbps == 0:
		return fmt.Sprintf("%dGb/s", r/Gbps)
	case r >= Mbps && r%Mbps == 0:
		return fmt.Sprintf("%dMb/s", r/Mbps)
	case r >= Kbps && r%Kbps == 0:
		return fmt.Sprintf("%dKb/s", r/Kbps)
	default:
		return fmt.Sprintf("%db/s", int64(r))
	}
}
