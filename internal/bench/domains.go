package bench

import (
	"strconv"
	"sync/atomic"
)

// domainCount is the intra-trial parallelism knob: how many partition
// domains topology experiments split their switches across. 1 = the
// single-scheduler engine. Mirrors the Parallelism knob (which spreads
// whole trials across workers); the two compose.
var domainCount atomic.Int32

func init() { domainCount.Store(1) }

// SetDomains sets the number of partition domains topology experiments
// use (clamped to at least 1). Output is byte-identical for every value;
// only wall-clock time changes.
func SetDomains(n int) {
	if n < 1 {
		n = 1
	}
	domainCount.Store(int32(n))
}

// Domains returns the current domain count.
func Domains() int { return int(domainCount.Load()) }

// DomainsLabel renders the setting for status output and journal
// headers.
func DomainsLabel() string { return strconv.Itoa(Domains()) }
