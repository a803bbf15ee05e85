package netsim

// Lost returns the total frames lost to link failures (both at send and
// mid-flight; impairment drops are counted separately in Dropped).
func (l *Link) Lost() uint64 { return l.LostAtSend() + l.LostInFlight() }

// Up reports the link state (both endpoint views; between a partitioned
// run's windows the views may transiently differ by one transition).
func (l *Link) Up() bool { return l.sideUp[0] && l.sideUp[1] }
