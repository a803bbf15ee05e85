package sim

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. At equal timestamps the wire band fires first; ordinary
// events and lanes then interleave by shared sequence number. It returns
// false when no events remain.
func (s *Scheduler) Step() bool { return s.stepBounded(Forever, false) }
