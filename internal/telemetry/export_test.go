package telemetry

// Offered sums the four outcome counters.
func (qc QueueCounters) Offered() uint64 {
	return qc.Stored.Value() + qc.Coalesced.Value() + qc.Shed.Value() + qc.Dropped.Value()
}
