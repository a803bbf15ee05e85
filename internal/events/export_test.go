package events

// Push appends an event; it returns false (and counts a drop) only when
// the event was lost. A coalesced event reports true: its state survives.
func (q *Queue) Push(e Event) bool {
	return q.OfferRef(&e) != Dropped
}

// Peek returns the oldest event without removing it.
func (q *Queue) Peek() (Event, bool) {
	if q.sz == 0 {
		return Event{}, false
	}
	return q.buf[q.head], true
}
