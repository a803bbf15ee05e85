// Package checkpoint provides versioned, deterministic serialization of
// simulator state. A checkpoint is a set of named sections, each written
// by the component that owns the state (the scheduler cannot serialize
// closures, so every component walks its own data state plus the
// (at, seq) coordinates of its pending events, and re-creates those
// events itself on load — see DESIGN.md §13).
//
// The format is fixed-width little-endian with length-prefixed byte
// strings: no varints, no maps, no reflection, so the same state always
// encodes to the same bytes. A layout is written once: a component's
// Checkpoint(c *Codec) method names its fields in order through pointers,
// and the Codec appends them when saving and assigns them when loading.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Codec walks a section's fields in one direction: NewSaver appends what
// the pointers hold, NewLoader assigns what the buffer holds. The first
// malformed read or failed shape check sets a sticky error, after which
// every method is a no-op that leaves its target untouched; callers
// check Err once at the end of a section instead of after every field.
type Codec struct {
	buf     []byte
	off     int // loading: next unread byte
	loading bool
	err     error
}

// NewSaver returns a codec that appends fields to an empty buffer.
func NewSaver() *Codec { return &Codec{} }

// NewLoader returns a codec that reads fields from buf.
func NewLoader(buf []byte) *Codec { return &Codec{buf: buf, loading: true} }

// Loading reports the direction. A walk branches on it only around a
// step the two directions genuinely do differently (re-arming an event,
// drawing a packet from a pool); the field sequence stays common.
func (c *Codec) Loading() bool { return c.loading }

// Loaded reports that the codec is loading and every field so far came
// back clean: the guard for a load-only step that acts on loaded values.
func (c *Codec) Loaded() bool { return c.loading && c.err == nil }

// Saved returns the bytes appended so far.
func (c *Codec) Saved() []byte { return c.buf }

// Err returns the sticky error, if any.
func (c *Codec) Err() error { return c.err }

// Remaining returns the number of unread bytes.
func (c *Codec) Remaining() int { return len(c.buf) - c.off }

// Fail records err (if none is recorded yet) and poisons further reads.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > len(c.buf)-c.off {
		c.err = fmt.Errorf("checkpoint: truncated section: need %d bytes at offset %d of %d", n, c.off, len(c.buf))
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// U8 walks one byte.
func (c *Codec) U8(p *uint8) {
	if !c.loading {
		c.buf = append(c.buf, *p)
	} else if b := c.take(1); c.err == nil {
		*p = b[0]
	}
}

// Bool walks a bool as one byte.
func (c *Codec) Bool(p *bool) {
	var v uint8
	if *p {
		v = 1
	}
	c.U8(&v)
	if c.Loaded() {
		*p = v != 0
	}
}

// U32 walks a uint32.
func (c *Codec) U32(p *uint32) {
	if !c.loading {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *p)
	} else if b := c.take(4); c.err == nil {
		*p = binary.LittleEndian.Uint32(b)
	}
}

// U64 walks a uint64.
func (c *Codec) U64(p *uint64) {
	if !c.loading {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *p)
	} else if b := c.take(8); c.err == nil {
		*p = binary.LittleEndian.Uint64(b)
	}
}

// I64 walks an int64. Named types over int64 (sim.Time) pass
// (*int64)(&t).
func (c *Codec) I64(p *int64) {
	v := uint64(*p)
	c.U64(&v)
	*p = int64(v)
}

// Int walks an int as an int64.
func (c *Codec) Int(p *int) {
	v := uint64(*p)
	c.U64(&v)
	*p = int(v)
}

// Bytes walks a length-prefixed byte string. Loading copies into *p's
// existing capacity, so the result never aliases the section buffer and
// a pooled buffer is reused.
func (c *Codec) Bytes(p *[]byte) {
	n := c.Len32(len(*p))
	if !c.loading {
		c.buf = append(c.buf, *p...)
	} else if b := c.take(n); c.err == nil {
		*p = append((*p)[:0], b...)
	}
}

// String walks a length-prefixed string.
func (c *Codec) String(p *string) {
	n := c.Len32(len(*p))
	if !c.loading {
		c.buf = append(c.buf, *p...)
	} else if b := c.take(n); c.err == nil {
		*p = string(b)
	}
}

// Len walks a variable length as 8 bytes: saving writes n and returns
// it, loading returns the stored length. Every record is at least one
// byte, so a stored length that is negative or exceeds the bytes left in
// the section fails the codec and comes back 0 — no count read from a
// file sizes a loop or an allocation unchecked.
func (c *Codec) Len(n int) int {
	c.Int(&n)
	return c.bounded(n)
}

// Len32 is Len for the lengths the format stores as 4 bytes.
func (c *Codec) Len32(n int) int {
	v := uint32(n)
	c.U32(&v)
	return c.bounded(int(v))
}

func (c *Codec) bounded(n int) int {
	if !c.loading {
		return n
	}
	if c.err == nil && (n < 0 || n > c.Remaining()) {
		c.err = fmt.Errorf("checkpoint: length %d at offset %d exceeds the %d bytes left in the section", n, c.off, c.Remaining())
	}
	if c.err != nil {
		return 0
	}
	return n
}

// The Fixed methods walk a datum that construction, not the run,
// decides: a count, a name, a presence flag, a key. Saving writes have;
// loading requires the stored value to equal the rebuilt object's have
// and otherwise fails the codec — state can only be poured back into an
// identically constructed object graph. what names the datum for the
// error ("tm: port 2: queues").

// FixedInt walks a fixed value stored as 8 bytes.
func (c *Codec) FixedInt(what string, have int) { fixed(c, what, have, c.Int) }

// FixedU32 walks a fixed count stored as 4 bytes.
func (c *Codec) FixedU32(what string, have int) { fixed(c, what, uint32(have), c.U32) }

// FixedU64 walks a fixed 8-byte word (a table key or mask).
func (c *Codec) FixedU64(what string, have uint64) { fixed(c, what, have, c.U64) }

// FixedU8 walks a fixed byte (an enum chosen at construction).
func (c *Codec) FixedU8(what string, have uint8) { fixed(c, what, have, c.U8) }

// FixedBool walks a fixed presence flag.
func (c *Codec) FixedBool(what string, have bool) { fixed(c, what, have, c.Bool) }

// FixedString walks a fixed name.
func (c *Codec) FixedString(what string, have string) { fixed(c, what, have, c.String) }

func fixed[T comparable](c *Codec, what string, have T, walk func(*T)) {
	got := have
	if walk(&got); got != have {
		c.Fail(fmt.Errorf("%s: snapshot has %#v, rebuilt run has %#v", what, got, have))
	}
}

// SortedKeys returns m's keys in the order a walk visits a map's entries:
// sorted, so the same state always encodes to the same bytes.
func SortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
