package pisa

// SetMeta stores a named metadata field.
func (c *Context) SetMeta(name string, v uint64) {
	if c.Meta == nil {
		c.Meta = make(map[string]uint64, 8)
	}
	c.Meta[name] = v
}

// GetMeta loads a named metadata field (zero when unset, like P4
// metadata initialized to zero).
func (c *Context) GetMeta(name string) uint64 { return c.Meta[name] }

// Len returns the number of installed entries.
func (t *Table) Len() int { return len(t.entries) }

// Size returns the number of entries.
func (c *Counter) Size() int { return len(c.packets) }

// Reset zeroes all entries.
func (c *Counter) Reset() {
	for i := range c.packets {
		c.packets[i], c.bytes[i] = 0, 0
	}
}
