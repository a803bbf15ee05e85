package pisa

import (
	"fmt"
	"sort"
)

// MatchKind is how one key field of a table matches.
type MatchKind uint8

// Match kinds supported by PISA tables.
const (
	// Exact requires equality.
	Exact MatchKind = iota
	// LPM matches the longest prefix (contiguous high-bit mask).
	LPM
	// Ternary matches under an arbitrary mask with explicit priority.
	Ternary
)

// String names the match kind.
func (k MatchKind) String() string {
	switch k {
	case Exact:
		return "exact"
	case LPM:
		return "lpm"
	case Ternary:
		return "ternary"
	default:
		return fmt.Sprintf("matchkind(%d)", uint8(k))
	}
}

// ActionFunc is a table action: it runs with the entry's compile-time
// parameter list.
type ActionFunc func(ctx *Context, params []uint64)

// KeyFunc extracts the table's key fields from the context into dst,
// which has one slot per key field. It returns false when the key is not
// derivable (e.g. a non-IP packet for an IP table), in which case the
// default action runs.
type KeyFunc func(ctx *Context, dst []uint64) bool

// Entry is one table entry.
type Entry struct {
	// Values are the match values, one per key field.
	Values []uint64
	// Masks are per-field bit masks: ^0 for exact fields; for LPM fields
	// the contiguous prefix mask; arbitrary for ternary. A nil Masks
	// means all fields exact.
	Masks []uint64
	// Priority orders overlapping entries (higher wins). AddEntry
	// assigns LPM priorities automatically from prefix length.
	Priority int
	// Action and Params bind the entry's action.
	Action ActionFunc
	Params []uint64

	hits uint64
}

// Table is a match-action table: key definition, entry list, and default
// action. Lookup order is by descending priority, then insertion order.
type Table struct {
	name    string
	kinds   []MatchKind
	keyFn   KeyFunc
	entries []*Entry

	defaultAction ActionFunc
	defaultParams []uint64

	scratch    []uint64
	keyBuf     []byte // reused lookup key encoding; never retained
	lookups    uint64
	misses     uint64
	exactIndex map[string]*Entry // fast path when all fields Exact
	allExact   bool
}

// NewTable builds a table with the given per-field match kinds and key
// extractor. The default action is a no-op until SetDefault.
func NewTable(name string, kinds []MatchKind, keyFn KeyFunc) *Table {
	allExact := true
	for _, k := range kinds {
		if k != Exact {
			allExact = false
		}
	}
	t := &Table{
		name:     name,
		kinds:    kinds,
		keyFn:    keyFn,
		scratch:  make([]uint64, len(kinds)),
		allExact: allExact,
	}
	if allExact {
		t.exactIndex = make(map[string]*Entry)
		t.keyBuf = make([]byte, 0, len(kinds)*8)
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// SetDefault installs the default (miss) action.
func (t *Table) SetDefault(a ActionFunc, params ...uint64) {
	t.defaultAction = a
	t.defaultParams = params
}

// appendExactKey encodes the key values big-endian into dst. Apply
// reuses the table's keyBuf and indexes the map with a direct
// string(...) conversion, which Go compiles to an allocation-free
// lookup; only entry installation materializes a real string.
func appendExactKey(dst []byte, values []uint64) []byte {
	for _, v := range values {
		for s := 56; s >= 0; s -= 8 {
			dst = append(dst, byte(v>>uint(s)))
		}
	}
	return dst
}

func exactKey(values []uint64) string {
	return string(appendExactKey(make([]byte, 0, len(values)*8), values))
}

// AddEntry installs an entry. For tables whose fields are all Exact, a
// duplicate key replaces the previous entry. For LPM fields the entry's
// Masks must hold the prefix masks, and priority defaults to the total
// number of mask bits when zero.
func (t *Table) AddEntry(e *Entry) error {
	if len(e.Values) != len(t.kinds) {
		return fmt.Errorf("pisa: table %s: entry has %d values, key has %d fields",
			t.name, len(e.Values), len(t.kinds))
	}
	if e.Masks != nil && len(e.Masks) != len(t.kinds) {
		return fmt.Errorf("pisa: table %s: entry has %d masks, key has %d fields",
			t.name, len(e.Masks), len(t.kinds))
	}
	if e.Action == nil {
		return fmt.Errorf("pisa: table %s: entry without action", t.name)
	}
	if e.Priority == 0 && e.Masks != nil {
		for _, m := range e.Masks {
			for b := m; b != 0; b >>= 1 {
				if b&1 == 1 {
					e.Priority++
				}
			}
		}
	}
	if t.allExact {
		k := exactKey(e.Values)
		if old, ok := t.exactIndex[k]; ok {
			*old = *e
			return nil
		}
		t.exactIndex[k] = e
	}
	t.entries = append(t.entries, e)
	sort.SliceStable(t.entries, func(i, j int) bool {
		return t.entries[i].Priority > t.entries[j].Priority
	})
	return nil
}

// Apply looks up the key and runs the matching entry's action (or the
// default action on miss). It reports whether an entry hit.
func (t *Table) Apply(ctx *Context) bool {
	t.lookups++
	if t.keyFn == nil || !t.keyFn(ctx, t.scratch) {
		return t.miss(ctx)
	}
	if t.allExact {
		t.keyBuf = appendExactKey(t.keyBuf[:0], t.scratch)
		if e, ok := t.exactIndex[string(t.keyBuf)]; ok {
			e.hits++
			e.Action(ctx, e.Params)
			return true
		}
		return t.miss(ctx)
	}
	for _, e := range t.entries {
		if t.matches(e) {
			e.hits++
			e.Action(ctx, e.Params)
			return true
		}
	}
	return t.miss(ctx)
}

func (t *Table) miss(ctx *Context) bool {
	t.misses++
	if t.defaultAction != nil {
		t.defaultAction(ctx, t.defaultParams)
	}
	return false
}

func (t *Table) matches(e *Entry) bool {
	for i, k := range t.kinds {
		switch k {
		case Exact:
			if t.scratch[i] != e.Values[i] {
				return false
			}
		default: // LPM, Ternary
			var m uint64 = ^uint64(0)
			if e.Masks != nil {
				m = e.Masks[i]
			}
			if t.scratch[i]&m != e.Values[i]&m {
				return false
			}
		}
	}
	return true
}

// Stats returns lookup and miss counts.
func (t *Table) Stats() (lookups, misses uint64) { return t.lookups, t.misses }

// PrefixMask returns the mask for an IPv4-style prefix of the given
// length over a w-bit field.
func PrefixMask(prefixLen, w int) uint64 {
	if prefixLen <= 0 {
		return 0
	}
	if prefixLen >= w {
		if w >= 64 {
			return ^uint64(0)
		}
		return (1<<uint(w) - 1)
	}
	return ((1<<uint(prefixLen) - 1) << uint(w-prefixLen))
}
