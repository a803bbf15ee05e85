package pisa

import "repro/internal/checkpoint"

// Checkpoint walks the register: the backing memories (main array and
// aggregation banks, or the multi-ported array), per-kind transaction
// cycles, and the conflict counters.
func (r *SharedRegister) Checkpoint(c *checkpoint.Codec) {
	c.FixedBool("pisa: register "+r.name+": aggregated", r.agg != nil)
	if r.agg != nil {
		r.agg.Checkpoint(c)
	} else {
		r.arr.Checkpoint(c)
	}
	for i := range r.heldCycle {
		c.U64(&r.heldCycle[i])
	}
	c.U64(&r.conflicts)
	c.U64(&r.staleRead)
}

// Checkpoint walks the counter array.
func (ct *Counter) Checkpoint(c *checkpoint.Codec) {
	c.FixedU32("pisa: counter "+ct.name+": entries", len(ct.packets))
	for i := range ct.packets {
		c.U64(&ct.packets[i])
		c.U64(&ct.bytes[i])
	}
}

// Checkpoint walks the table's mutable state: lookup counters and, per
// entry, the match key tuple with its hit count and parameters. Action
// functions cannot be serialized, so the key tuple (values, masks,
// priority) is fixed: entries must appear in the same order with the
// same keys in the rebuilt table, parameters and hit counts are loaded,
// actions stay as constructed. A table whose entry set was mutated at
// runtime after construction therefore cannot be restored (documented
// limitation, DESIGN.md §13).
func (t *Table) Checkpoint(c *checkpoint.Codec) {
	what := "pisa: table " + t.name
	key, params := what+": entry key (values, masks, priority)", what+": entry params"
	c.U64(&t.lookups)
	c.U64(&t.misses)
	c.FixedU32(what+": entries (runtime entry mutation is not checkpointable)", len(t.entries))
	for _, en := range t.entries {
		c.FixedU32(key, len(en.Values))
		for _, v := range en.Values {
			c.FixedU64(key, v)
		}
		c.FixedBool(key, en.Masks != nil)
		for _, m := range en.Masks {
			c.FixedU64(key, m)
		}
		c.FixedInt(key, en.Priority)
		c.FixedU32(params, len(en.Params))
		for i := range en.Params {
			c.U64(&en.Params[i])
		}
		c.U64(&en.hits)
	}
}

// Checkpoint walks every stateful extern of the program: shared
// registers (insertion order), then tables and counters (sorted by name),
// each under its fixed name. Handlers are code, not state — the load path
// rebuilds them by re-running the program's construction. The v1 layout
// ends with a meter count; programs have no meters, so it is always zero.
func (p *Program) Checkpoint(c *checkpoint.Codec) {
	c.FixedString("pisa: program", p.name)
	what := "pisa: program " + p.name
	c.FixedU32(what+": registers", len(p.regList))
	for _, r := range p.regList {
		c.FixedString(what+": register", r.Name())
		r.Checkpoint(c)
	}
	checkpointNamed(c, what+": table", p.tables)
	checkpointNamed(c, what+": counter", p.counters)
	c.FixedU32(what+": meters", 0)
}

func checkpointNamed[T interface{ Checkpoint(*checkpoint.Codec) }](c *checkpoint.Codec, what string, m map[string]T) {
	names := checkpoint.SortedKeys(m)
	c.FixedU32(what+"s", len(names))
	for _, n := range names {
		c.FixedString(what, n)
		m[n].Checkpoint(c)
	}
}
