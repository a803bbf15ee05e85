package pisa

import (
	"fmt"
	"sort"

	"repro/internal/events"
)

// Program is a complete data-plane program: one Control per handled event
// kind plus the named tables and externs they use. It is the unit loaded
// into a switch (internal/core) and manipulated by the control plane
// (internal/controlplane).
//
// A program for a baseline PISA architecture binds only packet events;
// the architecture a program is loaded onto validates that it supports
// every bound event kind.
type Program struct {
	name      string
	handlers  [events.NumKinds]Control
	tables    map[string]*Table
	registers map[string]*SharedRegister
	regList   []*SharedRegister // insertion order, for deterministic iteration
	counters  map[string]*Counter
}

// NewProgram returns an empty program.
func NewProgram(name string) *Program {
	return &Program{
		name:      name,
		tables:    make(map[string]*Table),
		registers: make(map[string]*SharedRegister),
		counters:  make(map[string]*Counter),
	}
}

// Name returns the program name.
func (p *Program) Name() string { return p.name }

// Handle binds a control to an event kind. Binding twice replaces the
// previous control.
func (p *Program) Handle(k events.Kind, c Control) *Program {
	p.handlers[k] = c
	return p
}

// HandleFunc binds a function to an event kind.
func (p *Program) HandleFunc(k events.Kind, f func(*Context)) *Program {
	return p.Handle(k, ControlFunc(f))
}

// Handler returns the control bound to kind k, or nil.
func (p *Program) Handler(k events.Kind) Control { return p.handlers[k] }

// Handles reports whether the program handles event kind k.
func (p *Program) Handles(k events.Kind) bool { return p.handlers[k] != nil }

// HandledKinds lists the event kinds the program binds, in kind order.
func (p *Program) HandledKinds() []events.Kind {
	var ks []events.Kind
	for k := 0; k < events.NumKinds; k++ {
		if p.handlers[k] != nil {
			ks = append(ks, events.Kind(k))
		}
	}
	return ks
}

// AddTable registers a named table. Duplicate names panic: they are
// program bugs.
func (p *Program) AddTable(t *Table) *Table {
	if _, dup := p.tables[t.Name()]; dup {
		// µP4 source cannot reach this: check.go's `duplicate table` rule
		// rejects the program first.
		panic(fmt.Sprintf("pisa: duplicate table %q in program %q", t.Name(), p.name))
	}
	p.tables[t.Name()] = t
	return t
}

// Table looks up a table by name (nil if absent).
func (p *Program) Table(name string) *Table { return p.tables[name] }

// AddRegister registers a named shared register.
func (p *Program) AddRegister(r *SharedRegister) *SharedRegister {
	if _, dup := p.registers[r.Name()]; dup {
		// µP4 source cannot reach this: check.go's `duplicate register`
		// rule rejects the program first.
		panic(fmt.Sprintf("pisa: duplicate register %q in program %q", r.Name(), p.name))
	}
	p.registers[r.Name()] = r
	p.regList = append(p.regList, r)
	return r
}

// Register looks up a shared register by name (nil if absent).
func (p *Program) Register(name string) *SharedRegister { return p.registers[name] }

// Registers lists the shared registers in insertion order.
func (p *Program) Registers() []*SharedRegister { return p.regList }

// AddCounter registers a named counter.
func (p *Program) AddCounter(c *Counter) *Counter {
	if _, dup := p.counters[c.Name()]; dup {
		// µP4 source cannot reach this: check.go's `duplicate counter`
		// rule rejects the program first.
		panic(fmt.Sprintf("pisa: duplicate counter %q in program %q", c.Name(), p.name))
	}
	p.counters[c.Name()] = c
	return c
}

// Counter looks up a counter by name (nil if absent).
func (p *Program) Counter(name string) *Counter { return p.counters[name] }

// TableNames lists registered tables, sorted.
func (p *Program) TableNames() []string {
	var names []string
	for n := range p.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Tick advances every shared register to the given pipeline cycle. The
// switch core calls it once per cycle before executing the slot.
func (p *Program) Tick(cycle uint64) {
	for _, r := range p.regList {
		r.Tick(cycle)
	}
}

// EndCycle lets every shared register drain aggregated updates with the
// cycle's leftover bandwidth. The switch core calls it after the slot.
func (p *Program) EndCycle() {
	for _, r := range p.regList {
		r.EndCycle()
	}
}

// Apply runs the handler for the context's event kind, if bound.
func (p *Program) Apply(ctx *Context) {
	if h := p.handlers[ctx.Ev.Kind]; h != nil {
		h.Apply(ctx)
	}
}
