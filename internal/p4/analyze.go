package p4

import (
	"fmt"
	"sort"
)

// Static consistency analysis for multi-threaded µP4 programs.
//
// The paper's §7 leaves this open: "In an event-driven programming model
// there can be many event processing threads that share the same state.
// Defining a consistency model for multi-threaded data-plane programs
// remains an area of future work." This analyzer implements a first such
// model for the Figure 3 aggregated-register semantics: it classifies
// each control as a direct thread (packet events, timers, link/control/
// user events) or a deferred thread (traffic-manager events whose
// register updates aggregate), collects every register access, and
// reports the cross-thread hazards the semantics imply.

// HazardKind classifies an analysis finding.
type HazardKind uint8

const (
	// HazardStaleRead: a direct thread reads a register that deferred
	// threads update, so the read value lags the true value by the
	// drain backlog (bounded when the pipeline has slack). Usually
	// acceptable — the paper's heavy-hitter example — but the program
	// author should know.
	HazardStaleRead HazardKind = iota
	// HazardLostUpdate: a direct thread writes a register absolutely
	// while deferred threads add deltas to it. Deltas deferred before
	// the write but drained after it are re-applied on top of the new
	// value: the write does not fully take effect.
	HazardLostUpdate
	// HazardDeferredWrite: a deferred thread writes a register
	// absolutely. This is undefined under aggregation semantics (and
	// panics at run time), so Compile rejects it.
	HazardDeferredWrite
	// HazardDeferredRead: a deferred thread reads a register. It sees
	// the stale main value, which in particular does not include its
	// own class's pending deltas (no read-your-writes).
	HazardDeferredRead
	// HazardPortConflict: two or more direct threads access one
	// register. They share the main array's single port, so when their
	// events ride one slot every thread after the first is refused it: its
	// update is lost and its read is served without a transaction.
	HazardPortConflict
)

// String names the hazard kind.
func (k HazardKind) String() string {
	switch k {
	case HazardStaleRead:
		return "stale-read"
	case HazardLostUpdate:
		return "lost-update"
	case HazardDeferredWrite:
		return "deferred-write"
	case HazardDeferredRead:
		return "deferred-read"
	case HazardPortConflict:
		return "port-conflict"
	default:
		return fmt.Sprintf("hazard(%d)", uint8(k))
	}
}

// Hazard is one finding.
type Hazard struct {
	Kind     HazardKind
	Register string
	// Controls lists the involved control names, sorted.
	Controls []string
	// Fatal marks hazards that fail at run time (HazardDeferredWrite);
	// Compile reports the first one as an error at Pos.
	Fatal bool
	// Pos is the first offending access of a fatal hazard.
	Pos Pos
	// Msg is a human-readable explanation.
	Msg string
}

// String renders the hazard.
func (h Hazard) String() string {
	return fmt.Sprintf("%s on %q involving %v: %s", h.Kind, h.Register, h.Controls, h.Msg)
}

// regAccess describes how one control touches one register.
type regAccess struct {
	reads, adds, writes bool
	writeAt             Pos // first absolute write
}

// deferredControl reports whether a control's register updates go
// through aggregation banks under the default instantiation.
func deferredControl(name string) bool {
	kind := controlKind[name]
	for _, k := range DeferredKinds {
		if k == kind {
			return true
		}
	}
	return false
}

// Analyze inspects the compiled program's register sharing across event
// threads and returns the hazards, sorted by register then kind. The
// analysis models the aggregated Figure 3 registers every instance
// builds.
func (c *Compiled) Analyze() []Hazard {
	// access[register][control] = ops
	access := make(map[string]map[string]*regAccess)
	for _, reg := range c.file.Registers {
		access[reg.Name] = make(map[string]*regAccess)
	}
	regName := func(i int) string { return c.file.Registers[i].Name }

	var collect func(stmts []Stmt, control string)
	collect = func(stmts []Stmt, control string) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *IfStmt:
				collect(st.Then, control)
				collect(st.Else, control)
			case *CallStmt:
				var a *regAccess
				switch st.kind {
				case callRegRead, callRegWrite, callRegAdd:
					name := regName(st.reg)
					a = access[name][control]
					if a == nil {
						a = &regAccess{}
						access[name][control] = a
					}
				default:
					continue
				}
				switch st.kind {
				case callRegRead:
					a.reads = true
				case callRegWrite:
					if !a.writes {
						a.writeAt = st.Pos
					}
					a.writes = true
				case callRegAdd:
					a.adds = true
				}
			}
		}
	}
	for _, ctl := range c.file.Controls {
		collect(ctl.Body, ctl.Name)
	}

	var out []Hazard
	for reg, byControl := range access {
		var directReaders, directWriters, direct, defAdders, defWriters, defReaders []string
		for control, a := range byControl {
			if deferredControl(control) {
				if a.adds {
					defAdders = append(defAdders, control)
				}
				if a.writes {
					defWriters = append(defWriters, control)
				}
				if a.reads {
					defReaders = append(defReaders, control)
				}
				continue
			}
			direct = append(direct, control)
			if a.reads {
				directReaders = append(directReaders, control)
			}
			if a.writes {
				directWriters = append(directWriters, control)
			}
		}
		sortAll(&directReaders, &directWriters, &direct, &defAdders, &defWriters, &defReaders)

		if len(defWriters) > 0 {
			out = append(out, Hazard{
				Kind: HazardDeferredWrite, Register: reg, Controls: defWriters, Fatal: true,
				Pos: byControl[defWriters[0]].writeAt,
				Msg: "absolute writes from aggregated event threads are undefined; use .add",
			})
		}
		if len(defAdders) > 0 && len(directReaders) > 0 {
			out = append(out, Hazard{
				Kind: HazardStaleRead, Register: reg,
				Controls: merge(directReaders, defAdders),
				Msg:      "reads lag deferred updates by the drain backlog (bounded when the pipeline has slack)",
			})
		}
		if len(defAdders) > 0 && len(directWriters) > 0 {
			out = append(out, Hazard{
				Kind: HazardLostUpdate, Register: reg,
				Controls: merge(directWriters, defAdders),
				Msg:      "deltas deferred before an absolute write drain after it and partially undo the write",
			})
		}
		if len(defReaders) > 0 {
			out = append(out, Hazard{
				Kind: HazardDeferredRead, Register: reg, Controls: defReaders,
				Msg: "deferred threads read the stale main value and do not see their own pending deltas",
			})
		}
		if len(direct) > 1 {
			out = append(out, Hazard{
				Kind: HazardPortConflict, Register: reg, Controls: direct,
				Msg: "direct threads share the main array's one port; when their events ride one slot, all but the first lose their access",
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Register != out[j].Register {
			return out[i].Register < out[j].Register
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

func sortAll(lists ...*[]string) {
	for _, l := range lists {
		sort.Strings(*l)
	}
}

func merge(a, b []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range append(append([]string{}, a...), b...) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}
