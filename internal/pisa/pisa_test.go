package pisa

import (
	"testing"
	"testing/quick"

	"repro/internal/events"
	"repro/internal/packet"
)

func newCtx(kind events.Kind, cycle uint64) *Context {
	ctx := &Context{}
	ctx.Reset(nil, &events.Event{Kind: kind}, 0, cycle)
	return ctx
}

func TestContextReset(t *testing.T) {
	ctx := &Context{}
	ctx.Reset(nil, &events.Event{Kind: events.IngressPacket}, 5, 9)
	ctx.SetMeta("x", 7)
	ctx.Emit([]byte{1}, 2)
	ctx.RaiseUser(3)
	ctx.EgressPort = 4
	ctx.Reset(nil, &events.Event{Kind: events.BufferEnqueue}, 6, 10)
	if ctx.GetMeta("x") != 0 {
		t.Error("meta survived reset")
	}
	if len(ctx.Generated) != 0 || len(ctx.Raised) != 0 {
		t.Error("generated/raised survived reset")
	}
	if ctx.EgressPort != PortDrop {
		t.Error("egress port not reset to drop")
	}
	if ctx.Ev.Kind != events.BufferEnqueue || ctx.Cycle != 10 {
		t.Error("event not installed")
	}
}

func TestContextHelpers(t *testing.T) {
	ctx := newCtx(events.IngressPacket, 0)
	ctx.Decoded = append(ctx.Decoded, packet.LayerEthernet, packet.LayerIPv4)
	if !ctx.Has(packet.LayerIPv4) || ctx.Has(packet.LayerTCP) {
		t.Error("Has wrong")
	}
	ctx.RaiseUser(42)
	if len(ctx.Raised) != 1 || ctx.Raised[0].Kind != events.UserEvent || ctx.Raised[0].Data != 42 {
		t.Errorf("raised = %+v", ctx.Raised)
	}
	ctx.Drop()
	if ctx.EgressPort != PortDrop {
		t.Error("Drop did not set PortDrop")
	}
}

func TestTableExactMatch(t *testing.T) {
	var hit uint64
	tbl := NewTable("fwd", []MatchKind{Exact}, func(ctx *Context, dst []uint64) bool {
		dst[0] = ctx.GetMeta("dst")
		return true
	})
	tbl.SetDefault(func(ctx *Context, _ []uint64) { ctx.Drop() })
	err := tbl.AddEntry(&Entry{
		Values: []uint64{10},
		Action: func(ctx *Context, params []uint64) { hit = params[0]; ctx.EgressPort = int(params[0]) },
		Params: []uint64{3},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCtx(events.IngressPacket, 0)
	ctx.SetMeta("dst", 10)
	if !tbl.Apply(ctx) {
		t.Fatal("expected hit")
	}
	if hit != 3 || ctx.EgressPort != 3 {
		t.Errorf("action not applied: hit=%d port=%d", hit, ctx.EgressPort)
	}
	ctx.SetMeta("dst", 11)
	if tbl.Apply(ctx) {
		t.Fatal("expected miss")
	}
	if ctx.EgressPort != PortDrop {
		t.Error("default action not applied")
	}
	lookups, misses := tbl.Stats()
	if lookups != 2 || misses != 1 {
		t.Errorf("stats = %d/%d", lookups, misses)
	}
}

func TestTableExactApplyZeroAlloc(t *testing.T) {
	tbl := NewTable("fwd", []MatchKind{Exact, Exact}, func(ctx *Context, dst []uint64) bool {
		dst[0] = ctx.GetMeta("a")
		dst[1] = ctx.GetMeta("b")
		return true
	})
	tbl.SetDefault(func(ctx *Context, _ []uint64) { ctx.Drop() })
	for i := uint64(0); i < 8; i++ {
		if err := tbl.AddEntry(&Entry{
			Values: []uint64{i, i * 3},
			Action: func(ctx *Context, params []uint64) { ctx.EgressPort = int(params[0]) },
			Params: []uint64{i},
		}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := newCtx(events.IngressPacket, 0)
	ctx.SetMeta("a", 5)
	ctx.SetMeta("b", 15)
	allocs := testing.AllocsPerRun(1000, func() {
		if !tbl.Apply(ctx) {
			t.Fatal("expected hit")
		}
	})
	if allocs != 0 {
		t.Errorf("exact Apply allocates %v/op, want 0", allocs)
	}
	// Misses through the default action must not allocate either.
	ctx.SetMeta("b", 999)
	allocs = testing.AllocsPerRun(1000, func() {
		if tbl.Apply(ctx) {
			t.Fatal("expected miss")
		}
	})
	if allocs != 0 {
		t.Errorf("exact Apply miss allocates %v/op, want 0", allocs)
	}
}

func TestTableExactReplaceAndDelete(t *testing.T) {
	tbl := NewTable("t", []MatchKind{Exact}, func(ctx *Context, dst []uint64) bool {
		dst[0] = ctx.GetMeta("k")
		return true
	})
	out := 0
	mk := func(v int) ActionFunc { return func(*Context, []uint64) { out = v } }
	tbl.AddEntry(&Entry{Values: []uint64{1}, Action: mk(1)})
	tbl.AddEntry(&Entry{Values: []uint64{1}, Action: mk(2)}) // replace
	if tbl.Len() != 1 {
		t.Fatalf("len = %d after replace", tbl.Len())
	}
	ctx := newCtx(events.IngressPacket, 0)
	ctx.SetMeta("k", 1)
	tbl.Apply(ctx)
	if out != 2 {
		t.Errorf("replaced entry not used: out=%d", out)
	}
}

func TestTableLPM(t *testing.T) {
	tbl := NewTable("route", []MatchKind{LPM}, func(ctx *Context, dst []uint64) bool {
		dst[0] = ctx.GetMeta("ip")
		return true
	})
	var chosen int
	mk := func(v int) ActionFunc { return func(*Context, []uint64) { chosen = v } }
	// 10.0.0.0/8 -> 1 ; 10.1.0.0/16 -> 2 ; default -> 0
	tbl.AddEntry(&Entry{
		Values: []uint64{uint64(packet.IP4(10, 0, 0, 0))},
		Masks:  []uint64{PrefixMask(8, 32)},
		Action: mk(1),
	})
	tbl.AddEntry(&Entry{
		Values: []uint64{uint64(packet.IP4(10, 1, 0, 0))},
		Masks:  []uint64{PrefixMask(16, 32)},
		Action: mk(2),
	})
	tbl.SetDefault(func(*Context, []uint64) { chosen = 0 })

	cases := []struct {
		ip   packet.IP
		want int
	}{
		{packet.IP4(10, 2, 3, 4), 1},
		{packet.IP4(10, 1, 3, 4), 2}, // longer prefix wins
		{packet.IP4(11, 0, 0, 1), 0},
	}
	for _, c := range cases {
		ctx := newCtx(events.IngressPacket, 0)
		ctx.SetMeta("ip", uint64(c.ip))
		chosen = -1
		tbl.Apply(ctx)
		if chosen != c.want {
			t.Errorf("lookup %v chose %d, want %d", c.ip, chosen, c.want)
		}
	}
}

func TestTableTernaryPriority(t *testing.T) {
	tbl := NewTable("acl", []MatchKind{Ternary, Ternary}, func(ctx *Context, dst []uint64) bool {
		dst[0] = ctx.GetMeta("a")
		dst[1] = ctx.GetMeta("b")
		return true
	})
	var chosen int
	mk := func(v int) ActionFunc { return func(*Context, []uint64) { chosen = v } }
	tbl.AddEntry(&Entry{Values: []uint64{1, 0}, Masks: []uint64{0xff, 0}, Priority: 10, Action: mk(1)})
	tbl.AddEntry(&Entry{Values: []uint64{1, 2}, Masks: []uint64{0xff, 0xff}, Priority: 20, Action: mk(2)})
	ctx := newCtx(events.IngressPacket, 0)
	ctx.SetMeta("a", 1)
	ctx.SetMeta("b", 2)
	tbl.Apply(ctx)
	if chosen != 2 {
		t.Errorf("chose %d, want higher-priority 2", chosen)
	}
	ctx.SetMeta("b", 3)
	tbl.Apply(ctx)
	if chosen != 1 {
		t.Errorf("chose %d, want wildcard entry 1", chosen)
	}
}

func TestTableKeyNotDerivable(t *testing.T) {
	tbl := NewTable("t", []MatchKind{Exact}, func(ctx *Context, dst []uint64) bool {
		return false // e.g. non-IP packet
	})
	missed := false
	tbl.SetDefault(func(*Context, []uint64) { missed = true })
	if tbl.Apply(newCtx(events.IngressPacket, 0)) {
		t.Fatal("hit without derivable key")
	}
	if !missed {
		t.Error("default action skipped")
	}
}

func TestTableAddEntryValidation(t *testing.T) {
	tbl := NewTable("t", []MatchKind{Exact}, nil)
	if err := tbl.AddEntry(&Entry{Values: []uint64{1, 2}, Action: func(*Context, []uint64) {}}); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := tbl.AddEntry(&Entry{Values: []uint64{1}}); err == nil {
		t.Error("entry without action accepted")
	}
}

func TestPrefixMask(t *testing.T) {
	if PrefixMask(8, 32) != 0xff000000 {
		t.Errorf("PrefixMask(8,32) = %#x", PrefixMask(8, 32))
	}
	if PrefixMask(0, 32) != 0 {
		t.Errorf("PrefixMask(0,32) = %#x", PrefixMask(0, 32))
	}
	if PrefixMask(32, 32) != 0xffffffff {
		t.Errorf("PrefixMask(32,32) = %#x", PrefixMask(32, 32))
	}
	if PrefixMask(64, 64) != ^uint64(0) {
		t.Errorf("PrefixMask(64,64) = %#x", PrefixMask(64, 64))
	}
}

func TestSharedRegisterDirectAccess(t *testing.T) {
	r := NewAggregatedRegister("qsize", 8, events.BufferEnqueue, events.BufferDequeue)
	ctx := newCtx(events.IngressPacket, 1)
	r.Tick(1)
	r.Write(ctx, 2, 100)
	if got := r.Read(ctx, 2); got != 100 {
		t.Errorf("read = %d, want 100", got)
	}
	r.Add(ctx, 2, -30)
	if got := r.True(2); got != 70 {
		t.Errorf("true = %d, want 70", got)
	}
	_, conflicts := r.Metrics()
	if conflicts != 0 {
		t.Errorf("conflicts = %d (same-kind accesses share the transaction)", conflicts)
	}
}

func TestSharedRegisterDeferredUpdate(t *testing.T) {
	r := NewAggregatedRegister("qsize", 8, events.BufferEnqueue, events.BufferDequeue)
	enq := newCtx(events.BufferEnqueue, 1)
	ing := newCtx(events.IngressPacket, 1)
	r.Tick(1)
	// A packet thread holds the main port this cycle, so the deferred
	// update cannot drain yet.
	_ = r.Read(ing, 3)
	r.Add(enq, 3, +200)
	r.EndCycle()
	// Value not yet in main; True sees it.
	if got := r.Stale(3); got != 0 {
		t.Errorf("stale = %d, want 0 before drain", got)
	}
	if got := r.True(3); got != 200 {
		t.Errorf("true = %d, want 200", got)
	}
	// Idle cycle drains.
	r.Tick(2)
	r.EndCycle()
	if got := r.Stale(3); got != 200 {
		t.Errorf("stale = %d, want 200 after drain", got)
	}
	// Deferred reads see the (possibly stale) main value without error.
	r.Tick(3)
	if got := r.Read(enq, 3); got != 200 {
		t.Errorf("deferred read = %d", got)
	}
}

func TestSharedRegisterDeferredWritePanics(t *testing.T) {
	r := NewAggregatedRegister("x", 4, events.BufferEnqueue)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on deferred absolute write")
		}
	}()
	r.Write(newCtx(events.BufferEnqueue, 1), 0, 5)
}

func TestSharedRegisterMultiPortExact(t *testing.T) {
	r := NewMultiPortRegister("x", 4, 3)
	r.Tick(1)
	ing := newCtx(events.IngressPacket, 1)
	enq := newCtx(events.BufferEnqueue, 1)
	deq := newCtx(events.BufferDequeue, 1)
	r.Add(enq, 0, +100)
	r.Add(deq, 0, -40)
	if got := r.Read(ing, 0); got != 60 {
		t.Errorf("multiport read = %d, want exact 60", got)
	}
	_, conflicts := r.Metrics()
	if conflicts != 0 {
		t.Errorf("conflicts = %d with 3 ports and 3 threads", conflicts)
	}
}

func TestSharedRegisterConflictWhenOverSubscribed(t *testing.T) {
	// Multiport with 1 port: two different kinds in the same cycle
	// conflict.
	r := NewMultiPortRegister("x", 4, 1)
	r.Tick(1)
	a := newCtx(events.IngressPacket, 1)
	b := newCtx(events.EgressPacket, 1)
	r.Write(a, 0, 5)
	r.Write(b, 0, 9) // denied: port taken
	_, conflicts := r.Metrics()
	if conflicts == 0 {
		t.Error("expected a conflict")
	}
	if got := r.Stale(0); got != 5 {
		t.Errorf("value = %d, want 5 (second write denied)", got)
	}
}

func TestSharedRegisterReset(t *testing.T) {
	r := NewAggregatedRegister("x", 4, events.BufferEnqueue)
	ctx := newCtx(events.BufferEnqueue, 1)
	r.Tick(1)
	r.Add(ctx, 1, 50)
	r.Reset()
	if r.True(1) != 0 || r.Stale(1) != 0 {
		t.Errorf("after reset: true=%d stale=%d", r.True(1), r.Stale(1))
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter("pkts", 4)
	c.Count(1, 100)
	c.Count(1, 50)
	c.Count(5, 60) // wraps to 1
	pk, by := c.Value(1)
	if pk != 3 || by != 210 {
		t.Errorf("counter = %d pkts %d bytes", pk, by)
	}
	c.Reset()
	if pk, by = c.Value(1); pk != 0 || by != 0 {
		t.Error("reset failed")
	}
	if c.Size() != 4 || c.Name() != "pkts" {
		t.Error("metadata wrong")
	}
}

func TestHashDeterministicAndSpreads(t *testing.T) {
	a := Hash(1, 10, 20)
	if a != Hash(1, 10, 20) {
		t.Error("hash not deterministic")
	}
	if a == Hash(2, 10, 20) {
		t.Error("seed ignored")
	}
	if a == Hash(1, 20, 10) {
		t.Error("field order ignored")
	}
	buckets := make(map[uint64]int)
	for i := uint64(0); i < 1000; i++ {
		buckets[Hash(0, i)%16]++
	}
	for b, n := range buckets {
		if n > 150 {
			t.Errorf("bucket %d has %d of 1000", b, n)
		}
	}
}

func TestProgramBindingAndApply(t *testing.T) {
	p := NewProgram("test")
	var seen []events.Kind
	p.HandleFunc(events.IngressPacket, func(ctx *Context) { seen = append(seen, ctx.Ev.Kind) })
	p.HandleFunc(events.BufferEnqueue, func(ctx *Context) { seen = append(seen, ctx.Ev.Kind) })
	if !p.Handles(events.IngressPacket) || p.Handles(events.TimerExpiration) {
		t.Error("Handles wrong")
	}
	ks := p.HandledKinds()
	if len(ks) != 2 || ks[0] != events.IngressPacket || ks[1] != events.BufferEnqueue {
		t.Errorf("HandledKinds = %v", ks)
	}
	p.Apply(newCtx(events.BufferEnqueue, 0))
	p.Apply(newCtx(events.TimerExpiration, 0)) // unbound: no-op
	if len(seen) != 1 || seen[0] != events.BufferEnqueue {
		t.Errorf("seen = %v", seen)
	}
}

func TestProgramNamedObjects(t *testing.T) {
	p := NewProgram("test")
	p.AddRegister(NewAggregatedRegister("r1", 4, events.BufferEnqueue))
	p.AddTable(NewTable("t1", []MatchKind{Exact}, nil))
	p.AddCounter(NewCounter("c1", 4))
	if p.Register("r1") == nil || p.Table("t1") == nil || p.Counter("c1") == nil {
		t.Error("lookup failed")
	}
	if p.Register("nope") != nil {
		t.Error("phantom register")
	}
	if names := p.TableNames(); len(names) != 1 || names[0] != "t1" {
		t.Errorf("TableNames = %v", names)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate register accepted")
		}
	}()
	p.AddRegister(NewAggregatedRegister("r1", 4))
}

func TestProgramTickEndCycleDrain(t *testing.T) {
	p := NewProgram("test")
	r := p.AddRegister(NewAggregatedRegister("r", 4, events.BufferEnqueue))
	ctx := newCtx(events.BufferEnqueue, 1)
	p.Tick(1)
	r.Add(ctx, 0, 7)
	p.EndCycle()
	p.Tick(2)
	p.EndCycle()
	if r.Stale(0) != 7 {
		t.Errorf("drain via Program failed: %d", r.Stale(0))
	}
}

func TestSharedRegisterPendingAbsAndBacklog(t *testing.T) {
	r := NewAggregatedRegister("x", 8, events.BufferEnqueue)
	ing := newCtx(events.IngressPacket, 1)
	enq := newCtx(events.BufferEnqueue, 1)
	r.Tick(1)
	_ = r.Read(ing, 0) // hold the main port so nothing drains
	r.Add(enq, 3, +500)
	r.EndCycle()
	if r.Backlog() != 1 || r.PendingAbs() != 500 {
		t.Errorf("backlog=%d pending=%d, want 1/500", r.Backlog(), r.PendingAbs())
	}
	// Multiport registers report zero.
	mp := NewMultiPortRegister("y", 8, 2)
	if mp.Backlog() != 0 || mp.PendingAbs() != 0 {
		t.Error("multiport register claims aggregation state")
	}
}

func TestTableExactProperty(t *testing.T) {
	// Property: after installing entries for arbitrary keys, every
	// installed key hits its own action and uninstalled keys miss.
	f := func(keys []uint16) bool {
		tbl := NewTable("t", []MatchKind{Exact}, func(ctx *Context, dst []uint64) bool {
			dst[0] = ctx.GetMeta("k")
			return true
		})
		installed := map[uint64]uint64{}
		for i, k := range keys {
			key, val := uint64(k), uint64(i)+1
			installed[key] = val // duplicates replace, matching AddEntry
			if err := tbl.AddEntry(&Entry{
				Values: []uint64{key},
				Action: func(ctx *Context, params []uint64) { ctx.SetMeta("out", params[0]) },
				Params: []uint64{val},
			}); err != nil {
				return false
			}
		}
		ctx := newCtx(events.IngressPacket, 0)
		for key, want := range installed {
			ctx.SetMeta("k", key)
			ctx.SetMeta("out", 0)
			if !tbl.Apply(ctx) || ctx.GetMeta("out") != want {
				return false
			}
		}
		// A key outside uint16 space can never be installed.
		ctx.SetMeta("k", 1<<32)
		return !tbl.Apply(ctx)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashAvalancheProperty(t *testing.T) {
	// Property: flipping one input bit changes the hash (no trivial
	// collisions between adjacent keys).
	f := func(x uint64, bit uint8) bool {
		y := x ^ (1 << (bit % 64))
		return Hash(0, x) != Hash(0, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
