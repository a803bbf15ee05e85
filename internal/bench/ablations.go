package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	register(Experiment{ID: "ablations", Paper: "design-choice ablations (DESIGN.md §5)", Run: Ablations})
}

// Ablations quantifies the design choices DESIGN.md calls out:
//
//  1. Aggregated single-ported registers vs multi-ported memory — the §4
//     trade-off: exactness vs memory port cost.
//  2. Event FIFO depth — queueing loss vs buffering cost.
//  3. Merger event priority — how the drain order affects the queueing
//     delay of timer events under heavy TM-event load.
func Ablations(env *Env) *Result {
	res := &Result{
		ID:    "ablations",
		Title: "Design-choice ablations",
		Cols:  []string{"ablation", "setting", "metric", "value"},
	}

	// --- 1. Register implementation: aggregated vs multi-ported --------
	regModes := []string{"aggregated-1port", "multiport-3port"}
	for _, rows := range RunParallel(env, len(regModes), func(trial int) [][]string {
		mode := regModes[trial]
		reg := pisa.NewMultiPortRegister("r", 64, 3)
		if mode == "aggregated-1port" {
			reg = pisa.NewAggregatedRegister("r", 64,
				events.BufferEnqueue, events.BufferDequeue)
		}
		prog := pisa.NewProgram("ablation")
		prog.AddRegister(reg)
		// Drive the register directly: one ingress read + one enq + one
		// deq per cycle at full load for 10k cycles.
		ing := &pisa.Context{}
		enq := &pisa.Context{}
		deq := &pisa.Context{}
		maxErr := int64(0)
		for c := uint64(1); c <= 10_000; c++ {
			ing.Reset(nil, &events.Event{Kind: events.IngressPacket}, 0, c)
			enq.Reset(nil, &events.Event{Kind: events.BufferEnqueue}, 0, c)
			deq.Reset(nil, &events.Event{Kind: events.BufferDequeue}, 0, c)
			idx := uint32(c % 64)
			reg.Add(enq, idx, +100)
			reg.Add(deq, idx, -60)
			got := int64(reg.Read(ing, idx))
			want := reg.True(idx)
			if e := want - got; e > maxErr {
				maxErr = e
			}
			prog.EndCycle(c)
		}
		_, conflicts := reg.Metrics()
		ports := 1
		if mode != "aggregated-1port" {
			ports = 3
		}
		return [][]string{
			{"register impl", mode, "memory ports", d(ports)},
			{"register impl", mode, "max read error (staleness)", d(maxErr)},
			{"register impl", mode, "port conflicts", d(conflicts)},
		}
	}) {
		for _, row := range rows {
			res.AddRow(row...)
		}
	}

	// --- 2. Metadata bus width (events per slot) x FIFO depth -----------
	// With a full-width bus (one event of every kind per slot) nothing
	// is ever lost; narrowing the bus forces queueing and, with shallow
	// FIFOs, loss.
	type fifoPoint struct{ width, depth int }
	var fifoGrid []fifoPoint
	for _, width := range []int{1, 2, 0} {
		for _, depth := range []int{16, 256} {
			fifoGrid = append(fifoGrid, fifoPoint{width, depth})
		}
	}
	for _, row := range RunParallel(env, len(fifoGrid), func(trial int) []string {
		pt := fifoGrid[trial]
		drops := runFIFODepth(env, pt.depth, pt.width)
		wname := "full"
		if pt.width > 0 {
			wname = fmt.Sprintf("%d/slot", pt.width)
		}
		return []string{"bus width x FIFO depth",
			fmt.Sprintf("width=%s depth=%d", wname, pt.depth),
			"enq+deq events lost", d(drops)}
	}) {
		res.AddRow(row...)
	}

	// --- 2b. Piggybacking vs dedicated event slots ----------------------
	// The merger's defining trick: event metadata rides packet slots.
	// Without it every event consumes its own slot and competes with
	// packets for the pipeline.
	piggyModes := []bool{true, false}
	for _, rows := range RunParallel(env, len(piggyModes), func(trial int) [][]string {
		piggy := piggyModes[trial]
		delivered, evLost := runPiggyback(env, piggy)
		name := "piggyback (paper design)"
		if !piggy {
			name = "dedicated event slots"
		}
		return [][]string{
			{"event transport", name, "data delivered", delivered},
			{"event transport", name, "TM events lost", d(evLost)},
		}
	}) {
		for _, row := range rows {
			res.AddRow(row...)
		}
	}

	// --- 3. Merger priority: timer-first vs timer-last on a narrow bus --
	prioModes := []bool{false, true}
	for _, row := range RunParallel(env, len(prioModes), func(trial int) []string {
		timerFirst := prioModes[trial]
		delay := runMergerPriority(env, timerFirst)
		name := "timer last (default)"
		if timerFirst {
			name = "timer first"
		}
		return []string{"merger priority (width=1)", name, "timer event delay p99",
			sim.Time(delay.Percentile(99)).String()}
	}) {
		res.AddRow(row...)
	}

	res.Notef("register ablation: the multi-ported design is exact but needs one physical port per thread;")
	res.Notef("the aggregated design is single-ported with bounded read staleness — the paper's §4 trade-off")
	res.Notef("FIFO-depth and priority ablations run min-size traffic at 98%% load with timers at 1us")
	return res
}

// runFIFODepth measures enqueue/dequeue event losses at a given merger
// FIFO depth under bursty near-saturation load.
func runFIFODepth(env *Env, depth, width int) uint64 {
	sched := sim.NewScheduler()
	sw := env.newSwitch(core.Config{
		EventQueueDepth: depth, Overspeed: 1.05, MaxEventsPerSlot: width,
	}, core.EventDriven(), sched)
	prog := pisa.NewProgram("fifo")
	prog.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) { ctx.EgressPort = ctx.Pkt.InPort ^ 1 })
	prog.HandleFunc(events.BufferEnqueue, func(*pisa.Context) {})
	prog.HandleFunc(events.BufferDequeue, func(*pisa.Context) {})
	sw.MustLoad(prog)
	rng := sim.NewRNG(13)
	for port := 0; port < 4; port++ {
		port := port
		g := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(port, d) })
		fl := packet.Flow{Src: packet.IP4(10, byte(port), 0, 1), Dst: packet.IP4(10, byte(port^1), 0, 1),
			SrcPort: uint16(1000 + port), DstPort: 80, Proto: packet.ProtoUDP}
		g.StartSaturate(workload.SaturateConfig{
			Flow: fl, Rate: 10 * sim.Gbps, Load: 0.98, Size: 60, Until: 2 * sim.Millisecond,
		})
	}
	sched.Run(3 * sim.Millisecond)
	return sw.EventQueueDrops(events.BufferEnqueue) + sw.EventQueueDrops(events.BufferDequeue)
}

// runPiggyback drives min-size traffic at 95% load with enq/deq handlers
// bound, with or without event piggybacking, and reports the data
// delivery fraction and the TM events lost.
func runPiggyback(env *Env, piggyback bool) (string, uint64) {
	sched := sim.NewScheduler()
	sw := env.newSwitch(core.Config{
		Overspeed: 1.1, NoPiggyback: !piggyback, EventQueueDepth: 1024,
	}, core.EventDriven(), sched)
	prog := pisa.NewProgram("piggy")
	prog.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) { ctx.EgressPort = ctx.Pkt.InPort ^ 1 })
	prog.HandleFunc(events.BufferEnqueue, func(*pisa.Context) {})
	prog.HandleFunc(events.BufferDequeue, func(*pisa.Context) {})
	sw.MustLoad(prog)
	rng := sim.NewRNG(19)
	var offered uint64
	var gens []*workload.Gen
	const horizon = 2 * sim.Millisecond
	for port := 0; port < 4; port++ {
		port := port
		g := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(port, d) })
		fl := packet.Flow{Src: packet.IP4(10, byte(port), 0, 1), Dst: packet.IP4(10, byte(port^1), 0, 1),
			SrcPort: uint16(1000 + port), DstPort: 80, Proto: packet.ProtoUDP}
		g.StartSaturate(workload.SaturateConfig{
			Flow: fl, Rate: 10 * sim.Gbps, Load: 0.95, Size: 60, Until: horizon,
		})
		gens = append(gens, g)
	}
	sched.Run(horizon + sim.Millisecond)
	for _, g := range gens {
		offered += g.SentPackets
	}
	st := sw.Stats()
	lost := sw.EventQueueDrops(events.BufferEnqueue) + sw.EventQueueDrops(events.BufferDequeue)
	return pct(float64(st.TxPackets), float64(offered)), lost
}

// runMergerPriority measures how long timer events wait for a merger slot
// when TM events compete, under the default priority (timer near last)
// vs a timer-first order.
func runMergerPriority(env *Env, timerFirst bool) *sim.Stats {
	// The priority is per-switch configuration, so concurrently running
	// trials never observe each other's ordering.
	prio := core.DefaultMergerPriority()
	if timerFirst {
		prio = []events.Kind{events.TimerExpiration}
		for _, k := range core.DefaultMergerPriority() {
			if k != events.TimerExpiration {
				prio = append(prio, k)
			}
		}
	}

	sched := sim.NewScheduler()
	sw := env.newSwitch(core.Config{
		EventQueueDepth: 4096, Overspeed: 1.02, MaxEventsPerSlot: 1,
		MergerPriority: prio,
	}, core.EventDriven(), sched)
	prog := pisa.NewProgram("prio")
	delay := sim.NewStats()
	prog.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) { ctx.EgressPort = ctx.Pkt.InPort ^ 1 })
	prog.HandleFunc(events.BufferEnqueue, func(*pisa.Context) {})
	prog.HandleFunc(events.BufferDequeue, func(*pisa.Context) {})
	prog.HandleFunc(events.TimerExpiration, func(ctx *pisa.Context) {
		delay.AddTime(ctx.Now - ctx.Ev.When)
	})
	sw.MustLoad(prog)
	mustOK(sw.ConfigureTimer(0, sim.Microsecond))
	rng := sim.NewRNG(17)
	for port := 0; port < 4; port++ {
		port := port
		g := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(port, d) })
		fl := packet.Flow{Src: packet.IP4(10, byte(port), 0, 1), Dst: packet.IP4(10, byte(port^1), 0, 1),
			SrcPort: uint16(1000 + port), DstPort: 80, Proto: packet.ProtoUDP}
		g.StartSaturate(workload.SaturateConfig{
			Flow: fl, Rate: 10 * sim.Gbps, Load: 0.98, Size: 60, Until: 2 * sim.Millisecond,
		})
	}
	sched.Run(3 * sim.Millisecond)
	return delay
}
