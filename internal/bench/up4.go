package bench

import (
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "up4",
		Paper: "µP4 execution backends: compiled closures vs interpreter oracle",
		Run:   UP4Bench,
	})
}

// up4Programs are the example programs the experiment sweeps: every
// packet-driven program from the µP4 library plus the LPM router (table
// + counter externs). Timer-driven programs (queuereport, ratelimiter)
// are exercised by the p4 package's differential tests instead — the
// chain harness arms no timers.
var up4Programs = []string{"ecnmark", "heavyhitter", "linkwatch", "microburst", "router"}

// UP4Bench runs each µP4 example program on a 3-switch chain twice —
// once per execution backend — and checks the central compiler claim:
// the compiled-closure backend and the tree-walking interpreter are
// observably identical (the digest column folds every switch, link,
// host, register, and table counter).
func UP4Bench(env *Env) *Result {
	res := &Result{
		ID:    "up4",
		Title: "µP4 backends on a 3-switch chain: compiled closures vs interpreter",
		Cols:  []string{"program", "backend", "cycles", "tx packets", "digest", "identical"},
	}
	for _, name := range up4Programs {
		var base uint64
		for bi, interp := range []bool{false, true} {
			m := runUP4Chain(env, name, interp)
			ident := "baseline"
			if bi == 0 {
				base = m.digest
			} else if m.digest == base {
				ident = "yes"
			} else {
				ident = "NO"
			}
			res.AddRow(name, backendName(interp), d(m.cycles), d(m.txPackets),
				fmt.Sprintf("%016x", m.digest), ident)
		}
	}
	res.Notef("digest folds switch/link/host counters plus every µP4 register cell and table stat")
	res.Notef("'identical' checks each interp row against its compiled baseline — the differential oracle")
	return res
}

// up4Metrics is what one chain run measures.
type up4Metrics struct {
	cycles    uint64
	txPackets uint64
	digest    uint64
}

// runUP4Chain wires h0 - sw0 - sw1 - sw2 - h1 (each switch port 0
// upstream, port 1 downstream), loads the named µP4 program onto every
// switch under the selected backend, offers bidirectional CBR flows,
// and flaps the sw0-sw1 link mid-run (event diversity for the link
// handlers). The run is byte-identical at every domains value: switches
// interact only through links and all RNG streams split at setup.
func runUP4Chain(env *Env, progName string, interp bool) up4Metrics {
	src, ok := p4.Programs[progName]
	if !ok {
		panic("bench: unknown µP4 program " + progName)
	}
	const nsw = 3
	const horizon = 8 * sim.Millisecond
	net, schedFor := env.fabric(env.domains(), nsw, false, roundRobin)

	compiled := p4.MustCompile(src)
	sws := make([]*core.Switch, nsw)
	insts := make([]*p4.Instance, nsw)
	for i := range sws {
		sw := env.newSwitch(core.Config{
			Name: fmt.Sprintf("sw%d", i), Ports: 2, QueueCapBytes: 1 << 20,
		}, core.EventDriven(), schedFor(i))
		inst := compiled.Instantiate(fmt.Sprintf("%s%d", progName, i),
			p4.Options{Interpret: interp})
		inst.SetSwitchID(uint32(i + 1))
		if progName == "router" {
			// Forward 10.9/16 downstream and 10.0/16 upstream; everything
			// else takes the default drop.
			mustOK(inst.InstallEntry("ipv4_lpm",
				[]uint64{uint64(packet.IP4(10, 9, 0, 0))},
				[]uint64{pisa.PrefixMask(16, 32)}, 16, "set_egress", 1))
			mustOK(inst.InstallEntry("ipv4_lpm",
				[]uint64{uint64(packet.IP4(10, 0, 0, 0))},
				[]uint64{pisa.PrefixMask(16, 32)}, 16, "set_egress", 0))
		}
		sw.MustLoad(inst.Program())
		sws[i], insts[i] = sw, inst
	}
	for _, sw := range sws {
		net.AddSwitch(sw)
	}
	net.Connect(sws[0], 1, sws[1], 0, sim.Microsecond)
	net.Connect(sws[1], 1, sws[2], 0, sim.Microsecond)
	if tel := env.collector(fmt.Sprintf("up4/%s-%s", progName, backendName(interp))); tel != nil {
		net.EnableTelemetry(tel)
	}

	h1 := net.NewHost("h1", packet.IP4(10, 9, 0, 5))
	net.Attach(h1, sws[2], 1, 0)
	h0 := net.NewHost("h0", packet.IP4(10, 0, 0, 5))
	net.Attach(h0, sws[0], 0, 0)

	// Bidirectional CBR: 6 forward flows h0->10.9/16 and 2 reverse flows
	// h1->10.0/16 (the reverse direction lands on each switch's port 1 —
	// programs that forward to a fixed egress reflect it, the router
	// routes it, linkwatch mirrors it back upstream).
	rng := sim.NewRNG(11)
	for i := 0; i < 6; i++ {
		fl := packet.Flow{
			Src: packet.IP4(10, 0, 0, 5), Dst: packet.IP4(10, 9, byte(i), 7),
			SrcPort: uint16(4000 + i), DstPort: uint16(80 + i%3), Proto: packet.ProtoUDP,
		}
		g := workload.NewGen(h0.Scheduler(), rng.Split(), func(d []byte) { h0.Send(d) })
		g.StartCBR(workload.CBRConfig{
			Flow: fl, Size: workload.FixedSize(400 + 200*i),
			Rate: 300 * sim.Mbps, Until: horizon,
		})
	}
	for i := 0; i < 2; i++ {
		fl := packet.Flow{
			Src: packet.IP4(10, 9, 0, 5), Dst: packet.IP4(10, 0, byte(i), 9),
			SrcPort: uint16(5000 + i), DstPort: 443, Proto: packet.ProtoUDP,
		}
		g := workload.NewGen(h1.Scheduler(), rng.Split(), func(d []byte) { h1.Send(d) })
		g.StartCBR(workload.CBRConfig{
			Flow: fl, Size: workload.FixedSize(900),
			Rate: 200 * sim.Mbps, Until: horizon,
		})
	}

	// Flap the sw0-sw1 link mid-run: LinkDown/LinkUp events for programs
	// that watch them, loss and retransmission-free gaps for the rest.
	mid := net.LinkAt(sws[0], 1)
	net.ScheduleLinkChange(mid, 3*sim.Millisecond, false)
	net.ScheduleLinkChange(mid, 4*sim.Millisecond, true)

	net.Run(horizon + 2*sim.Millisecond)
	faults.MustAudit(net)

	var m up4Metrics
	dig := fnv.New64a()
	put := func(vs ...uint64) {
		var buf [8]byte
		for _, v := range vs {
			for k := 0; k < 8; k++ {
				buf[k] = byte(v >> (8 * k))
			}
			dig.Write(buf[:])
		}
	}
	for i, sw := range sws {
		st := sw.Stats()
		m.cycles += st.Cycles
		m.txPackets += st.TxPackets
		put(st.RxPackets, st.RxBytes, st.TxPackets, st.TxBytes, st.Cycles,
			st.PipelineDrops, st.Recirculated, st.Generated)
		prog := insts[i].Program()
		for _, r := range prog.Registers() {
			n := r.Size()
			if n > 4096 {
				n = 4096
			}
			for j := 0; j < n; j++ {
				if v := r.True(uint32(j)); v != 0 {
					put(uint64(j), uint64(v))
				}
			}
		}
		for _, tn := range prog.TableNames() {
			lookups, misses := prog.Table(tn).Stats()
			put(lookups, misses)
		}
	}
	for _, l := range net.Links() {
		for dir := 0; dir < 2; dir++ {
			c := l.Counters(dir)
			put(c.Sent, c.Delivered, c.LostAtSend, c.LostInFlight, c.InFlight())
		}
	}
	for _, h := range net.Hosts() {
		put(h.RxPackets, h.RxBytes)
	}
	m.digest = dig.Sum64()
	return m
}

func backendName(interp bool) string {
	if interp {
		return "interp"
	}
	return "compiled"
}
