package bench

import (
	"fmt"
	"hash/fnv"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// fatTreeSpec sizes one k-ary fat-tree run (Al-Fares topology: k pods of
// k/2 edge + k/2 agg switches, (k/2)^2 cores; k=8 is the scale sweep's
// 80-switch fabric). The workload is a rolling shuffle: pods take turns
// running a dense intra-pod all-to-all epoch while a thin layer of
// long-lived inter-pod flows crosses the core plane the whole time. That
// shape is what the adaptive window protocol is for — during pod p's
// epoch the other domains hold only far-future work, so p's windows are
// bounded by its own core-plane round trip instead of the global minimum
// link latency.
type fatTreeSpec struct {
	k       int
	horizon sim.Time
	// slot is one pod's shuffle epoch; pods rotate round-robin so pod p
	// is active during slots i with i%k == p.
	slot sim.Time
	// hostRate is each host's offered CBR rate during its pod's epoch.
	hostRate sim.Rate
	// interGap spaces the background inter-pod flows (one per pod).
	interGap sim.Time

	domains int
	classic bool
	tel     *telemetry.Collector
}

func (s fatTreeSpec) switches() int { return s.k*s.k + (s.k/2)*(s.k/2) }

// fatTreeDomain maps switch index i to its domain (of domains >= 2),
// following the topology's structure: whole pods spread contiguously over
// domains 0..d-2 and every core switch in its own domain d-1. Keeping
// the core plane separate matters for batching, not correctness: a core
// inside a pod domain would give that domain a direct low-latency inbound
// edge from every other pod, pinning its window width at the classic
// lookahead. Switch order is pod-major (pod p holds indices p*k..p*k+k-1,
// edges then aggs), cores last.
func fatTreeDomain(k, domains, i int) int {
	if i >= k*k {
		return domains - 1
	}
	return (i / k) * (domains - 1) / k
}

// runFatTree builds and runs one fat-tree, returning the same metrics
// shape as the leaf-spine fabrics so the scale sweep can digest-check it
// across domain counts and batching modes.
func runFatTree(env *Env, spec fatTreeSpec) fabricMetrics {
	k := spec.k
	half := k / 2
	nsw := spec.switches()
	net, schedFor := env.fabric(spec.domains, nsw, spec.classic,
		func(i, domains int) int { return fatTreeDomain(k, domains, i) })

	// Switches, pod-major: pod p's edges at p*k+e, aggs at p*k+half+a,
	// cores at k*k+c.
	sws := make([]*core.Switch, 0, nsw)
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			sw := env.newSwitch(core.Config{
				Name: fmt.Sprintf("p%de%d", p, e), Ports: k,
			}, core.EventDriven(), schedFor(p*k+e))
			sw.MustLoad(apps.FatTreeRouter(apps.FatTreeConfig{K: k, Role: apps.FatTreeEdge, Pod: p, Idx: e}))
			sws = append(sws, sw)
		}
		for a := 0; a < half; a++ {
			sw := env.newSwitch(core.Config{
				Name: fmt.Sprintf("p%da%d", p, a), Ports: k,
			}, core.EventDriven(), schedFor(p*k+half+a))
			sw.MustLoad(apps.FatTreeRouter(apps.FatTreeConfig{K: k, Role: apps.FatTreeAgg, Pod: p, Idx: a}))
			sws = append(sws, sw)
		}
	}
	for c := 0; c < half*half; c++ {
		sw := env.newSwitch(core.Config{
			Name: fmt.Sprintf("core%d", c), Ports: k,
		}, core.EventDriven(), schedFor(k*k+c))
		sw.MustLoad(apps.FatTreeRouter(apps.FatTreeConfig{K: k, Role: apps.FatTreeCore, Idx: c}))
		sws = append(sws, sw)
	}
	edgeSW := func(p, e int) *core.Switch { return sws[p*k+e] }
	aggSW := func(p, a int) *core.Switch { return sws[p*k+half+a] }
	coreSW := func(c int) *core.Switch { return sws[k*k+c] }
	for _, sw := range sws {
		net.AddSwitch(sw)
	}

	// Wiring. Intra-pod links are short (1us) and — under the structured
	// plan — intra-domain. The agg-core links carry a per-pod latency
	// (5us + 2.5us per pod index): the fiber diversity that gives each pod
	// domain its own conservative horizon.
	intraPod := sim.Microsecond
	coreLat := func(p int) sim.Time { return 5*sim.Microsecond + sim.Time(p)*2500*sim.Nanosecond }
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				net.Connect(edgeSW(p, e), half+a, aggSW(p, a), e, intraPod)
			}
		}
		for a := 0; a < half; a++ {
			for j := 0; j < half; j++ {
				net.Connect(aggSW(p, a), half+j, coreSW(a*half+j), p, coreLat(p))
			}
		}
	}
	if spec.tel != nil {
		net.EnableTelemetry(spec.tel)
	}

	// Hosts: 10.p.e.(2+h) on edge (p,e) port h.
	hosts := make(map[[3]int]*netsim.Host, k*half*half)
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for h := 0; h < half; h++ {
				host := net.NewHost(fmt.Sprintf("h%d.%d.%d", p, e, h), apps.FatTreeHostIP(p, e, h))
				net.Attach(host, edgeSW(p, e), h, 500*sim.Nanosecond)
				hosts[[3]int{p, e, h}] = host
			}
		}
	}

	rng := sim.NewRNG(11)

	// Rolling shuffle epochs: during pod p's slots every host in the pod
	// streams CBR to the same-numbered host one edge over (a 3-switch
	// path through the pod's agg layer, never the core plane).
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for h := 0; h < half; h++ {
				src := hosts[[3]int{p, e, h}]
				fl := packet.Flow{
					Src: src.IP, Dst: apps.FatTreeHostIP(p, (e+1)%half, h),
					SrcPort: uint16(1000 + p*half*half + e*half + h), DstPort: 80,
					Proto: packet.ProtoUDP,
				}
				g := workload.NewGen(src.Scheduler(), rng.Split(), func(d []byte) { src.Send(d) })
				cycle := sim.Time(k) * spec.slot
				var arm func(start sim.Time)
				arm = func(start sim.Time) {
					if start >= spec.horizon {
						return
					}
					src.Scheduler().At(start, func() {
						end := start + spec.slot
						if end > spec.horizon {
							end = spec.horizon
						}
						g.StartCBR(workload.CBRConfig{
							Flow: fl, Size: workload.FixedSize(256),
							Rate: spec.hostRate, Until: end,
						})
					})
					arm(start + cycle)
				}
				arm(sim.Time(p) * spec.slot)
			}
		}
	}

	// Background inter-pod flows: one thin stream per pod crossing the
	// core plane for the whole run. They keep the core domain honest —
	// its transit events genuinely bound every pod's window edges.
	for p := 0; p < k; p++ {
		src := hosts[[3]int{p, 0, 0}]
		fl := packet.Flow{
			Src: src.IP, Dst: apps.FatTreeHostIP((p+1)%k, 0, 1),
			SrcPort: uint16(4000 + p), DstPort: 443, Proto: packet.ProtoUDP,
		}
		g := workload.NewGen(src.Scheduler(), rng.Split(), func(d []byte) { src.Send(d) })
		// Rate chosen so one 256B frame (280B on the wire) leaves every
		// interGap: sparse enough that core-plane transit events stay far
		// apart relative to the agg-core latencies.
		g.StartCBR(workload.CBRConfig{
			Flow: fl, Size: workload.FixedSize(256),
			Rate:  sim.Rate((256 + 24) * 8 * int64(sim.Second) / int64(spec.interGap)),
			Until: spec.horizon,
		})
	}

	net.Run(spec.horizon)
	faults.MustAudit(net)
	if spec.tel != nil {
		net.RecordLinkTelemetry(spec.tel)
	}

	var m fabricMetrics
	dig := fnv.New64a()
	put := func(vs ...uint64) {
		var buf [8]byte
		for _, v := range vs {
			for i := 0; i < 8; i++ {
				buf[i] = byte(v >> (8 * i))
			}
			dig.Write(buf[:])
		}
	}
	for _, sw := range net.Switches() {
		st := sw.Stats()
		m.cycles += st.Cycles
		m.txPackets += st.TxPackets
		put(st.RxPackets, st.TxPackets, st.Cycles, st.Generated, st.PipelineDrops)
	}
	if part := net.Partition(); part != nil {
		m.windows, m.barriers = part.Windows(), part.Barriers()
	}
	for _, l := range net.Links() {
		for dir := 0; dir < 2; dir++ {
			c := l.Counters(dir)
			put(c.Sent, c.Delivered, c.LostAtSend, c.LostInFlight, c.InFlight())
		}
	}
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for h := 0; h < half; h++ {
				host := hosts[[3]int{p, e, h}]
				put(host.RxPackets, host.RxBytes)
			}
		}
	}
	m.digest = dig.Sum64()
	return m
}
