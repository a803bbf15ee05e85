package bench

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "netchain",
		Paper: "§3 in-network coordination: NetChain-style chain replication riding link events",
		Run:   NetChainBench,
	})
}

// chainSpec is one sweep point: chain length × optional mid-run failure
// of the head's successor link (3-node chains carry a head->tail backup
// so the data-plane failover re-chains around the cut).
type chainSpec struct {
	nodes    int
	writes   int
	interval sim.Time
	fail     bool
}

// NetChainBench measures chain-replicated writes through switch-resident
// key-value replicas (paper §3: link status change events let services
// like NetChain react to failures in the data plane). Each write enters
// at the head, commits at the tail, and the ack walks back up the chain;
// commit RTT therefore grows with chain length. The failure row cuts the
// head's successor mid-stream: the head's LinkStatusChange handler
// re-chains to the backup within one event, and every acknowledged write
// is present at the tail afterwards.
//
// The chain is a line of switches, so it partitions naturally into
// contiguous domains; output is byte-identical for every domain count.
func NetChainBench(env *Env) *Result {
	res := &Result{
		ID:    "netchain",
		Title: "NetChain chain replication: commit RTT vs chain length, data-plane failover",
		Cols: []string{"chain", "fault", "writes", "acked", "tail commits",
			"failovers", "mean commit RTT", "acked writes durable"},
	}
	specs := []chainSpec{
		{nodes: 3, writes: 64, interval: 50 * sim.Microsecond},
		{nodes: 3, writes: 64, interval: 50 * sim.Microsecond, fail: true},
		{nodes: 5, writes: 64, interval: 50 * sim.Microsecond},
		{nodes: 8, writes: 64, interval: 50 * sim.Microsecond},
	}
	rows := RunParallel(env, len(specs), func(trial int) []string {
		sp := specs[trial]
		m := runChain(env, sp)
		fault := "none"
		if sp.fail {
			fault = "cut head succ"
		}
		durable := "yes"
		if !m.durable {
			durable = "NO"
		}
		return []string{
			d(sp.nodes), fault, d(sp.writes), d(m.acked), d(m.tailCommits),
			d(m.failovers), m.meanRTT.String(), durable,
		}
	})
	for _, row := range rows {
		res.AddRow(row...)
	}
	res.Notef("writes stream from one client at the head; the tail commits and acks back up the chain")
	res.Notef("fault row: head's successor link scheduled down mid-stream; the head re-chains to its backup in the data plane")
	res.Notef("'acked writes durable': every acknowledged write present in the tail's store with the acked value")
	return res
}

// chainMetrics is one chain run's measurement.
type chainMetrics struct {
	acked, tailCommits, failovers int
	meanRTT                       sim.Time
	durable                       bool
}

// runChain builds a line of ChainNode switches split into contiguous
// partition domains, streams writes from a client at the head, and
// checks the chain-replication guarantee.
func runChain(env *Env, sp chainSpec) chainMetrics {
	const (
		hopLatency = 5 * sim.Microsecond
		firstWrite = sim.Millisecond
	)
	// Contiguous blocks keep all but domains-1 hops local.
	net, schedFor := env.fabric(env.domains(), sp.nodes, false,
		func(i, domains int) int { return i * domains / sp.nodes })

	nodes := make([]*apps.ChainNode, sp.nodes)
	sws := make([]*core.Switch, sp.nodes)
	for i := range nodes {
		cfg := apps.ChainNodeConfig{
			SwitchID: uint32(i + 1), ClientPort: 0, SuccessorPort: 1, BackupPort: -1,
		}
		if i == sp.nodes-1 {
			cfg.SuccessorPort = -1
			cfg.Tail = true
		}
		if i == 0 && sp.fail {
			cfg.BackupPort = 2 // head skips straight to the tail
		}
		node, prog := apps.NewChainNode(cfg)
		sw := env.newSwitch(core.Config{Name: fmt.Sprintf("chain%d", i)}, core.EventDriven(), schedFor(i))
		sw.MustLoad(prog)
		net.AddSwitch(sw)
		nodes[i], sws[i] = node, sw
	}
	var headSucc *netsim.Link
	for i := 0; i+1 < sp.nodes; i++ {
		l := net.Connect(sws[i], 1, sws[i+1], 0, hopLatency)
		if i == 0 {
			headSucc = l
		}
	}
	if sp.fail {
		net.Connect(sws[0], 2, sws[sp.nodes-1], 2, hopLatency)
	}

	client := net.NewHost("client", packet.IP4(10, 0, 0, 1))
	net.Attach(client, sws[0], 0, 0)

	// Everything below runs on the head's domain: the client's sends,
	// its receive callback, and the latency bookkeeping.
	sched := client.Scheduler()
	sendAt := make([]sim.Time, sp.writes+1)
	ackVal := make(map[uint32]uint64)
	var m chainMetrics
	var rttTotal sim.Time
	client.OnRecv = func(data []byte) {
		op, _, val, seq, ok := apps.ParseChainReply(data)
		if !ok || op != apps.ChainWriteAck {
			return
		}
		if _, dup := ackVal[seq]; dup {
			return
		}
		ackVal[seq] = val
		m.acked++
		rttTotal += sched.Now() - sendAt[seq]
	}

	type wrec struct {
		key, val uint64
	}
	writes := make(map[uint32]wrec)
	for i := 0; i < sp.writes; i++ {
		seq := uint32(i + 1)
		key := uint64(i % 8)
		val := uint64(1000 + i)
		writes[seq] = wrec{key, val}
		at := firstWrite + sim.Time(i)*sp.interval
		sched.At(at, func() {
			sendAt[seq] = sched.Now()
			client.Send(apps.BuildChainRequest(packet.Flow{
				Src: client.IP, Dst: packet.IP4(10, 9, 0, 1), SrcPort: 700,
			}, apps.ChainWrite, key, val, seq))
		})
	}
	if sp.fail {
		// Cut mid-stream and leave it down: writes in flight on the old
		// chain are lost unacked; later writes commit via the backup.
		net.ScheduleLinkChange(headSucc, firstWrite+sim.Time(sp.writes/2)*sp.interval, false)
	}

	horizon := firstWrite + sim.Time(sp.writes)*sp.interval + 10*sim.Millisecond
	net.Run(horizon)
	faults.MustAudit(net)

	tail := nodes[sp.nodes-1]
	m.tailCommits = int(tail.Writes)
	for _, n := range nodes {
		m.failovers += int(n.Failovers)
	}
	if m.acked > 0 {
		m.meanRTT = rttTotal / sim.Time(m.acked)
	}
	m.durable = true
	for seq, v := range ackVal {
		w := writes[seq]
		if v != w.val || tail.Store()[w.key] == 0 {
			m.durable = false
		}
	}
	return m
}
