package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
)

// TestEmitOnMissingPort pins the one emit path's port check from each of
// its three callers: a frame emitted on a port the switch does not have —
// by an EgressPacket handler, by a µP4 Egress control's emit_report, by a
// generator's mk — is queued for a pipeline slot like port -1, where it
// used to index the TM's port table out of range. The switch must keep
// running and the packet-conservation identity must still close. (An
// external test because faults imports core.)
func TestEmitOnMissingPort(t *testing.T) {
	const badPort = 9 // on a 4-port switch
	report := packet.BuildControlFrame(packet.Broadcast, packet.MACFromUint64(3),
		&packet.Report{Kind: packet.ReportAnomaly})
	data := packet.BuildFrame(packet.FrameSpec{Flow: packet.Flow{
		Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 1, 0, 1),
		SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP,
	}})

	cases := []struct {
		name  string
		setup func(t *testing.T, sw *core.Switch)
	}{
		{"egress handler", func(t *testing.T, sw *core.Switch) {
			p := pisa.NewProgram("egress-emit")
			p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) { ctx.EgressPort = 1 })
			p.HandleFunc(events.EgressPacket, func(ctx *pisa.Context) {
				if ctx.Has(packet.LayerIPv4) { // not for the reports themselves
					ctx.Emit(report, badPort)
				}
			})
			p.HandleFunc(events.GeneratedPacket, func(ctx *pisa.Context) { ctx.EgressPort = 2 })
			sw.MustLoad(p)
		}},
		{"uP4 Egress control", func(t *testing.T, sw *core.Switch) {
			sw.MustLoad(p4.MustCompile(`
control Ingress { apply { forward(1); } }
control Egress { apply { emit_report(9, 1, std.pkt_len); } }
`).Instantiate("egress-report", p4.Options{}).Program())
		}},
		{"generator", func(t *testing.T, sw *core.Switch) {
			p := pisa.NewProgram("gen-emit")
			p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) { ctx.EgressPort = 1 })
			p.HandleFunc(events.GeneratedPacket, func(ctx *pisa.Context) { ctx.EgressPort = 2 })
			sw.MustLoad(p)
			if err := sw.AddGenerator(sim.Microsecond, func(uint64) ([]byte, int) { return report, badPort }); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched := sim.NewScheduler()
			sw := core.New(core.Config{Ports: 4}, core.EventDriven(), sched)
			tc.setup(t, sw)
			for i := 0; i < 8; i++ {
				sw.Inject(0, data)
			}
			sched.Run(20 * sim.Microsecond)
			st := sw.Stats()
			if st.Generated == 0 {
				t.Fatalf("nothing was emitted: %+v", st)
			}
			if st.TxPackets < 8 {
				t.Errorf("TxPackets = %d, want the 8 data frames forwarded", st.TxPackets)
			}
			if r := faults.AuditSwitches(sw); !r.OK() {
				t.Errorf("conservation broken after emitting on port %d: %v", badPort, r)
			}
		})
	}
}
