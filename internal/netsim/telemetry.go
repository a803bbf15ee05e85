package netsim

import (
	"fmt"

	"repro/internal/telemetry"
)

// EnableTelemetry attaches every registered switch to the collector (see
// core.Switch.EnableTelemetry). Call during single-threaded setup, after
// AddSwitch; switches added later must be enabled individually.
func (n *Network) EnableTelemetry(c *telemetry.Collector) {
	for _, sw := range n.switches {
		sw.EnableTelemetry(c)
	}
}

// RecordLinkTelemetry snapshots every link's directional wire counters
// into the collector's registry under "link.<id>.dir<d>.*". Call it only
// after Run returns: during a partitioned run each direction's counters
// are written by the receiving domain, so they may only be read here,
// single-threaded. Link ids follow creation order, so the recorded names
// and values are identical at any domain count.
func (n *Network) RecordLinkTelemetry(c *telemetry.Collector) {
	reg := c.Registry()
	for _, l := range n.links {
		for dir := 0; dir < 2; dir++ {
			d := l.Counters(dir)
			pre := fmt.Sprintf("link.%03d.dir%d.", l.id, dir)
			reg.Counter(pre + "sent").Add(d.Sent)
			reg.Counter(pre + "delivered").Add(d.Delivered)
			reg.Counter(pre + "lost").Add(d.LostAtSend + d.LostInFlight)
			reg.Gauge(pre + "inflight").Set(int64(d.InFlight()))
		}
	}
}
