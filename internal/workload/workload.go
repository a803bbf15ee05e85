// Package workload generates synthetic traffic for the experiments:
// constant-bit-rate and Poisson arrivals, heavy-tailed flow mixes, and
// microburst injections. Generators drive a sink (usually a switch port)
// through the simulation scheduler, with all randomness drawn from the
// deterministic sim.RNG.
//
// This is the substitution for the paper's real line-rate traffic (see
// DESIGN.md §2): what matters for every claim is arrival spacing relative
// to the pipeline's cycle budget and the flow structure, both of which
// these generators control exactly.
//
// Every stream is a sim.Runner record owned by its Gen and re-armed with
// AfterRunner, so running, ending and restarting a stream allocates
// nothing once the generator has run one of its kind: finished CBR,
// Poisson and burst records wait on the generator's free lists. A record
// keeps the last frame it built, with the flow and size that built it,
// and hands the same bytes to the sink while they repeat; a saturate
// stream keeps one frame per sub-flow. Only the bytes are
// cached: every random draw and every scheduled event happens as if each
// frame were built afresh.
package workload

import (
	"math"

	"repro/internal/packet"
	"repro/internal/sim"
)

// Sink consumes generated frames, timed by the scheduler. core.Switch's
// Inject method (curried with a port) is the usual sink. The frame is
// read-only and valid only for the duration of the call: a stream hands
// the same bytes to its sink again for as long as its frame does not
// change, so a sink that writes to them corrupts later frames, and one
// that defers consumption must copy (Switch.Inject and Host.Send both
// copy before returning).
type Sink func(data []byte)

// SizeDist picks frame sizes.
type SizeDist interface {
	// Next returns the next frame length in bytes.
	Next(rng *sim.RNG) int
}

// FixedSize always returns the same frame length.
type FixedSize int

// Next implements SizeDist.
func (s FixedSize) Next(*sim.RNG) int { return int(s) }

// IMix approximates the classic Internet mix: 7 parts 60B (64B wire),
// 4 parts 576B, 1 part 1514B.
type IMix struct{}

// Next implements SizeDist.
func (IMix) Next(rng *sim.RNG) int {
	switch r := rng.Intn(12); {
	case r < 7:
		return 60
	case r < 11:
		return 576
	default:
		return 1514
	}
}

// UniformSize picks uniformly in [Min, Max].
type UniformSize struct{ Min, Max int }

// Next implements SizeDist.
func (u UniformSize) Next(rng *sim.RNG) int {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + rng.Intn(u.Max-u.Min+1)
}

// FlowSet is a pool of flows to draw packets from; draws follow a Zipf-ish
// popularity so a few flows dominate, as in real traffic.
type FlowSet struct {
	flows []packet.Flow
	cdf   []float64
	// guide is a guide table over n+1 equal buckets of [0, 1]: guide[b]
	// is the first index whose cdf value lands in bucket b or later. A
	// draw scans forward from its bucket's entry to the first cdf value
	// not below it, the same index a binary search finds.
	guide []int32
}

// NewFlowSet builds n flows between the given /24-style host ranges with
// Zipf popularity of exponent alpha (alpha=0 gives uniform).
func NewFlowSet(n int, alpha float64, base packet.IP) *FlowSet {
	fs := &FlowSet{flows: make([]packet.Flow, n), cdf: make([]float64, n), guide: make([]int32, n+1)}
	var sum float64
	for i := 0; i < n; i++ {
		fs.flows[i] = packet.Flow{
			Src:     base + packet.IP(i%251),
			Dst:     base + packet.IP(1000+i),
			SrcPort: uint16(1024 + i%50000),
			DstPort: uint16(80 + i%7),
			Proto:   packet.ProtoUDP,
		}
		w := 1.0
		if alpha > 0 {
			w = 1.0 / pow(float64(i+1), alpha)
		}
		sum += w
		fs.cdf[i] = sum
	}
	// Bucket b holds the draws u with int(u·n) = b; u < 1 can still round
	// to bucket n, hence n+1 entries. Floating-point multiplication is
	// monotone, so every index below guide[b] has int(cdf·n) < b and hence
	// cdf < u for each draw u in bucket b: the scan from guide[b] cannot
	// pass the first cdf value not below u.
	next := 0 // the first bucket without an entry
	for i := range fs.cdf {
		fs.cdf[i] /= sum
		for b := int(fs.cdf[i] * float64(n)); next <= b && next <= n; next++ {
			fs.guide[next] = int32(i)
		}
	}
	for ; next <= n; next++ {
		fs.guide[next] = int32(max(n-1, 0))
	}
	return fs
}

func pow(x, a float64) float64 { return math.Pow(x, a) }

// Flow returns flow i.
func (fs *FlowSet) Flow(i int) packet.Flow { return fs.flows[i] }

// Pick draws a flow index by popularity.
func (fs *FlowSet) Pick(rng *sim.RNG) int { return fs.pick(rng.Float64()) }

// pick returns the first index whose cdf value is at least u (the last
// index if none is).
func (fs *FlowSet) pick(u float64) int {
	last := len(fs.cdf) - 1
	i := int(fs.guide[int(u*float64(len(fs.cdf)))])
	for i < last && fs.cdf[i] < u {
		i++
	}
	return i
}

// Gen is a traffic generator bound to a scheduler and sink.
type Gen struct {
	sched *sim.Scheduler
	rng   *sim.RNG
	sink  Sink

	// SentPackets counts frames delivered to the sink.
	SentPackets uint64
	stopped     bool

	// satSeq is the saturate sub-flow cursor, shared by every saturate
	// stream the generator starts, so a later stream continues the
	// rotation.
	satSeq uint32

	// Finished CBR, Poisson and burst records, each list linked through
	// the records' next fields.
	freeCBR     *cbr
	freePoisson *poisson
	freeBurst   *burst
}

// NewGen builds a generator.
func NewGen(sched *sim.Scheduler, rng *sim.RNG, sink Sink) *Gen {
	return &Gen{sched: sched, rng: rng, sink: sink}
}

func (g *Gen) emit(data []byte) {
	if g.stopped {
		return
	}
	g.SentPackets++
	g.sink(data)
}

// done reports whether a stream that stops at until must not emit now.
func (g *Gen) done(until sim.Time) bool {
	return g.stopped || (until > 0 && g.sched.Now() >= until)
}

// frameCache is a stream's last frame and the flow and size that built
// it, the only FrameSpec fields a stream sets. While they repeat, the
// same bytes go to the sink again instead of being re-serialised and
// re-checksummed. A new frame of the same protocol that fits the buffer
// rewrites only the headers: no payload byte of the buffer is ever
// written (the sink contract makes frames read-only), and a header never
// reaches past the 60-byte minimum frame, so a payload is zero without
// clearing it. A change of protocol rebuilds the frame with AppendFrame,
// which clears it.
type frameCache struct {
	flow packet.Flow
	size int
	buf  []byte
}

func (c *frameCache) frame(flow packet.Flow, size int) []byte {
	if size == c.size && flow == c.flow && len(c.buf) > 0 {
		return c.buf
	}
	spec := packet.FrameSpec{Flow: flow, TotalLen: size}
	if n := packet.FrameLen(spec); flow.Proto == c.flow.Proto && len(c.buf) > 0 && n <= cap(c.buf) {
		c.buf = c.buf[:n]
		packet.PutFrameHeaders(c.buf, spec)
	} else {
		c.buf = packet.AppendFrame(c.buf[:0], spec)
	}
	c.flow, c.size = flow, size
	return c.buf
}

// CBRConfig describes a constant-bit-rate stream.
type CBRConfig struct {
	Flow  packet.Flow
	Size  SizeDist
	Rate  sim.Rate // offered rate including wire overhead of 24B/frame
	Until sim.Time // stop time (0 = run forever)
}

// cbr is one running CBR stream. It re-arms itself after every emission
// and goes back on its generator's free list from the Run that finds the
// stream over.
type cbr struct {
	g    *Gen
	cfg  CBRConfig
	next *cbr
	frameCache
}

// StartCBR emits frames back-to-back spaced to match the offered rate.
func (g *Gen) StartCBR(cfg CBRConfig) {
	if cfg.Size == nil {
		cfg.Size = FixedSize(packet.MinFrameLen)
	}
	c := g.freeCBR
	if c == nil {
		c = &cbr{g: g}
	} else {
		g.freeCBR, c.next = c.next, nil
	}
	c.cfg = cfg
	c.Run()
}

// Run emits one frame and schedules the next.
func (c *cbr) Run() {
	g := c.g
	if g.done(c.cfg.Until) {
		c.next, g.freeCBR = g.freeCBR, c
		return
	}
	n := c.cfg.Size.Next(g.rng)
	data := c.frame(c.cfg.Flow, n)
	g.emit(data)
	gap := c.cfg.Rate.ByteTime(len(data) + 24) // wire footprint spacing
	g.sched.AfterRunner(gap, c)
}

// PoissonConfig describes Poisson packet arrivals over a flow set.
type PoissonConfig struct {
	Flows *FlowSet
	Size  SizeDist
	// MeanGap is the mean inter-arrival time.
	MeanGap sim.Time
	Until   sim.Time
}

// poisson is one running Poisson stream, recycled like cbr. Its frame
// cache rarely hits — consecutive frames seldom share flow and size —
// and costs one spec compare when it misses.
type poisson struct {
	g    *Gen
	cfg  PoissonConfig
	next *poisson
	frameCache
}

// StartPoisson emits frames with exponential inter-arrival times, drawing
// each frame's flow from the flow set's popularity distribution.
func (g *Gen) StartPoisson(cfg PoissonConfig) {
	if cfg.Size == nil {
		cfg.Size = IMix{}
	}
	p := g.freePoisson
	if p == nil {
		p = &poisson{g: g}
	} else {
		g.freePoisson, p.next = p.next, nil
	}
	p.cfg = cfg
	g.sched.AfterRunner(g.rng.ExpTime(cfg.MeanGap), p)
}

// Run emits one frame and schedules the next.
func (p *poisson) Run() {
	g := p.g
	if g.done(p.cfg.Until) {
		p.next, g.freePoisson = g.freePoisson, p
		return
	}
	fl := p.cfg.Flows.Flow(p.cfg.Flows.Pick(g.rng))
	n := p.cfg.Size.Next(g.rng)
	g.emit(p.frame(fl, n))
	g.sched.AfterRunner(g.rng.ExpTime(p.cfg.MeanGap), p)
}

// BurstConfig describes a microburst: a train of frames from one flow
// arriving nearly back-to-back.
type BurstConfig struct {
	Flow    packet.Flow
	Size    SizeDist
	Count   int
	Spacing sim.Time // inter-frame spacing within the burst
	At      sim.Time // burst start
}

// burst is one scheduled train. Its first Run starts the train by
// scheduling the record once per frame; every later Run emits one frame,
// and the last returns the record to the free list.
type burst struct {
	g       *Gen
	cfg     BurstConfig
	started bool
	left    int // emissions still scheduled
	next    *burst
	frameCache
}

// ScheduleBurst injects a burst at the configured time.
func (g *Gen) ScheduleBurst(cfg BurstConfig) {
	if cfg.Size == nil {
		cfg.Size = FixedSize(packet.MinFrameLen)
	}
	if cfg.Spacing <= 0 {
		cfg.Spacing = sim.Nanosecond
	}
	b := g.freeBurst
	if b == nil {
		b = &burst{g: g}
	} else {
		g.freeBurst, b.next = b.next, nil
	}
	b.cfg, b.started = cfg, false
	g.sched.AtRunner(cfg.At, b)
}

// Run starts the train or emits one of its frames.
func (b *burst) Run() {
	g := b.g
	if !b.started {
		b.started = true
		b.left = b.cfg.Count
		for i := 0; i < b.cfg.Count; i++ {
			g.sched.AfterRunner(sim.Time(i)*b.cfg.Spacing, b)
		}
	} else {
		n := b.cfg.Size.Next(g.rng)
		g.emit(b.frame(b.cfg.Flow, n))
		b.left--
	}
	if b.left <= 0 {
		b.next, g.freeBurst = g.freeBurst, b
	}
}

// SaturateConfig describes full-line-rate arrival of minimum-size frames —
// the worst case for the pipeline's slot budget (experiment E6).
type SaturateConfig struct {
	Flow  packet.Flow
	Rate  sim.Rate
	Size  int // frame length (default minimum)
	Until sim.Time
	// Load scales the offered rate (1.0 = exactly line rate). Zero — what
	// a config that leaves Load out holds — or less means 1.0.
	Load float64
}

// satFlows is the number of sub-flows a saturate stream cycles through.
const satFlows = 16

// saturate is a saturate stream. Its frames take satFlows distinct
// values, one per sub-flow; each is built once, in place in its slot of
// frames, the first time the stream emits it.
type saturate struct {
	g      *Gen
	cfg    SaturateConfig
	gap    sim.Time
	flen   int    // frame length: cfg.Size raised to the minimum frame
	frames []byte // satFlows slots of flen bytes
	built  uint16 // bit i: slot i holds sub-flow i's frame
}

// StartSaturate emits fixed-size frames at Load x line rate with exact
// deterministic spacing.
func (g *Gen) StartSaturate(cfg SaturateConfig) {
	if cfg.Size <= 0 {
		cfg.Size = packet.MinFrameLen
	}
	if cfg.Load <= 0 {
		cfg.Load = 1.0
	}
	flen := max(cfg.Size, packet.MinFrameLen)
	s := &saturate{
		g: g, cfg: cfg, flen: flen,
		gap:    sim.Time(float64(cfg.Rate.ByteTime(cfg.Size+24)) / cfg.Load),
		frames: make([]byte, satFlows*flen),
	}
	s.Run()
}

// Run emits the next sub-flow's frame and schedules the one after.
func (s *saturate) Run() {
	g := s.g
	if g.done(s.cfg.Until) {
		return
	}
	i := int(g.satSeq % satFlows) // a few sub-flows for hashing
	g.satSeq++
	lo, hi := i*s.flen, (i+1)*s.flen
	frame := s.frames[lo:hi:hi]
	if s.built&(1<<i) == 0 {
		fl := s.cfg.Flow
		fl.SrcPort = uint16(1024 + i)
		packet.AppendFrame(frame[:0], packet.FrameSpec{Flow: fl, TotalLen: s.cfg.Size})
		s.built |= 1 << i
	}
	g.emit(frame)
	g.sched.AfterRunner(s.gap, s)
}
