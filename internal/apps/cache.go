package apps

import (
	"encoding/binary"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
)

// NetCache-style in-network key-value cache (paper §3, In-Network
// Computing). The data plane caches hot items and answers reads without
// reaching the storage server; timer events implement the two
// capabilities the paper highlights: an approximate-LRU replacement
// policy (periodic aging of access counters) and fast statistics clearing
// so the cache adapts to workload changes.
//
// Wire format: key-value requests ride UDP on CachePort. The payload is
// "op(1) key(8) value(8)": op 1 = GET, 2 = PUT, 3 = REPLY.

// Cache protocol constants.
const (
	CachePort  = 9000
	CacheGet   = 1
	CachePut   = 2
	CacheReply = 3
)

// CacheConfig parameterizes the cache.
type CacheConfig struct {
	// Ways is the number of cache slots.
	Ways int
	// ServerPort is the switch port toward the storage server.
	ServerPort int
	// ClientPort is the switch port toward clients.
	ClientPort int
	// AdmitThreshold is the access count at which a key is cached.
	AdmitThreshold uint64
}

// cacheSlot is one cached item.
type cacheSlot struct {
	key   uint64
	value uint64
	valid bool
	hits  uint64
}

// Cache is the in-network cache application.
type Cache struct {
	cfg   CacheConfig
	slots []cacheSlot
	// heat tracks access counts for admission (a small CMS would be the
	// hardware structure; a direct-mapped counter array is equivalent at
	// this scale).
	heat map[uint64]uint64

	Hits, Misses uint64
	Evictions    uint64
	Ages         uint64
}

// NewCache builds the cache and its program.
func NewCache(cfg CacheConfig) (*Cache, *pisa.Program) {
	if cfg.Ways <= 0 {
		cfg.Ways = 64
	}
	if cfg.AdmitThreshold == 0 {
		cfg.AdmitThreshold = 3
	}
	c := &Cache{cfg: cfg, slots: make([]cacheSlot, cfg.Ways), heat: make(map[uint64]uint64)}
	p := pisa.NewProgram("netcache")

	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		op, key, val, ok := c.parseReq(ctx)
		if !ok {
			// Not cache traffic: pass through by direction.
			if ctx.Pkt.InPort == cfg.ClientPort {
				ctx.EgressPort = cfg.ServerPort
			} else {
				ctx.EgressPort = cfg.ClientPort
			}
			return
		}
		switch op {
		case CacheGet:
			if slot, hit := c.lookup(key); hit {
				c.Hits++
				c.slots[slot].hits++
				// Answer from the switch: turn the request around.
				ctx.Emit(c.buildReply(ctx, key, c.slots[slot].value), ctx.Pkt.InPort)
				ctx.Drop()
				return
			}
			c.Misses++
			c.heat[key]++
			ctx.EgressPort = cfg.ServerPort
		case CachePut:
			// Writes invalidate (write-through to the server).
			if slot, hit := c.lookup(key); hit {
				c.slots[slot].valid = false
			}
			ctx.EgressPort = cfg.ServerPort
		case CacheReply:
			// Server reply passing back: admission check.
			if c.heat[key] >= cfg.AdmitThreshold {
				c.admit(key, val)
				delete(c.heat, key)
			}
			ctx.EgressPort = cfg.ClientPort
		default:
			ctx.EgressPort = cfg.ServerPort
		}
	})

	// Timer 0: approximate-LRU aging — decay per-slot hit counters so
	// cold items become eviction candidates. Timer 1: clear admission
	// statistics (the NetCache "react to workload changes" knob).
	p.HandleFunc(events.TimerExpiration, func(ctx *pisa.Context) {
		switch ctx.Ev.TimerID {
		case 0:
			c.Ages++
			for i := range c.slots {
				c.slots[i].hits >>= 1 // halve: approximate LRU
			}
		case 1:
			c.heat = make(map[uint64]uint64)
		}
	})
	return c, p
}

// Arm configures the aging and stats-clear timers.
func (c *Cache) Arm(sw *core.Switch, agePeriod, clearPeriod sim.Time) error {
	if err := sw.ConfigureTimer(0, agePeriod); err != nil {
		return err
	}
	return sw.ConfigureTimer(1, clearPeriod)
}

func (c *Cache) parseReq(ctx *pisa.Context) (op int, key, val uint64, ok bool) {
	if !ctx.Has(packet.LayerUDP) || ctx.Parsed.UDP.DstPort != CachePort && ctx.Parsed.UDP.SrcPort != CachePort {
		return 0, 0, 0, false
	}
	pay := ctx.Parsed.UDP.LayerPayload()
	if len(pay) < 17 {
		return 0, 0, 0, false
	}
	return int(pay[0]), binary.BigEndian.Uint64(pay[1:9]), binary.BigEndian.Uint64(pay[9:17]), true
}

// buildReply turns a GET into a REPLY frame back toward the requester.
func (c *Cache) buildReply(ctx *pisa.Context, key, val uint64) []byte {
	flow := ctx.Flow.Reverse()
	total := packet.EthernetHeaderLen + packet.IPv4HeaderLen + packet.UDPHeaderLen + 17
	data := packet.BuildFrame(packet.FrameSpec{Flow: flow, TotalLen: total})
	pay := data[packet.EthernetHeaderLen+packet.IPv4HeaderLen+packet.UDPHeaderLen:]
	pay[0] = CacheReply
	binary.BigEndian.PutUint64(pay[1:9], key)
	binary.BigEndian.PutUint64(pay[9:17], val)
	return data
}

func (c *Cache) lookup(key uint64) (int, bool) {
	for i := range c.slots {
		if c.slots[i].valid && c.slots[i].key == key {
			return i, true
		}
	}
	return -1, false
}

// admit inserts a key, evicting the approximately-least-recently-used
// slot (minimum aged hit counter).
func (c *Cache) admit(key, val uint64) {
	victim := 0
	var minHits uint64 = ^uint64(0)
	for i := range c.slots {
		if !c.slots[i].valid {
			victim = i
			minHits = 0
			break
		}
		if c.slots[i].hits < minHits {
			minHits = c.slots[i].hits
			victim = i
		}
	}
	if c.slots[victim].valid {
		c.Evictions++
	}
	c.slots[victim] = cacheSlot{key: key, value: val, valid: true, hits: 1}
}

// BuildCacheRequest builds a client GET/PUT frame for the cache protocol.
func BuildCacheRequest(flow packet.Flow, op int, key, val uint64) []byte {
	flow.DstPort = CachePort
	flow.Proto = packet.ProtoUDP
	total := packet.EthernetHeaderLen + packet.IPv4HeaderLen + packet.UDPHeaderLen + 17
	data := packet.BuildFrame(packet.FrameSpec{Flow: flow, TotalLen: total})
	pay := data[packet.EthernetHeaderLen+packet.IPv4HeaderLen+packet.UDPHeaderLen:]
	pay[0] = byte(op)
	binary.BigEndian.PutUint64(pay[1:9], key)
	binary.BigEndian.PutUint64(pay[9:17], val)
	return data
}

// BuildCacheReply builds a server REPLY frame.
func BuildCacheReply(flow packet.Flow, key, val uint64) []byte {
	flow.SrcPort = CachePort
	flow.Proto = packet.ProtoUDP
	total := packet.EthernetHeaderLen + packet.IPv4HeaderLen + packet.UDPHeaderLen + 17
	data := packet.BuildFrame(packet.FrameSpec{Flow: flow, TotalLen: total})
	pay := data[packet.EthernetHeaderLen+packet.IPv4HeaderLen+packet.UDPHeaderLen:]
	pay[0] = CacheReply
	binary.BigEndian.PutUint64(pay[1:9], key)
	binary.BigEndian.PutUint64(pay[9:17], val)
	return data
}
