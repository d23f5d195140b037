package vnf

import (
	"sync"
	"sync/atomic"

	"ovshighway/internal/dpdkr"
	"ovshighway/internal/mempool"
	"ovshighway/internal/pkt"
)

// FirewallRule drops packets matching the given IPv4 constraints; zero
// fields are wildcards.
type FirewallRule struct {
	SrcPrefix    pkt.IP4
	SrcPrefixLen int
	DstPrefix    pkt.IP4
	DstPrefixLen int
	Proto        uint8
	DstPort      uint16
}

func (r FirewallRule) matches(p *pkt.Parser) bool {
	if !p.Decoded.Has(pkt.LayerIPv4) {
		return false
	}
	if r.Proto != 0 && p.IPv4.Proto() != r.Proto {
		return false
	}
	if r.SrcPrefixLen > 0 {
		mask := ^uint32(0) << (32 - uint(r.SrcPrefixLen))
		if p.IPv4.Src().Uint32()&mask != r.SrcPrefix.Uint32()&mask {
			return false
		}
	}
	if r.DstPrefixLen > 0 {
		mask := ^uint32(0) << (32 - uint(r.DstPrefixLen))
		if p.IPv4.Dst().Uint32()&mask != r.DstPrefix.Uint32()&mask {
			return false
		}
	}
	if r.DstPort != 0 {
		var dst uint16
		switch {
		case p.Decoded.Has(pkt.LayerUDP):
			dst = p.UDP.DstPort()
		case p.Decoded.Has(pkt.LayerTCP):
			dst = p.TCP.DstPort()
		}
		if dst != r.DstPort {
			return false
		}
	}
	return true
}

// Firewall is a stateless packet filter VNF (Figure 1's first element).
type Firewall struct {
	rules   []FirewallRule
	Blocked atomic.Uint64
}

// NewFirewall builds a two-port firewall app dropping traffic that matches
// any rule and forwarding the rest to the opposite port.
func NewFirewall(name string, in, out *dpdkr.PMD, pool *mempool.Pool, rules []FirewallRule) (*App, *Firewall, error) {
	fw := &Firewall{rules: rules}
	var parser pkt.Parser
	handler := func(ctx *Ctx, inPort int, bufs []*mempool.Buf) {
		keep := bufs[:0]
		for _, b := range bufs {
			blocked := false
			if parser.Parse(b.Bytes()) == nil {
				for _, r := range fw.rules {
					if r.matches(&parser) {
						blocked = true
						break
					}
				}
			}
			if blocked {
				fw.Blocked.Add(1)
				ctx.Reject(b)
			} else {
				keep = append(keep, b)
			}
		}
		ctx.Tx(1-inPort, keep)
	}
	app, err := New(Config{Name: name, PMDs: []*dpdkr.PMD{in, out}, Pool: pool, Handler: handler})
	if err != nil {
		return nil, nil, err
	}
	return app, fw, nil
}

// Monitor is a passive per-flow accounting VNF (Figure 1's second element).
type Monitor struct {
	mu       sync.Mutex
	flows    map[pkt.FiveTuple]*MonitorEntry
	maxFlows int
	Overflow atomic.Uint64
}

// MonitorEntry is one tracked flow's counters.
type MonitorEntry struct {
	Packets uint64
	Bytes   uint64
}

// NewMonitor builds a two-port monitor app counting 5-tuple flows while
// forwarding everything.
func NewMonitor(name string, in, out *dpdkr.PMD, pool *mempool.Pool, maxFlows int) (*App, *Monitor, error) {
	if maxFlows == 0 {
		maxFlows = 65536
	}
	mon := &Monitor{flows: make(map[pkt.FiveTuple]*MonitorEntry), maxFlows: maxFlows}
	var parser pkt.Parser
	handler := func(ctx *Ctx, inPort int, bufs []*mempool.Buf) {
		for _, b := range bufs {
			if parser.Parse(b.Bytes()) != nil {
				continue
			}
			ft, ok := parser.FiveTuple()
			if !ok {
				continue
			}
			mon.mu.Lock()
			e := mon.flows[ft]
			if e == nil {
				if len(mon.flows) >= mon.maxFlows {
					mon.Overflow.Add(1)
					mon.mu.Unlock()
					continue
				}
				e = &MonitorEntry{}
				mon.flows[ft] = e
			}
			e.Packets++
			e.Bytes += uint64(b.Len)
			mon.mu.Unlock()
		}
		ctx.Tx(1-inPort, bufs)
	}
	app, err := New(Config{Name: name, PMDs: []*dpdkr.PMD{in, out}, Pool: pool, Handler: handler})
	if err != nil {
		return nil, nil, err
	}
	return app, mon, nil
}

// FlowCount returns the number of tracked flows.
func (m *Monitor) FlowCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.flows)
}

// Lookup returns a copy of one flow's counters.
func (m *Monitor) Lookup(ft pkt.FiveTuple) (MonitorEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.flows[ft]; ok {
		return *e, true
	}
	return MonitorEntry{}, false
}
