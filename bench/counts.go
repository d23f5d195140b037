package main

import (
	"ovshighway/internal/nic"
)

// counts is a snapshot of the per-layer counters the program publishes,
// summed over the system's nodes and trunks. Taken around the saturation
// windows; sub gives the movement inside them.
type counts [nCounts]uint64

const (
	cEMCHits = iota
	cSMCHits
	cClsHits
	cClsMisses
	cDedup
	cParseErrs
	cPMDBusy
	cPMDTotal
	cTxDropped
	cNICTxDropped
	cPoolFails
	cBypassPkts
	cCTHits
	cCTMisses
	cCTLive   // a gauge: sub keeps the later reading
	cCTTables // gauge: conntrack tables attached, 0 = the system has no conntrack
	cNICs     // gauge: NIC ports, 0 = the system has no NIC
	cTrunkCarried
	cTrunkDropped
	cTrunkUnrouted
	cDelivered // filled by the caller from the traffic's ledger
	nCounts
)

func (c counts) sub(prev counts) counts {
	for i := range c {
		if i != cCTLive && i != cCTTables && i != cNICs {
			c[i] -= prev[i]
		}
	}
	return c
}

// counts reads the public snapshot APIs: DatapathStats, AllPortStats,
// Pool.Stats, BypassLinks()[i].Stats, and the trunks' Stats and Unrouted.
func (s *system) counts() counts {
	var c counts
	for _, node := range s.nodes {
		dp := node.Switch.DatapathStats()
		c[cEMCHits] += dp.EMC.Hits
		c[cSMCHits] += dp.SMC.Hits
		c[cClsHits] += dp.ClassifierHits
		c[cClsMisses] += dp.ClassifierMisses
		c[cDedup] += dp.DedupHits
		c[cParseErrs] += dp.ParseErrors
		for _, l := range dp.PMDs {
			c[cPMDBusy] += l.BusyNanos
			c[cPMDTotal] += l.TotalNanos
		}
		c[cCTHits] += dp.Conntrack.Hits
		c[cCTMisses] += dp.Conntrack.Misses
		c[cCTLive] += dp.Conntrack.Live
		c[cCTTables] += uint64(len(node.Switch.ConntrackTables()))
		for _, ps := range node.Switch.AllPortStats() {
			c[cTxDropped] += ps.TxDropped
		}
		for _, p := range node.Switch.Ports() {
			if dev, ok := p.(*nic.NIC); ok {
				c[cNICs]++
				c[cNICTxDropped] += dev.PortCounters().TxDropped.Load()
			}
		}
		c[cPoolFails] += node.Pool.Stats().Fails
		for _, l := range node.Switch.BypassLinks() {
			c[cBypassPkts] += l.Stats.Read().RxPackets
		}
	}
	if s.trunks != nil {
		for _, tr := range s.trunks() {
			ab, ba := tr.Stats()
			c[cTrunkCarried] += ab.Carried + ba.Carried
			c[cTrunkDropped] += ab.Dropped + ba.Dropped
			c[cTrunkUnrouted] += tr.Unrouted()
		}
	}
	return c
}
