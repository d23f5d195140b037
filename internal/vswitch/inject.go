package vswitch

import (
	"errors"

	"ovshighway/internal/flow"
	"ovshighway/internal/mempool"
	"ovshighway/internal/pkt"
)

// SetInjectionPool provides the buffer pool used for controller packet-out
// injection. Must be set before InjectPacketOut is used.
func (s *Switch) SetInjectionPool(p *mempool.Pool) {
	s.injectMu.Lock()
	s.injectPool = p
	s.injectMu.Unlock()
}

// InjectPacketOut executes a controller packet-out: the frame is copied into
// a datapath buffer and the action list is executed immediately on the
// control thread. Packets output to a dpdkr port travel the NORMAL channel —
// which is exactly why the modified PMD keeps polling it while a bypass is
// active.
func (s *Switch) InjectPacketOut(inPort uint32, actions flow.Actions, data []byte) error {
	s.injectMu.Lock()
	pool := s.injectPool
	s.injectMu.Unlock()
	if pool == nil {
		return errors.New("vswitch: no injection pool configured")
	}
	b, err := pool.Get()
	if err != nil {
		return err
	}
	if err := b.SetBytes(data); err != nil {
		b.Free()
		return err
	}
	b.Port = inPort

	var kp flow.Packed
	_, layers, l3, _ := flow.PackFrame(b.Bytes(), inPort, &kp)
	snap := s.portsSnap.Load()
	moved := false
	for _, a := range actions {
		switch a.Type {
		case flow.ActOutput:
			e := snap.entry(a.Port)
			if e == nil {
				// Output to an unknown port is a no-op; the buffer stays
				// live for later actions and is freed at the end if never
				// moved.
				continue
			}
			out := b
			if moved {
				out = b.Clone()
			}
			e.send([]*mempool.Buf{out}, true)
			moved = true
		case flow.ActController:
			ev := PacketInEvent{
				InPort: inPort,
				Reason: 1, // OFPR_ACTION
				Data:   s.borrowPuntData(b.Bytes()),
			}
			select {
			case s.packetIns <- ev:
			default:
				s.ReleasePacketIn(ev)
			}
		case flow.ActSetEthSrc, flow.ActSetEthDst:
			if !moved && layers.Has(pkt.LayerEthernet) {
				setEth(b.Bytes(), a)
			}
		case flow.ActDecTTL:
			if !moved && layers.Has(pkt.LayerIPv4) && !decTTL(b.Bytes(), l3) {
				b.Free()
				return nil
			}
		case flow.ActDrop:
			if !moved {
				b.Free()
			}
			return nil
		}
	}
	if !moved {
		b.Free()
	}
	return nil
}
