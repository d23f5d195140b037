package vswitch

import (
	"encoding/binary"
	"testing"

	"ovshighway/internal/flow"
	"ovshighway/internal/mempool"
	"ovshighway/internal/pkt"
)

// forwardOne sends frame in on port 1, runs one datapath iteration and
// returns the frame that came out of port out (failing if none did).
func (e *testEnv) forwardOne(t *testing.T, frame []byte, out uint32) []byte {
	t.Helper()
	e.sendRaw(t, 1, frame)
	if e.sw.PollOnce() != 1 {
		t.Fatal("the switch did not take the frame")
	}
	got := make([]*mempool.Buf, 1)
	if e.pmds[out].Rx(got) != 1 {
		t.Fatalf("nothing came out of port %d", out)
	}
	defer got[0].Free()
	return append([]byte(nil), got[0].Bytes()...)
}

func udpFrame(t *testing.T, spec pkt.UDPSpec) []byte {
	t.Helper()
	raw := make([]byte, 256)
	n, err := pkt.BuildUDP(raw, spec)
	if err != nil {
		t.Fatal(err)
	}
	return raw[:n]
}

// TestLaterFragmentMissesPortRule: a later IPv4 fragment has no L4 header,
// so a rule on the destination port must not catch it even when its payload
// bytes spell that port where the header would be. The first fragment of the
// same datagram keys its real ports and does match.
func TestLaterFragmentMissesPortRule(t *testing.T) {
	env := newSyncEnv(t, Config{}, 3)
	env.sw.Table().Add(20, flow.MatchInPort(1).WithIPProto(pkt.ProtoUDP).WithL4Dst(defaultSpec.DstPort),
		flow.Actions{flow.Output(2)}, 0)
	env.sw.Table().Add(10, flow.MatchInPort(1), flow.Actions{flow.Output(3)}, 0)

	frame := udpFrame(t, defaultSpec)
	flags := frame[pkt.EthernetLen+6:]
	binary.BigEndian.PutUint16(flags, 0x2000) // MF, offset 0
	env.forwardOne(t, frame, 2)
	binary.BigEndian.PutUint16(flags, 0x2000|185) // MF, offset 1480
	env.forwardOne(t, frame, 3)
}

// TestInvalidIPv4HeaderIsNotRewritten: an IPv4 header whose TotalLen runs
// past the frame fails the walk's validation, so dec-TTL does not write
// through it; the frame still forwards on its L2 key.
func TestInvalidIPv4HeaderIsNotRewritten(t *testing.T) {
	env := newSyncEnv(t, Config{}, 2)
	env.sw.Table().Add(10, flow.MatchInPort(1), flow.Actions{flow.DecTTL(), flow.Output(2)}, 0)

	spec := defaultSpec
	spec.TTL = 10
	frame := udpFrame(t, spec)
	binary.BigEndian.PutUint16(frame[pkt.EthernetLen+2:], uint16(len(frame)))
	if got := env.forwardOne(t, frame, 2); string(got) != string(frame) {
		t.Fatalf("frame with a lying TotalLen was rewritten:\n got %x\nwant %x", got, frame)
	}
}

// TestVlanActionsMoveTheL3Offset: dec-TTL after a push or a pop writes the
// IPv4 header where the action before it moved it — behind a pushed tag,
// behind a tag pushed over an arriving one, in front of a popped tag's
// place.
func TestVlanActionsMoveTheL3Offset(t *testing.T) {
	spec := defaultSpec
	spec.TTL = 10
	tagged := spec
	tagged.VlanID = 5
	cases := []struct {
		name string
		in   pkt.UDPSpec
		acts flow.Actions
		l3   int
	}{
		{"push", spec, flow.Actions{flow.PushVlan(42), flow.DecTTL(), flow.Output(2)}, pkt.EthernetLen + pkt.VLANLen},
		{"push-over-tag", tagged, flow.Actions{flow.PushVlan(42), flow.DecTTL(), flow.Output(2)}, pkt.EthernetLen + 2*pkt.VLANLen},
		{"pop", tagged, flow.Actions{flow.PopVlan(), flow.DecTTL(), flow.Output(2)}, pkt.EthernetLen},
		{"push-pop", spec, flow.Actions{flow.PushVlan(42), flow.PopVlan(), flow.DecTTL(), flow.Output(2)}, pkt.EthernetLen},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := newSyncEnv(t, Config{}, 2)
			env.sw.Table().Add(10, flow.MatchInPort(1), c.acts, 0)
			got := env.forwardOne(t, udpFrame(t, c.in), 2)
			ip, err := pkt.DecodeIPv4(got[c.l3:])
			if err != nil {
				t.Fatalf("no IPv4 header at %d in %x: %v", c.l3, got, err)
			}
			if ip.TTL() != 9 || !ip.VerifyChecksum() {
				t.Fatalf("IPv4 header at %d: TTL %d, checksum valid %v; want 9, true (%x)", c.l3, ip.TTL(), ip.VerifyChecksum(), got)
			}
		})
	}
}
