package flow

import (
	"fmt"
	"strings"

	"ovshighway/internal/pkt"
)

// ActionType discriminates Action values.
type ActionType uint8

// Action types supported by the datapath.
const (
	ActOutput     ActionType = iota + 1 // forward to Port
	ActController                       // punt to the OpenFlow controller
	ActDrop                             // explicit drop
	ActSetEthSrc                        // rewrite source MAC
	ActSetEthDst                        // rewrite destination MAC
	ActDecTTL                           // decrement IPv4 TTL, drop at zero
	ActPushVlan                         // push an 802.1Q tag carrying Vlan
	ActPopVlan                          // strip the outermost 802.1Q tag
	ActSetVlan                          // rewrite the vid of an existing tag
	ActSetVlanPcp                       // rewrite the PCP bits of an existing tag
	ActOutputECMP                       // hash-spread output over Ports[:NPorts]
)

// MaxECMPPorts bounds the number of parallel destinations one ECMP action
// can spread over. A fixed-size array keeps Action comparable (Actions.Equal
// relies on ==) and the datapath allocation-free.
const MaxECMPPorts = 8

// Action is one datapath action. The zero value is invalid.
type Action struct {
	Type ActionType
	Port uint32  // ActOutput
	MAC  pkt.MAC // ActSetEthSrc / ActSetEthDst
	Vlan uint16  // ActPushVlan / ActSetVlan
	PCP  uint8   // ActSetVlanPcp
	// Ports[:NPorts] are the parallel destinations of an ActOutputECMP: each
	// packet is pinned to one of them by its flow hash (lane + high half of Hash64), so a
	// flow never straddles paths while distinct flows spread.
	Ports  [MaxECMPPorts]uint32
	NPorts uint8
}

// Output returns an output-to-port action.
func Output(port uint32) Action { return Action{Type: ActOutput, Port: port} }

// Controller returns a punt-to-controller action.
func Controller() Action { return Action{Type: ActController} }

// Drop returns an explicit drop action.
func Drop() Action { return Action{Type: ActDrop} }

// SetEthSrc returns a source-MAC rewrite action.
func SetEthSrc(m pkt.MAC) Action { return Action{Type: ActSetEthSrc, MAC: m} }

// SetEthDst returns a destination-MAC rewrite action.
func SetEthDst(m pkt.MAC) Action { return Action{Type: ActSetEthDst, MAC: m} }

// DecTTL returns a TTL-decrement action.
func DecTTL() Action { return Action{Type: ActDecTTL} }

// PushVlan returns an action pushing an 802.1Q tag with the given VLAN id —
// the sender-side half of trunk-lane steering.
func PushVlan(vid uint16) Action { return Action{Type: ActPushVlan, Vlan: vid & 0x0fff} }

// PopVlan returns an action stripping the outermost 802.1Q tag — the
// receiver-side half of trunk-lane steering.
func PopVlan() Action { return Action{Type: ActPopVlan} }

// SetVlan returns an action rewriting the VLAN id of an already-tagged
// frame (ovs-ofctl mod_vlan_vid).
func SetVlan(vid uint16) Action { return Action{Type: ActSetVlan, Vlan: vid & 0x0fff} }

// SetVlanPcp returns an action rewriting the 802.1Q priority code point of
// an already-tagged frame (ovs-ofctl mod_vlan_pcp) — how a lane's crossing
// priority is stamped onto trunk traffic for the DRR scheduler.
func SetVlanPcp(pcp uint8) Action { return Action{Type: ActSetVlanPcp, PCP: pcp & 0x07} }

// OutputECMP returns an action spreading output over up to MaxECMPPorts
// parallel destinations by per-packet flow hash — the multi-trunk uplink
// fan-out of the fabric's ECMP mode. Ports beyond MaxECMPPorts are dropped;
// a single-port list degenerates to plain output semantics (but is still
// never treated as a p-2-p bypass candidate).
func OutputECMP(ports ...uint32) Action {
	a := Action{Type: ActOutputECMP}
	for _, p := range ports {
		if int(a.NPorts) == MaxECMPPorts {
			break
		}
		a.Ports[a.NPorts] = p
		a.NPorts++
	}
	return a
}

// String renders the action in ovs-ofctl style.
func (a Action) String() string {
	switch a.Type {
	case ActOutput:
		return fmt.Sprintf("output:%d", a.Port)
	case ActController:
		return "CONTROLLER"
	case ActDrop:
		return "drop"
	case ActSetEthSrc:
		return "mod_dl_src:" + a.MAC.String()
	case ActSetEthDst:
		return "mod_dl_dst:" + a.MAC.String()
	case ActDecTTL:
		return "dec_ttl"
	case ActPushVlan:
		return fmt.Sprintf("push_vlan:%d", a.Vlan)
	case ActPopVlan:
		return "strip_vlan"
	case ActSetVlan:
		return fmt.Sprintf("mod_vlan_vid:%d", a.Vlan)
	case ActSetVlanPcp:
		return fmt.Sprintf("mod_vlan_pcp:%d", a.PCP)
	case ActOutputECMP:
		var sb strings.Builder
		sb.WriteString("output_ecmp")
		for i := uint8(0); i < a.NPorts; i++ {
			fmt.Fprintf(&sb, ":%d", a.Ports[i])
		}
		return sb.String()
	default:
		return fmt.Sprintf("unknown(%d)", a.Type)
	}
}

// Actions is an ordered action list.
type Actions []Action

// String renders the list in ovs-ofctl style ("drop" when empty).
func (as Actions) String() string {
	if len(as) == 0 {
		return "drop"
	}
	parts := make([]string, len(as))
	for i, a := range as {
		parts[i] = a.String()
	}
	return strings.Join(parts, ",")
}

// Equal reports element-wise equality.
func (as Actions) Equal(other Actions) bool {
	if len(as) != len(other) {
		return false
	}
	for i := range as {
		if as[i] != other[i] {
			return false
		}
	}
	return true
}

// OutputPorts returns the set of ports the list outputs to, including every
// parallel destination of ECMP actions.
func (as Actions) OutputPorts() []uint32 {
	var out []uint32
	for _, a := range as {
		switch a.Type {
		case ActOutput:
			out = append(out, a.Port)
		case ActOutputECMP:
			out = append(out, a.Ports[:a.NPorts]...)
		}
	}
	return out
}

// IsPureOutputTo reports whether the action list is exactly one output to
// the given port — the action shape required for a p-2-p bypass.
func (as Actions) IsPureOutputTo(port uint32) bool {
	return len(as) == 1 && as[0].Type == ActOutput && as[0].Port == port
}

// SoleOutput returns the destination when the list is exactly one output
// action, with ok reporting whether that is the case.
func (as Actions) SoleOutput() (port uint32, ok bool) {
	if len(as) == 1 && as[0].Type == ActOutput {
		return as[0].Port, true
	}
	return 0, false
}
