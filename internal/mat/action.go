// Package mat implements SpeedyBox's Match-Action Tables: the Local MAT
// entry that holds what one NF recorded of a flow during the initial
// packet's chain traversal (paper §IV), the Global MAT of consolidated
// fast-path rules (§V), and the header-action consolidation algorithm
// (§V-B). Neither table has storage of its own: a flow's rule is the
// first word of its entry in the flow table, which only this package
// casts (Global), and its Local MAT entries are the spans of the
// recording the rule was built from and holds (GlobalRule.Spans; DESIGN
// §16, "the flow record").
package mat

import (
	"bytes"
	"fmt"

	"github.com/fastpathnfv/speedybox/internal/packet"
)

// ActionKind enumerates the five standardized header actions the NF
// processing abstraction defines (paper §IV-A1).
type ActionKind int

// The standardized header actions. Enum starts at one; Forward is the
// default when an NF records nothing.
const (
	// ActionForward passes the packet unmodified (Monitors, IDS).
	ActionForward ActionKind = iota + 1
	// ActionDrop discards the packet (Firewalls).
	ActionDrop
	// ActionModify rewrites one header field (NATs, Load Balancers,
	// Gateways).
	ActionModify
	// ActionEncap pushes a header (VPN adding an AH).
	ActionEncap
	// ActionDecap pops a header (VPN removing an AH).
	ActionDecap
)

// String returns the lowercase action name used in the paper.
func (k ActionKind) String() string {
	switch k {
	case ActionForward:
		return "forward"
	case ActionDrop:
		return "drop"
	case ActionModify:
		return "modify"
	case ActionEncap:
		return "encap"
	case ActionDecap:
		return "decap"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// Valid reports whether k is a defined action kind.
func (k ActionKind) Valid() bool { return k >= ActionForward && k <= ActionDecap }

// HeaderAction is one recorded header action with its arguments, the
// unit the localmat_add_HA API appends (paper Figure 2).
type HeaderAction struct {
	// Kind selects the action.
	Kind ActionKind
	// Field and Value apply to ActionModify.
	Field packet.Field
	Value []byte
	// Header applies to ActionEncap.
	Header packet.ExtraHeader
	// HeaderType applies to ActionDecap.
	HeaderType packet.HeaderType
}

// Forward returns a forward action.
func Forward() HeaderAction { return HeaderAction{Kind: ActionForward} }

// Drop returns a drop action.
func Drop() HeaderAction { return HeaderAction{Kind: ActionDrop} }

// Modify returns a modify action for one field. The value is copied at
// the API boundary so callers may reuse their buffer.
func Modify(f packet.Field, value []byte) HeaderAction {
	v := make([]byte, len(value))
	copy(v, value)
	return HeaderAction{Kind: ActionModify, Field: f, Value: v}
}

// Encap returns an encapsulation action.
func Encap(h packet.ExtraHeader) HeaderAction {
	return HeaderAction{Kind: ActionEncap, Header: h}
}

// Decap returns a decapsulation action for the outermost header of the
// given type.
func Decap(t packet.HeaderType) HeaderAction {
	return HeaderAction{Kind: ActionDecap, HeaderType: t}
}

// Validate reports whether the action is well-formed. It takes the
// action by pointer, as Equal does: a 72-byte action passed by value is
// a stack copy on the recording path (DESIGN §16, "Stores in place").
func (a *HeaderAction) Validate() error {
	switch a.Kind {
	case ActionForward, ActionDrop:
		return nil
	case ActionModify:
		return ValidateModify(a.Field, a.Value)
	case ActionEncap:
		if !knownHeader(a.Header.Type) {
			return fmt.Errorf("mat: encap with unknown header type %d", int(a.Header.Type))
		}
		return nil
	case ActionDecap:
		if !knownHeader(a.HeaderType) {
			return fmt.Errorf("mat: decap with unknown header type %d", int(a.HeaderType))
		}
		return nil
	default:
		return fmt.Errorf("mat: invalid action kind %d", int(a.Kind))
	}
}

// ValidateModify is Validate of a modify of field f to value.
func ValidateModify(f packet.Field, value []byte) error {
	if !f.Valid() {
		return fmt.Errorf("mat: modify with invalid field %d", int(f))
	}
	if len(value) != f.Size() {
		return fmt.Errorf("mat: modify %v needs %d bytes, got %d", f, f.Size(), len(value))
	}
	return nil
}

// String renders the action in the paper's notation, e.g.
// "modify(DIP)".
func (a HeaderAction) String() string {
	switch a.Kind {
	case ActionModify:
		return fmt.Sprintf("modify(%v)", a.Field)
	case ActionEncap:
		return fmt.Sprintf("encap(%v)", a.Header.Type)
	case ActionDecap:
		return fmt.Sprintf("decap(%v)", a.HeaderType)
	default:
		return a.Kind.String()
	}
}

// Equal reports deep equality of two actions.
func (a *HeaderAction) Equal(b *HeaderAction) bool {
	return a.Kind == b.Kind &&
		a.Field == b.Field &&
		bytes.Equal(a.Value, b.Value) &&
		a.Header == b.Header &&
		a.HeaderType == b.HeaderType
}

// Apply executes the action on a packet the way an NF on the original
// path would: a modify, encap or decap takes effect immediately,
// checksum patch included. Apply returns whether the packet survived
// (false after a drop).
func (a HeaderAction) Apply(pkt *packet.Packet) (bool, error) {
	switch a.Kind {
	case ActionForward:
		return true, nil
	case ActionDrop:
		pkt.Drop()
		return false, nil
	case ActionModify:
		if err := pkt.Set(a.Field, a.Value); err != nil {
			return false, fmt.Errorf("mat: applying %v: %w", a, err)
		}
		return true, nil
	case ActionEncap:
		if err := pkt.Encap(a.Header); err != nil {
			return false, fmt.Errorf("mat: applying %v: %w", a, err)
		}
		return true, nil
	case ActionDecap:
		if err := pkt.Decap(a.HeaderType); err != nil {
			return false, fmt.Errorf("mat: applying %v: %w", a, err)
		}
		return true, nil
	default:
		return false, fmt.Errorf("mat: invalid action kind %d", int(a.Kind))
	}
}
