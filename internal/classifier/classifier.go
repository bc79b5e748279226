// Package classifier implements SpeedyBox's Packet Classifier (paper
// §III, §VI-B): it hashes the 5-tuple into the 20-bit FID, attaches it
// as descriptor metadata, tracks the TCP lifecycle to distinguish
// handshake, initial, subsequent and final packets, and drives
// stale-rule cleanup on FIN/RST.
package classifier

import (
	"fmt"

	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// Kind is the classifier's routing decision for one packet.
type Kind int

// Packet kinds. The engine routes Initial (and Handshake) packets to
// the original service chain and Subsequent packets to the Global MAT.
const (
	// KindHandshake is a TCP connection-establishment packet (SYN or
	// the completing ACK); it traverses the original chain but does
	// not trigger consolidation, because the paper defines the
	// initial packet as the first packet after establishment (§III).
	KindHandshake Kind = iota + 1
	// KindInitial is the flow's initial packet: recording and
	// consolidation happen around it.
	KindInitial
	// KindSubsequent packets take the fast path when a Global MAT
	// rule exists.
	KindSubsequent
	// KindFinal is a FIN/RST packet: after processing, the flow's
	// rules are deleted from the Global MAT and all Local MATs
	// (§VI-B, "Tracking Flow State").
	KindFinal
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindHandshake:
		return "handshake"
	case KindInitial:
		return "initial"
	case KindSubsequent:
		return "subsequent"
	case KindFinal:
		return "final"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Result is the classification of one packet.
type Result struct {
	// FID is the flow identifier, also written into pkt.Meta.
	FID flow.FID
	// Handle is the flow's entry, as the classification found or made it:
	// what the packet's set-up writes through, with no second probe.
	Handle flow.Handle
	// Kind is the routing decision.
	Kind Kind
	// NewFlow reports that this packet created the flow-table entry.
	NewFlow bool
	// Reused reports that this packet is a SYN restarting a tracked
	// flow that was already past the handshake (5-tuple reuse without
	// an observed FIN/RST). The previous connection's consolidated
	// rule and events are stale and must be torn down before the new
	// connection's packets are processed — otherwise its established
	// packets would classify as subsequent and execute the *old*
	// connection's recorded actions.
	Reused bool
}

// Classifier assigns FIDs and tracks flow lifecycle. It is safe for
// concurrent use (its state lives in the flow table). It keeps no clock:
// the engine counts the packets it classifies.
type Classifier struct {
	flows *flow.Table
}

// New returns a classifier over the given flow table.
func New(flows *flow.Table) *Classifier {
	return &Classifier{flows: flows}
}

// Flows exposes the underlying table (the engine tears flows down
// through it).
func (c *Classifier) Flows() *flow.Table { return c.flows }

// Classify parses the packet if necessary, assigns its FID and decides
// its kind. hasRule reports whether the flow — by the handle the table
// has just returned — has a rule to serve its packets from, which tells
// the initial packet (first established packet without a rule) from
// subsequent ones, including when several established packets race in
// before consolidation completes: each is treated as (re-)initial and
// traverses the original chain, which is always safe.
func (c *Classifier) Classify(pkt *packet.Packet, hasRule func(flow.Handle) bool) (Result, error) {
	var res Result
	err := c.ClassifyIn(pkt, hasRule, &res)
	return res, err
}

// ClassifyIn is Classify filling res, which it zeroes first, in place:
// the engine's caller reads the fields where they were stored, with no
// copy of a returned value.
func (c *Classifier) ClassifyIn(pkt *packet.Packet, hasRule func(flow.Handle) bool, res *Result) error {
	*res = Result{}
	if !pkt.Parsed() {
		if err := pkt.Parse(); err != nil {
			return fmt.Errorf("classifier: %w", err)
		}
	}
	hi, lo, _ := pkt.FlowKey() // parsed: always ok

	h, existed, err := c.flows.InsertKey(hi, lo)
	if err != nil {
		return fmt.Errorf("classifier: %w", err)
	}
	fid := h.FID()
	pkt.Meta.FID = uint32(fid)
	pkt.Meta.HasFID = true

	res.FID, res.Handle, res.NewFlow = fid, h, !existed

	flags, isTCP := pkt.TCPFlags()
	final := isTCP && flags&(packet.TCPFlagFIN|packet.TCPFlagRST) != 0

	// The state machine reads the flow's state through the handle and
	// stores the result back through it, with the current seen epoch
	// (flow.Table.Sweep): RSS partitioning makes this classifier call the
	// flow's only writer, so the read-modify-write needs no lock held
	// across it.
	state, next := h.State(), flow.StateEstablished
	switch {
	case final:
		next = flow.StateClosed
	case !isTCP:
		// UDP flows are established by their first packet.
	case flags&packet.TCPFlagSYN != 0:
		// A SYN on a flow already past the handshake is 5-tuple
		// reuse (the FIN/RST of the previous connection was never
		// seen): the connection restarts, and the caller must tear
		// down the previous connection's consolidated state.
		res.Reused = state != flow.StateHandshake
		next = flow.StateHandshake
	case state == flow.StateHandshake && flags&packet.TCPFlagACK != 0 && len(pkt.Payload()) == 0:
		// The bare ACK completing the 3-way handshake: the
		// connection is now established, but per §III the
		// *next* packet is the initial packet.
		res.Kind = KindHandshake
	default:
		// Established already, or data before the handshake completed
		// (or we joined the connection mid-stream): promote.
	}
	h.SetState(next, c.flows.Seen())

	if res.Kind != 0 {
		return nil // already decided (handshake-completing ACK)
	}
	switch {
	case final:
		pkt.Meta.Final = true
		res.Kind = KindFinal
	case isTCP && flags&packet.TCPFlagSYN != 0:
		res.Kind = KindHandshake
	case hasRule != nil && hasRule(h):
		res.Kind = KindSubsequent
	default:
		pkt.Meta.Initial = true
		res.Kind = KindInitial
	}
	return nil
}

// ClassifyData is the fast classification of one packet. It handles the
// common case — a plain data packet (no SYN/FIN/RST) of an
// established, already-tracked flow — with one lock-free flow-table
// probe, assigning the FID and passing the flow's shape gate
// (flow.Handle.Touch), which writes nothing but a seen stamp a sweep
// asks for. The Kind in the returned Result is left undecided (zero):
// the caller resolves Subsequent versus Initial itself, as core does
// against its flow's rule, in place of Classify's hasRule probe.
//
// For every other packet shape — unparseable, handshake, teardown,
// untracked or not-yet-established flow — it reports ok=false without
// mutating the flow table, and the caller routes the packet through the
// full Classify state machine.
func (c *Classifier) ClassifyData(pkt *packet.Packet) (Result, bool) {
	if !pkt.Parsed() {
		if err := pkt.Parse(); err != nil {
			return Result{}, false // full Classify reproduces the error
		}
	}
	if flags, isTCP := pkt.TCPFlags(); isTCP &&
		flags&(packet.TCPFlagSYN|packet.TCPFlagFIN|packet.TCPFlagRST) != 0 {
		return Result{}, false
	}
	hi, lo, _ := pkt.FlowKey() // parsed: always ok
	h, ok := c.flows.AcquireKey(hi, lo)
	if !ok || !h.Touch(c.flows.Seen()) {
		return Result{}, false
	}
	pkt.Meta.FID = uint32(h.FID())
	pkt.Meta.HasFID = true
	return Result{FID: h.FID(), Handle: h}, true
}

// Teardown removes the flow from the flow table after FIN/RST
// processing; the engine also deletes the MAT rules.
func (c *Classifier) Teardown(fid flow.FID) bool {
	return c.flows.Remove(fid)
}
