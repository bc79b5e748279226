package event

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
)

// Record is what a flow's NFs keep on it, each NF's per-flow state
// (state.go), and what the engine keeps on it, its Standing. What the
// NFs recorded and registered is not here: it is the flow's rule's
// (mat.GlobalRule.Spans and Guards). The record is the second word of
// the flow's entry in the flow table, stored there under a flow.Edit and
// found from there by one lock-free probe; its own lock orders
// consolidations, state hand-outs and standing changes of the one flow
// and is a leaf — nothing is taken under it but what an NF's cell
// resolver (Event.Word) or state hook takes, and the admission policy's
// lock. A record made under a chain layout carries that layout's state
// words in the same allocation (newRecord), filling a size class
// (TestRecordSizeClass).
type Record struct {
	mu sync.Mutex
	// state is the flow's NF state block, made with the record or on an
	// NF's first use under the chain layout of the moment, heading the
	// list of the blocks a chain change added for NFs that joined since.
	state stateBlock
	own   Standing
}

// Standing is what the engine keeps on a flow's record for itself: the
// flow's place on the degradation ladder and the tenant admission budget
// it holds (core's degrade.go and admission.go); the zero Standing is off
// the ladder and holds nothing. RetryAt is the logical-clock tick before
// which the flow may not record again (0: off the ladder), loaded by the
// recording gate with no lock; Fails counts consecutive failed
// recoveries. Tenant is charged for the rule, if Rule, and for Events
// of the events its recording registered — charged together, at the
// rule's install, so never Events without Rule — and is 0 when the flow
// holds neither.
type Standing struct {
	RetryAt atomic.Uint64
	Tenant  int32
	Events  uint16
	Rule    bool
	Fails   uint8
}

// Zero reports whether the flow is off the ladder and holds nothing.
func (s *Standing) Zero() bool { return s.RetryAt.Load() == 0 && !s.Rule && s.Events == 0 }

// kept reports whether the record has more than a recording on it — NF
// state or a standing — and so outlives the recording's removal. The
// caller holds rec.mu.
func (rec *Record) kept() bool { return rec.state.lay != nil || !rec.own.Zero() }

// Stand calls fn with the entry under edit and the standing on its
// record, under the record's lock, so a flow's ladder moves, charges and
// refunds are serialized with each other and with the record's coming
// and going — and, the edit being of a linked entry, with the flow's
// teardown: nothing is charged to a flow after its refund. With create,
// fn runs only for a tracked flow, which gets a record if it has none;
// without, for any entry with a record — one without stands nowhere.
func (t *Table) Stand(ed flow.Edit, create bool, fn func(flow.Handle, *Standing)) {
	h := ed.Handle()
	if !ed.Found() || (create && h.Detached()) || (!create && h.Rec() == nil) {
		return
	}
	rec := t.recordFor(ed, nil)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	fn(h, &rec.own)
}

// RetryAt is the entry's ladder deadline, 0 if it is not on the ladder:
// two loads and no lock.
func RetryAt(h flow.Handle) uint64 {
	if rec := (*Record)(h.Rec()); rec != nil {
		return rec.own.RetryAt.Load()
	}
	return 0
}

// record returns the flow's record, nil if it has none.
func (t *Table) record(fid flow.FID) *Record {
	if h, ok := t.flows.AcquireFID(fid); ok {
		return (*Record)(h.Rec())
	}
	return nil
}

// recordFor returns the record of the entry under edit, hanging a fresh
// one, made under lay (nil: none), off it if it has none.
func (t *Table) recordFor(ed flow.Edit, lay *StateLayout) *Record {
	rec := (*Record)(ed.Handle().Rec())
	if rec == nil {
		rec = newRecord(lay)
		ed.SetRec(unsafe.Pointer(rec))
	}
	return rec
}

// Recording is what a rule is built from (Table.Consolidate): each NF's
// Local MAT entry for the flow by chain position — what it recorded
// through localmat_add_HA and localmat_add_SF, the zero LocalRule if
// nothing — and the events the flow is registered for, by reference, in
// registration order: a traversal's NFs' (register_event, paper Figure
// 2), or a rule's guards'. The rule takes Spans over: the caller must
// not change them after.
type Recording struct {
	Spans []mat.LocalRule
	Regs  []mat.Ref
}

// Room is the storage an engine traversal records into, in one
// allocation with the rule built from what it records (core's set-up
// block): Chain1's recording — four spans, three actions that are not a
// lone forward with their ten bytes of values, two state functions, one
// event. A recording past it grows into arrays of its own for what does
// not fit, and a span that only forwards takes none: every such span is
// one shared, read-only array (LoneForward).
type Room struct {
	spans  [4]mat.LocalRule
	acts   [3]mat.HeaderAction
	funcs  [2]uint8
	values [14]byte
	events [1]mat.Ref
}

// Buffers returns the room's empty recording buffers: actions, state
// functions, modify values and registrations, each of the room's
// capacity, for a traversal to append to.
func (r *Room) Buffers() ([]mat.HeaderAction, []uint8, []byte, []mat.Ref) {
	return r.acts[:0], r.funcs[:0], r.values[:0], r.events[:0]
}

// Spans copies a traversal's spans, by chain position, into the room's
// (or, for a chain longer than it holds, a fresh array).
func (r *Room) Spans(spans []mat.LocalRule) []mat.LocalRule {
	out := r.spans[:0]
	if len(spans) > len(r.spans) {
		out = make([]mat.LocalRule, 0, len(spans))
	}
	return append(out, spans...)
}

// forwardSpan is the actions of every span that only forwards.
var forwardSpan = []mat.HeaderAction{mat.Forward()}

// LoneForward returns the actions of every span whose NF recorded a lone
// forward: one shared array, never to be written.
func LoneForward() []mat.HeaderAction { return forwardSpan }

// dropSpan is the actions of every span a Drop update leaves.
var dropSpan = []mat.HeaderAction{mat.Drop()}

// Drop is the update of an event that blocks its flow: its span becomes
// one shared lone drop, never written (an update edits a span's Clone).
func Drop(_ State, r *mat.LocalRule) { r.Actions = dropSpan }

// forwardOnly reports a span whose actions are a lone forward.
func forwardOnly(acts []mat.HeaderAction) bool {
	return len(acts) == 1 && acts[0].Equal(&forwardSpan[0])
}

// Forwards returns the recording of a chain of n NFs that each recorded
// a lone forward and nothing else: the one a plain rule is built from.
// It is read-only, for every such flow of the chain to share.
func Forwards(n int) []mat.LocalRule {
	spans := make([]mat.LocalRule, n)
	for i := range spans {
		spans[i].Actions = forwardSpan
	}
	return spans
}

// Forwarding reports whether spans record a lone forward for every NF,
// and nothing else: the recording Forwards shares.
func Forwarding(spans []mat.LocalRule) bool {
	for _, sp := range spans {
		if !forwardOnly(sp.Actions) || len(sp.Funcs) > 0 {
			return false
		}
	}
	return true
}

// Consolidate builds the Global MAT rule of the flow under edit, which
// must be found, from rec under the chain chain presents (each NF's name
// and Site, no rule, in the order of lay): the one way a rule is built,
// from a traversal's recording, from an event update's edited copy of a
// rule's or from an image. The rule takes the recording over as its
// Spans: the caller must not change them after. It is built into rule,
// if set — zero, and not yet installed — and its slices carved from made
// (mat.In).
//
// Under one lock of the flow's record, each NF that recorded state
// functions is given its words on the flow to run them on, and each
// registration is bound into a guard of the rule: its event's word on
// the flow and threshold. A registration lay does not declare, or more
// than MaxPerFlow of them, build nothing, and are an error.
func (t *Table) Consolidate(ed flow.Edit, lay *StateLayout, chain []mat.Contribution, rec *Recording, rule *mat.GlobalRule, made *mat.Room) (*mat.GlobalRule, error) {
	fid := ed.Handle().FID()
	spans := rec.Spans
	if len(spans) != len(chain) {
		return nil, fmt.Errorf("consolidating %v: %d spans for a chain of %d", fid, len(spans), len(chain))
	}
	if len(rec.Regs) > MaxPerFlow {
		return nil, fmt.Errorf("%w: %v registers %d", ErrTooManyEvents, fid, len(rec.Regs))
	}
	var buf [8]mat.Contribution
	contribs := append(buf[:0], chain...)
	words := false
	for i := range contribs {
		if spans[i].Actions != nil {
			contribs[i].Rule = &spans[i]
			words = words || len(spans[i].Funcs) > 0 && lay.slots[i].Words > 0
		}
	}
	for _, ref := range rec.Regs {
		if lay.event(ref) == nil {
			return nil, fmt.Errorf("consolidating %v: NF %d declares no event %d", fid, ref.At, ref.Index)
		}
		words = words || ref.Index != EngineOwned && lay.slots[ref.At].Words > 0
	}
	r := (*Record)(ed.Handle().Rec())
	if r == nil && words {
		r = t.recordFor(ed, lay)
	}
	var gbuf [4]mat.Guard
	guards := gbuf[:0]
	if r != nil {
		r.mu.Lock()
		for i := range contribs {
			if c := contribs[i].Rule; c != nil && len(c.Funcs) > 0 {
				contribs[i].State = r.slotState(lay, i)
			}
		}
	}
	for _, ref := range rec.Regs {
		var st State
		if r != nil && ref.Index != EngineOwned {
			st = r.slotState(lay, int(ref.At))
		}
		ev := lay.event(ref)
		guards = append(guards, mat.Guard{Ref: ref, Word: ev.Word(st), AtLeast: ev.AtLeast})
	}
	if r != nil {
		r.mu.Unlock()
	}
	rule, err := mat.In(rule, made, fid, contribs, guards)
	if err != nil {
		return nil, err
	}
	rule.Spans = spans
	return rule, nil
}
