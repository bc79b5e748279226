package event

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
)

// Record is what a flow's NFs keep on it: each NF's per-flow state
// (state.go) and the events they registered, and what the engine keeps
// on it, its Standing. What the NFs recorded is not here: it is the
// flow's rule's (mat.GlobalRule.Spans). The record is the second word of
// the flow's entry in the flow table, stored there under a flow.Edit and
// found from there by one lock-free probe; its own lock orders
// consolidations, probes, state hand-outs and standing changes of the
// one flow and is a leaf — nothing is taken under it but what an NF's
// condition or state hook takes, and the admission policy's lock. It
// fills a 96-byte size class (TestRecordSizeClass).
type Record struct {
	mu sync.Mutex
	// state is the flow's NF state block, made on an NF's first use under
	// the chain layout of the moment, heading the list of the blocks a
	// chain change added for NFs that joined since.
	state stateBlock
	// events are the flow's registrations, in registration order.
	events []Registration
	own    Standing
}

// Standing is what the engine keeps on a flow's record for itself: the
// flow's place on the degradation ladder and the tenant admission budget
// it holds (core's degrade.go and admission.go); the zero Standing is off
// the ladder and holds nothing. RetryAt is the logical-clock tick before
// which the flow may not record again (0: off the ladder), loaded by the
// recording gate with no lock; Fails counts consecutive failed
// recoveries. Tenant is charged for the rule, if Rule, and for Events
// event registrations, and is 0 when the flow holds neither.
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
	rec := t.recordFor(ed)
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
// one off it if it has none.
func (t *Table) recordFor(ed flow.Edit) *Record {
	rec := (*Record)(ed.Handle().Rec())
	if rec == nil {
		rec = &Record{}
		ed.SetRec(unsafe.Pointer(rec))
	}
	return rec
}

// Publish stores on the record of the flow under edit the events a
// traversal's NFs registered (register_event, paper Figure 2, gathered
// per traversal), and returns what they recorded (localmat_add_HA and
// localmat_add_SF) — spans, by chain position, in the traversal's
// scratch, an NF that recorded nothing the zero LocalRule — copied into
// exactly sized storage for the flow's rule to own (mat.GlobalRule.Spans),
// in which an NF that recorded anything has non-nil Actions. The copy is
// one allocation for a short chain's recording and its events (a
// spanBlock), and a span that only forwards takes none: every such span
// is one shared, read-only array. A flow's registrations past MaxPerFlow
// publish nothing, and are an error.
func (t *Table) Publish(ed flow.Edit, spans []mat.LocalRule, regs []Registration) ([]mat.LocalRule, error) {
	if !ed.Found() {
		return nil, nil
	}
	nActs, nFuncs := 0, 0
	for _, sp := range spans {
		if !forwardOnly(sp.Actions) {
			nActs += len(sp.Actions)
		}
		nFuncs += len(sp.Funcs)
	}
	var rec *Record
	if len(regs) > 0 {
		rec = t.recordFor(ed)
		rec.mu.Lock()
		defer rec.mu.Unlock()
		if err := rec.room(ed.Handle().FID(), len(regs)); err != nil {
			return nil, err
		}
	}
	n := len(spans)
	var out []mat.LocalRule
	var acts []mat.HeaderAction
	var funcs []uint8
	var events []Registration
	var room spanBlock // the sizes of a block, never allocated
	if (nActs > 0 || nFuncs > 0 || len(regs) > 0) && n <= len(room.spans) &&
		nActs <= len(room.acts) && nFuncs <= len(room.funcs) && len(regs) <= len(room.events) {
		b := new(spanBlock)
		out, acts, funcs, events = b.spans[:n:n], b.acts[:0:nActs], b.funcs[:0:nFuncs], b.events[:0:len(regs)]
	} else {
		out, acts, funcs = make([]mat.LocalRule, n), make([]mat.HeaderAction, 0, nActs), make([]uint8, 0, nFuncs)
		if len(regs) > 0 {
			events = make([]Registration, 0, len(regs))
		}
	}
	if rec != nil {
		if len(rec.events) == 0 {
			rec.events = events
			t.armed.Add(1)
		}
		rec.events = append(rec.events, regs...)
		t.registered.Add(uint64(len(regs)))
	}
	for i, sp := range spans {
		if len(sp.Actions)+len(sp.Funcs) == 0 {
			continue
		}
		span := &out[i]
		if forwardOnly(sp.Actions) {
			span.Actions = forwardSpan
		} else {
			a := len(acts)
			acts = append(acts, sp.Actions...)
			span.Actions = acts[a:len(acts):len(acts)]
		}
		f := len(funcs)
		funcs = append(funcs, sp.Funcs...)
		span.Funcs = funcs[f:len(funcs):len(funcs)]
	}
	return out, nil
}

// spanBlock is the storage Publish carves a short chain's recording and
// its events from in one allocation: Chain1's, say — four spans, three
// actions that are not a lone forward, two state functions, one event.
type spanBlock struct {
	spans  [4]mat.LocalRule
	acts   [4]mat.HeaderAction
	funcs  [2]uint8
	events [1]Registration
}

// forwardSpan is the actions of every span that only forwards.
var forwardSpan = []mat.HeaderAction{mat.Forward()}

// forwardOnly reports a span whose actions are a lone forward.
func forwardOnly(acts []mat.HeaderAction) bool {
	return len(acts) == 1 && acts[0].Equal(forwardSpan[0])
}

// Consolidate builds the Global MAT rule of the flow under edit, which
// must be found, from spans, the flow's recording by chain position under
// the chain chain presents (each NF's name and Site, no rule, in the order
// of lay): the one way a rule is built, from a traversal's recording
// (Publish), from an event update's edited copy of a rule's or from an
// image. The rule takes spans over as its Spans: the caller must not
// change them after. Each NF that recorded state functions is given its
// words on the flow to run them on. The rule carries the flow's
// registered conditions as its guards, snapshotted under the record's
// lock; a registration takes an edit of the entry, so the snapshot stays
// current until the caller's edit ends — a rule installed inside it needs
// no re-check, and one a later registration finds gets fresh guards from
// the journal hook.
func (t *Table) Consolidate(ed flow.Edit, lay *StateLayout, chain []mat.Contribution, spans []mat.LocalRule) (*mat.GlobalRule, error) {
	fid := ed.Handle().FID()
	if len(spans) != len(chain) {
		return nil, fmt.Errorf("consolidating %v: %d spans for a chain of %d", fid, len(spans), len(chain))
	}
	var buf [8]mat.Contribution
	contribs := append(buf[:0], chain...)
	rec := (*Record)(ed.Handle().Rec())
	for i := range contribs {
		if spans[i].Actions == nil {
			continue
		}
		contribs[i].Rule = &spans[i]
		if len(spans[i].Funcs) > 0 && lay.slots[i].Words > 0 && rec == nil {
			rec = t.recordFor(ed)
		}
	}
	var gbuf [4]mat.Guard
	guards := gbuf[:0]
	if rec != nil {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		for i := range contribs {
			if r := contribs[i].Rule; r != nil && len(r.Funcs) > 0 {
				contribs[i].State = rec.slotState(lay, i)
			}
		}
		for i := range rec.events {
			guards = append(guards, rec.events[i].guard())
		}
	}
	rule, err := mat.Consolidate(fid, contribs, guards...)
	if err != nil {
		return nil, err
	}
	rule.Spans = spans
	return rule, nil
}
