package event

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
)

// Record is what a flow's NFs keep on it: each NF's per-flow state
// (state.go), and everything recording the flow left behind — each NF's
// Local MAT entry, by chain position, and the events the NFs registered —
// and what the engine keeps on it, its Standing. It is the second word of
// the flow's entry in the flow table, stored there under a flow.Edit and
// found from there by one lock-free probe; its own lock orders event
// updates, consolidations, probes, state hand-outs and standing changes
// of the one flow and is a leaf — nothing is taken under it but what an
// NF's condition, update or state hook takes, and the admission policy's
// lock. It fills a 128-byte size class (TestRecordSizeClass).
type Record struct {
	mu sync.Mutex
	// state is the flow's NF state block, made on an NF's first use under
	// the chain layout of the moment, heading the list of the blocks a
	// chain change added for NFs that joined since.
	state stateBlock
	// epoch is the chain epoch locals was recorded under: positions mean
	// nothing against another chain layout.
	epoch uint64
	// locals holds the chain's spans; nil until the first Publish. An NF
	// that recorded something has non-nil Actions, however short.
	locals []mat.LocalRule
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

// Publish stores what NFs at..at+len(spans) of an n-NF chain recorded
// for the flow under edit under the given chain epoch, and the events
// they registered (localmat_add_HA, localmat_add_SF and register_event,
// paper Figure 2, gathered per traversal): the recording's one write.
// The record keeps exactly sized copies, so the caller may reuse its
// storage, and an event update that later appends to a span reallocates
// rather than growing into its neighbour: one allocation for a short
// chain's (a spanBlock), and for a span that only forwards none — every
// such span is one shared, read-only array, which Apply copies before
// an update edits it. A nil Rule is an NF that recorded nothing. A
// flow's registrations past MaxPerFlow publish nothing, and are an error.
func (t *Table) Publish(ed flow.Edit, epoch uint64, n, at int, spans []mat.Contribution, regs []Registration) error {
	if !ed.Found() {
		return nil
	}
	nActs, nFuncs := 0, 0
	for _, c := range spans {
		if c.Rule != nil {
			if !forwardOnly(c.Rule.Actions) {
				nActs += len(c.Rule.Actions)
			}
			nFuncs += len(c.Rule.Funcs)
		}
	}
	rec := t.recordFor(ed)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if err := rec.room(ed.Handle().FID(), len(regs)); err != nil {
		return err
	}
	fresh := rec.epoch != epoch || len(rec.locals) != n
	var acts []mat.HeaderAction
	var funcs []uint8
	var events []Registration
	var room spanBlock // the sizes of a block, never allocated
	if fresh && (nActs > 0 || nFuncs > 0 || len(regs) > 0) && n <= len(room.locals) &&
		nActs <= len(room.acts) && nFuncs <= len(room.funcs) && len(regs) <= len(room.events) {
		b := new(spanBlock)
		rec.locals, acts, funcs, events = b.locals[:n:n], b.acts[:0:nActs], b.funcs[:0:nFuncs], b.events[:0:len(regs)]
	} else {
		if fresh {
			rec.locals = make([]mat.LocalRule, n)
		}
		acts, funcs = make([]mat.HeaderAction, 0, nActs), make([]uint8, 0, nFuncs)
		if len(regs) > 0 {
			events = make([]Registration, 0, len(regs))
		}
	}
	rec.epoch = epoch
	if len(regs) > 0 {
		if len(rec.events) == 0 {
			rec.events = events
			t.armed.Add(1)
		}
		rec.events = append(rec.events, regs...)
		t.registered.Add(uint64(len(regs)))
	}
	for i, c := range spans {
		if c.Rule == nil {
			continue
		}
		span := &rec.locals[at+i]
		if forwardOnly(c.Rule.Actions) {
			span.Actions = forwardSpan
		} else {
			a := len(acts)
			acts = append(acts, c.Rule.Actions...)
			span.Actions = acts[a:len(acts):len(acts)]
		}
		f := len(funcs)
		funcs = append(funcs, c.Rule.Funcs...)
		span.Funcs = funcs[f:len(funcs):len(funcs)]
	}
	return nil
}

// spanBlock is the storage Publish carves a short chain's recording from
// in one allocation: Chain1's, say — four spans, three actions that are
// not a lone forward, two state functions, one event.
type spanBlock struct {
	locals [4]mat.LocalRule
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

// Apply runs the firing's update on its NF's span of the record it fired
// from, in place under the record's lock, if the record holds a
// recording of an n-NF chain made under epoch, and reports whether it
// did. A flow recorded under a retired chain holds another recording,
// and one whose rule came back without its recording (a restore, a
// migration) none: the update is never applied to spans that are not
// the flow's. An NF that recorded nothing gets an empty span to edit,
// and one whose span is the shared forward a copy of it.
func (f Firing) Apply(epoch uint64, n int) bool {
	rec := f.rec
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.epoch != epoch || len(rec.locals) != n || int(f.At) >= n {
		return false
	}
	span := &rec.locals[f.At]
	switch {
	case span.Actions == nil:
		span.Actions = []mat.HeaderAction{}
	case len(span.Actions) == 1 && &span.Actions[0] == &forwardSpan[0]:
		span.Actions = []mat.HeaderAction{mat.Forward()}
	}
	f.Event.Update(f.State, span)
	return true
}

// Consolidate builds the Global MAT rule of the flow under edit, which
// must be found: contribs names the chain's NFs, in the order of lay,
// and with fromRecord each one's Rule is pointed at the span the NF
// recorded — read in place, under the record's lock; mat.Consolidate
// copies what the rule keeps. Each NF that recorded state functions is
// given its words on the flow to run them on. A flow with no recording under this chain epoch
// contributes nothing. The rule carries the flow's registered
// conditions as its guards, snapshotted under the same lock; a
// registration takes an edit of the entry, so the snapshot stays current
// until the caller's edit ends — a rule installed inside it needs no
// re-check, and one a later registration finds gets fresh guards from
// the journal hook.
func (t *Table) Consolidate(ed flow.Edit, lay *StateLayout, epoch uint64, contribs []mat.Contribution, fromRecord bool) (*mat.GlobalRule, error) {
	fid := ed.Handle().FID()
	rec := (*Record)(ed.Handle().Rec())
	if rec == nil {
		return mat.Consolidate(fid, contribs)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if fromRecord && rec.epoch == epoch && len(rec.locals) == len(contribs) {
		for i := range contribs {
			if span := &rec.locals[i]; span.Actions != nil {
				contribs[i].Rule = span
			}
		}
	}
	for i := range contribs {
		if r := contribs[i].Rule; r != nil && len(r.Funcs) > 0 {
			contribs[i].State = rec.slotState(lay, i)
		}
	}
	var buf [4]mat.Guard
	guards := buf[:0]
	for i := range rec.events {
		guards = append(guards, rec.events[i].guard())
	}
	return mat.Consolidate(fid, contribs, guards...)
}

// Recorded returns a deep copy of the flow's recording, by chain
// position, and the chain epoch it was made under; nil if the flow holds
// none. A position whose NF recorded nothing is the zero LocalRule.
func (t *Table) Recorded(fid flow.FID) (spans []mat.LocalRule, epoch uint64) {
	rec := t.record(fid)
	if rec == nil {
		return nil, 0
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for i := range rec.locals {
		if span := &rec.locals[i]; span.Actions != nil {
			spans = append(spans, *span.Clone())
		} else {
			spans = append(spans, mat.LocalRule{})
		}
	}
	return spans, rec.epoch
}
