package event

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
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
	events []*Event
	// first backs events while the flow has one registration, as most
	// that have any do.
	first [1]*Event
	own   Standing
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
// for the flow under edit under the given chain epoch (localmat_add_HA
// and localmat_add_SF, paper Figure 2, gathered per traversal): the
// recording's one write. It fills the record the traversal's first
// Register made, if one did. The record keeps exactly sized copies, so
// the caller may reuse its storage, and an event update that later
// appends to a span reallocates rather than growing into its neighbour:
// one allocation for a short chain's (a spanBlock), and for a span that
// only forwards none — every such span is one shared, read-only array,
// which Apply copies before an update edits it. A nil Rule is an NF
// that recorded nothing.
func (t *Table) Publish(ed flow.Edit, epoch uint64, n, at int, spans []mat.Contribution) {
	if !ed.Found() {
		return
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
	fresh := rec.epoch != epoch || len(rec.locals) != n
	var acts []mat.HeaderAction
	var funcs []sfunc.Func
	var room spanBlock // the sizes of a block, never allocated
	if fresh && (nActs > 0 || nFuncs > 0) &&
		n <= len(room.locals) && nActs <= len(room.acts) && nFuncs <= len(room.funcs) {
		b := new(spanBlock)
		rec.locals, acts, funcs = b.locals[:n:n], b.acts[:0:nActs], b.funcs[:0:nFuncs]
	} else {
		if fresh {
			rec.locals = make([]mat.LocalRule, n)
		}
		acts, funcs = make([]mat.HeaderAction, 0, nActs), make([]sfunc.Func, 0, nFuncs)
	}
	rec.epoch = epoch
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
}

// spanBlock is the storage Publish carves a short chain's recording from
// in one allocation: Chain1's, say — four spans, three actions that are
// not a lone forward, two state functions.
type spanBlock struct {
	locals [4]mat.LocalRule
	acts   [4]mat.HeaderAction
	funcs  [2]sfunc.Func
}

// forwardSpan is the actions of every span that only forwards.
var forwardSpan = []mat.HeaderAction{mat.Forward()}

// forwardOnly reports a span whose actions are a lone forward.
func forwardOnly(acts []mat.HeaderAction) bool {
	return len(acts) == 1 && acts[0].Equal(forwardSpan[0])
}

// Apply runs the firing's update on its NF's span — position at of an
// n-NF chain — of the record it fired from, in place under the record's
// lock. An NF that recorded nothing gets an empty span to edit, and one
// whose span is the shared forward a copy of it.
func (f Firing) Apply(at, n int) {
	rec := f.rec
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.locals) != n {
		rec.locals = make([]mat.LocalRule, n)
	}
	span := &rec.locals[at]
	switch {
	case span.Actions == nil:
		span.Actions = []mat.HeaderAction{}
	case len(span.Actions) == 1 && &span.Actions[0] == &forwardSpan[0]:
		span.Actions = []mat.HeaderAction{mat.Forward()}
	}
	f.Event.Update(f.FID, span)
}

// Consolidate builds the Global MAT rule of the flow under edit, which
// must be found: contribs names the chain's NFs, in order, and with
// fromRecord each one's Rule is pointed at the span the NF recorded —
// read in place, under the record's lock; mat.Consolidate copies what
// the rule keeps. A flow with no recording under this chain epoch
// contributes nothing. The rule carries the flow's registered
// conditions as its guards, snapshotted under the same lock; a
// registration takes an edit of the entry, so the snapshot stays current
// until the caller's edit ends — a rule installed inside it needs no
// re-check, and one a later registration finds gets event.AskTable from
// the journal hook.
func (t *Table) Consolidate(ed flow.Edit, epoch uint64, contribs []mat.Contribution, fromRecord bool) (*mat.GlobalRule, error) {
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
	var buf [4]func(flow.FID) bool
	conds := buf[:0]
	for _, e := range rec.events {
		conds = append(conds, e.Condition)
	}
	return mat.Consolidate(fid, contribs, conds...)
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
