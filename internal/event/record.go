package event

import (
	"sync"
	"unsafe"

	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

// Record is what a flow's NFs keep on it: each NF's per-flow state
// (state.go), and everything recording the flow left behind — each NF's
// Local MAT entry, by chain position, and the events the NFs registered.
// It is the second word of the flow's entry in the flow table, stored
// there under a flow.Edit and found from there by one lock-free probe;
// its own lock orders event updates, consolidations, probes and state
// hand-outs of the one flow and is a leaf — nothing is taken under it but
// what an NF's condition, update or state hook takes.
type Record struct {
	mu sync.Mutex
	// state is the flow's NF state block, made on an NF's first use under
	// the chain layout of the moment; later holds the blocks a chain change
	// added for NFs that joined since.
	state stateBlock
	later []stateBlock
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
// for the flow under the given chain epoch (localmat_add_HA and
// localmat_add_SF, paper Figure 2, gathered per traversal): the
// recording's one write. It fills the record the traversal's first
// Register made, if one did. The record keeps exactly sized copies —
// every span of the call carved from one actions array and one
// functions array — so the caller may reuse its storage, and an event
// update that later appends to a span reallocates rather than growing
// into its neighbour. A nil Rule is an NF that recorded nothing.
func (t *Table) Publish(fid flow.FID, epoch uint64, n, at int, spans []mat.Contribution) {
	nActs, nFuncs := 0, 0
	for _, c := range spans {
		if c.Rule != nil {
			nActs += len(c.Rule.Actions)
			nFuncs += len(c.Rule.Funcs)
		}
	}
	acts, funcs := make([]mat.HeaderAction, 0, nActs), make([]sfunc.Func, 0, nFuncs)

	ed := t.flows.Edit(fid, true)
	defer ed.Done()
	rec := t.recordFor(ed)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.epoch != epoch || len(rec.locals) != n {
		rec.epoch, rec.locals = epoch, make([]mat.LocalRule, n)
	}
	for i, c := range spans {
		if c.Rule == nil {
			continue
		}
		a, f := len(acts), len(funcs)
		acts, funcs = append(acts, c.Rule.Actions...), append(funcs, c.Rule.Funcs...)
		rec.locals[at+i] = mat.LocalRule{Actions: acts[a:len(acts):len(acts)], Funcs: funcs[f:len(funcs):len(funcs)]}
	}
}

// Apply runs the firing's update on its NF's span — position at of an
// n-NF chain — of the record it fired from, in place under the record's
// lock. An NF that recorded nothing gets an empty span to edit.
func (f Firing) Apply(at, n int) {
	rec := f.rec
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.locals) != n {
		rec.locals = make([]mat.LocalRule, n)
	}
	span := &rec.locals[at]
	if span.Actions == nil {
		span.Actions = []mat.HeaderAction{}
	}
	f.Event.Update(f.FID, span)
}

// Consolidate folds the flow's recording into its Global MAT rule:
// contribs names the chain's NFs, in order, and each one's Rule is
// pointed at the span the NF recorded — read in place, under the
// record's lock; mat.Consolidate copies what the rule keeps. A flow with
// no recording under this chain epoch contributes nothing.
func (t *Table) Consolidate(fid flow.FID, epoch uint64, contribs []mat.Contribution) (*mat.GlobalRule, error) {
	if rec := t.record(fid); rec != nil {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		if rec.epoch == epoch && len(rec.locals) == len(contribs) {
			for i := range contribs {
				if span := &rec.locals[i]; span.Actions != nil {
					contribs[i].Rule = span
				}
			}
		}
	}
	return mat.Consolidate(fid, contribs)
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
