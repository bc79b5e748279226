package event

import (
	"slices"

	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

// Rebind gives r — a rule's header data, from a checkpoint, the log or
// another instance — the state functions funcs names, batch by batch,
// and the guards guards names, each bound to what the NF at its position
// of the chain declared (its Site in chain, its declaration in lay) and
// to the words of that NF on the flow under edit, which must be tracked;
// the flow's registrations become the guards'. It reports false, leaving
// the flow with no registrations, when r is of another chain — not as
// long as lay, or its contributing NFs not in it in order — or a
// reference names a position lay lacks, a state function of an NF that
// did not contribute, or an index the NF did not declare. The flow's
// registrations change, so the entry's summary of a plain rule goes.
func (t *Table) Rebind(ed flow.Edit, lay *StateLayout, chain []mat.Contribution, r *mat.GlobalRule, funcs, guards []mat.Ref) bool {
	rec := (*Record)(ed.Handle().Rec())
	if rec == nil && len(funcs)+len(guards) > 0 {
		rec = t.recordFor(ed)
	}
	regs, ok := rec.bind(lay, chain, r, funcs, guards)
	ed.ClearPlain()
	if rec != nil {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		if len(rec.events) == 0 && len(regs) > 0 {
			t.armed.Add(1)
		} else if len(rec.events) > 0 && len(regs) == 0 {
			t.armed.Add(-1)
		}
		clear(rec.events)
		rec.events = regs
	}
	return ok
}

// bind is Rebind's binding; rec is nil only when nothing is to be bound.
func (rec *Record) bind(lay *StateLayout, chain []mat.Contribution, r *mat.GlobalRule, funcs, guards []mat.Ref) (regs []Registration, ok bool) {
	if r.SourceNFs != len(lay.slots) || len(chain) != len(lay.slots) {
		return nil, false
	}
	at := 0
	for _, s := range r.Sources {
		for at < len(lay.slots) && lay.slots[at].NF != s.NF {
			at++
		}
		if at++; at > len(lay.slots) {
			return nil, false
		}
	}
	for i := 0; i < len(funcs); {
		at := int(funcs[i].At)
		if at >= len(chain) || chain[at].Site == nil ||
			!slices.ContainsFunc(r.Sources, func(s mat.SourceSummary) bool { return s.NF == lay.slots[at].NF }) {
			return nil, false
		}
		site := chain[at].Site
		var calls []uint8
		for ; i < len(funcs) && int(funcs[i].At) == at; i++ {
			if int(funcs[i].Index) >= len(site.Funcs) {
				return nil, false
			}
			calls = append(calls, uint8(funcs[i].Index))
		}
		r.Batches = append(r.Batches, sfunc.NewBatch(site, calls, r.FID, rec.State(lay, at)))
	}
	r.Plan = sfunc.Plan(r.Batches)
	for _, ref := range guards {
		if int(ref.At) >= len(lay.slots) {
			return nil, false
		}
		v := lay.Declared(int(ref.At))
		if v == nil || int(ref.Index) >= len(v.Events) {
			return nil, false
		}
		regs = append(regs, Registration{Ref: ref, Event: &v.Events[ref.Index], State: rec.State(lay, int(ref.At))})
	}
	r.SetGuards(Guards(regs))
	return regs, true
}
