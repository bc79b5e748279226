package event

import (
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
)

// Rebind makes the events guards names — a rule's guards, from a
// checkpoint, the log or another instance — the registrations of the
// flow under edit, which must be tracked, each bound to what the NF at
// its position of lay declared and to that NF's words on the flow; a
// consolidation then guards the flow's rule with them. It reports false,
// leaving the flow with no registrations, when a reference names a
// position lay lacks or an event the NF did not declare. The flow's
// registrations change, so the entry's summary of a plain rule goes.
func (t *Table) Rebind(ed flow.Edit, lay *StateLayout, guards []mat.Ref) bool {
	rec := (*Record)(ed.Handle().Rec())
	if rec == nil && len(guards) > 0 {
		rec = t.recordFor(ed, lay)
	}
	regs, ok := rec.bind(lay, guards)
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
func (rec *Record) bind(lay *StateLayout, guards []mat.Ref) (regs []Registration, ok bool) {
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
	return regs, true
}
