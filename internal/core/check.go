package core

import (
	"fmt"
	"slices"

	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

// CheckRecords walks the flow table once and checks what every flow
// record must satisfy between packets:
//
//   - a rule sits on the entry of its own FID;
//   - a live rule is priced, and its recording and its guards'
//     references, which restores, moves and updates build from, build it
//     again (Engine.build): program, verdict, batches, guards (each its
//     reference, word and threshold) and price;
//   - an entry's summary (flow.Handle.Plain) is of its rule, plain, at
//     its price, and a live rule is summarized if and only if it is plain;
//   - a detached entry holds a rule — the only reason the engine makes
//     one — and no NF state, ladder place or budget: those belong to a
//     tracked flow;
//   - a flow holds an events' budget only with its rule's, and for no
//     more than event.MaxPerFlow events: both are charged at the install
//     of its rule (Engine.admit);
//   - an NF with state on a flow is in the current chain: a removed NF's
//     slot left every flow with it;
//   - the Global MAT's counts of rules, stale rules and guarded rules
//     are what the walk counts.
//
// It returns the first violation. It holds vectors off (Engine.exclusive),
// not teardowns or idle sweeps; the oracles, soaks and leak tests call it
// where a trace ends.
func (e *Engine) CheckRecords() error {
	defer e.exclusive()()
	var rules, stale, guarded int
	var err error
	cs := e.state()
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf("core: flow records: "+format, args...)
		}
	}
	flows := e.class.Flows()
	flows.Each(func(h flow.Handle) {
		fid := h.FID()
		ed := flows.EditHandle(h)
		e.events.Stand(ed, false, func(h flow.Handle, s *event.Standing) {
			if h.Detached() && !s.Zero() {
				fail("detached entry of %v stands on the ladder or holds a budget", fid)
			}
			if s.Events > 0 && !s.Rule || s.Events > event.MaxPerFlow {
				fail("%v holds %d events' budget without its rule's or past event.MaxPerFlow", fid, s.Events)
			}
		})
		ed.Done()
		for _, nf := range event.StateOwners(h) {
			if h.Detached() {
				fail("detached entry of %v holds state of NF %q", fid, nf)
			}
			if !slices.ContainsFunc(cs.chain, func(n NF) bool { return n.Name() == nf }) {
				fail("%v holds state of NF %q, which the chain does not have", fid, nf)
			}
		}
		r := e.global.Rule(h)
		if r == nil {
			if h.Detached() {
				fail("detached entry of %v holds no rule", fid)
			}
			return
		}
		rules++
		if h.Stale() {
			stale++
		}
		if r.Guards != nil {
			guarded++
		}
		if r.FID != fid {
			fail("entry of %v holds the rule of %v", fid, r.FID)
		}
		fixed, header, summarized := h.Plain(r.Epoch)
		if summarized && (!r.Plain() || fixed != r.FixedCycles || header != r.HeaderCycles) ||
			e.global.Live(h) == r && summarized != r.Plain() {
			fail("entry of %v: summary %v (%d, %d) of rule %v, plain %v", fid, summarized, fixed, header, r, r.Plain())
		}
		if e.global.Live(h) != r {
			return
		}
		if r.FixedCycles == 0 {
			fail("rule of %v carries no price", fid)
		}
		ed = flows.EditHandle(h)
		var refs []mat.Ref
		for g := r.Guards; g != nil; g = g.Next {
			refs = append(refs, g.Ref)
		}
		built, err := e.build(ed, cs, r.Epoch, &event.Recording{Spans: r.Spans, Regs: refs}, nil)
		ed.Done()
		if err != nil {
			fail("rule of %v: its recording does not build: %v", fid, err)
		} else if !sameRule(r, built) {
			fail("rule of %v is %v %x, its recording builds %v %x", fid, r, r.Prog, built, built.Prog)
		}
	})
	if n, s, g := e.global.Len(), e.global.StaleLen(), e.global.Guarded(); n != rules || s != stale || g != guarded {
		fail("walk counted %d rules, %d stale, %d guarded; the Global MAT says %d, %d, %d", rules, stale, guarded, n, s, g)
	}
	return err
}

// sameRule reports whether r is built, the rule its recording builds:
// the same program, verdict, batches, guards and price, its plan's
// charge included.
func sameRule(r, built *mat.GlobalRule) bool {
	g, bg := r.Guards, built.Guards
	for ; g != nil && bg != nil && g.Ref == bg.Ref && g.Word == bg.Word && g.AtLeast == bg.AtLeast; g, bg = g.Next, bg.Next {
	}
	return g == nil && bg == nil && string(r.Prog) == string(built.Prog) && r.Drop == built.Drop &&
		r.FixedCycles == built.FixedCycles && r.HeaderCycles == built.HeaderCycles &&
		(r.Plan == nil) == (built.Plan == nil) && (r.Plan == nil || r.Plan.Charge == built.Plan.Charge) &&
		slices.EqualFunc(r.Batches, built.Batches, func(a, b sfunc.Batch) bool { return a.At == b.At && slices.Equal(a.Calls(), b.Calls()) })
}
