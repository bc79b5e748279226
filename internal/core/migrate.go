package core

import (
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// Live flow migration between engine instances (cluster scale-out).
// ExtractFlow packages a flow's entry, its NF state (by value) and its
// live rule — the recording it was built from, and its guards — as a
// wal.MigrationRecord; AdoptFlow puts them on the new owner — the state
// in the slots of the same-named NFs, the rule built from its recording
// over that state and installed with one Install, so a racing worker
// there sees the whole rule or none, and an event firing there updates
// it in place. The ladder place does not travel: its deadlines are ticks
// of the old owner's clock.

// FlowEntries returns a snapshot of every tracked flow, sorted by FID.
// Cluster rebalancing walks it to decide which flows a new steering
// table reassigns; the sort makes migration order — and therefore the
// fault injector's consultation order — deterministic for the oracle.
func (e *Engine) FlowEntries() []flow.Entry { return e.class.Flows().Snapshot() }

// FlowLen returns the number of tracked flows (status rollups).
func (e *Engine) FlowLen() int { return e.class.Flows().Len() }

// ExtractFlow drains one flow out of the engine for migration: it
// snapshots the flow entry, the live consolidated rule and the NFs'
// per-flow state, then removes every trace of the
// flow from this engine — Global MAT rule with its recording and
// events, admission budgets, ladder state and the flow-table entry
// itself. Each NF with state on the flow is told it is leaving,
// not ending (FlowStates.Leave). It reports ok=false, removing nothing,
// when the flow is not tracked. It runs at a packet boundary it holds
// (Engine.exclusive), so no vector is inside the flow meanwhile.
func (e *Engine) ExtractFlow(fid flow.FID) (wal.MigrationRecord, bool) {
	defer e.exclusive()()
	ed := e.class.Flows().Edit(fid, false)
	defer ed.Done()
	entry, ok := e.class.Flows().LookupFID(fid)
	if !ok {
		return wal.MigrationRecord{}, false
	}
	mf := wal.MigrationRecord{Flow: wal.ImageOfEntry(entry, e.events.DropState(ed, false))}
	if r := e.global.Live(ed.Handle()); r != nil {
		mf.Rule = wal.Image(r, wal.NamesOf(e.state().contribs))
	}
	e.release(ed)
	ed.Unlink()
	return mf, true
}

// AdoptFlow installs a migrated flow on this engine: the flow entry is
// restored at its recorded FID (invalidating any cached handles) under
// this engine's seen epoch — idle expiry counts from the adoption — the
// NF state is put on the entry's record, and the rule — if one traveled
// — is re-stamped to this engine's live epoch and adopted. The epoch
// re-stamp makes the install transactional against this engine's
// readers: a rule stamped with the old owner's epoch would either never
// serve (epoch behind) or, worse, serve under an epoch this chain never
// published.
//
// FIDs are allocated per instance, so the migrant's may be one a
// resident flow of this engine holds (and its tuple may be tracked here
// under another). RestoreEntry evicts such an entry; the flow it held is
// ended first, as a teardown ends one, so the migrant inherits nothing
// and the evicted tuple's next packet starts a new flow. It holds the
// packet boundary, as ExtractFlow does.
func (e *Engine) AdoptFlow(mf wal.MigrationRecord) {
	defer e.exclusive()()
	flows := e.class.Flows()
	ed := flows.Edit(mf.Flow.FID, false)
	e.release(ed)
	ed.Done()
	if h, ok := flows.Acquire(mf.Flow.Tuple); ok && h.FID() != mf.Flow.FID {
		ed := flows.EditHandle(h)
		e.release(ed)
		ed.Done()
	}
	flows.RestoreEntry(mf.Flow.Entry())
	e.events.AdoptState(mf.Flow.FID, e.state().lay, mf.Flow.NF)
	if mf.Rule != nil {
		im := *mf.Rule
		im.Epoch = e.global.Epoch()
		e.adopt(&im)
	}
}

// release ends the flow the entry under edit carries: what
// consolidation built — the rule, with the events it guards — and the
// budget it held go, then, in one lock of the flow's record
// (event.Table.End), its NFs' per-flow state and its place on the ladder
// (each NF told the flow is over; a later holder of the entry starts
// clean instead of inheriting this one's backoff). It reports whether a
// rule was installed.
func (e *Engine) release(ed flow.Edit) bool {
	removed := e.global.RemoveAt(ed)
	e.refund(ed)
	e.events.End(ed)
	return removed
}
