package core

import (
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// Live flow migration between engine instances (cluster scale-out).
//
// What a flow is on an engine is its flow-table entry and what hangs off
// it: the consolidated Global MAT rule, the recording, and its NFs'
// per-flow state. ExtractFlow packages the entry, the rule (when it can
// travel) and the NF state — by value, an image a slot in use — as the
// migration record that goes on the wire (wal.MigrationRecord: its Rule
// is nil when the flow must re-record on the new owner — no live rule, a
// stale or closure-bearing one, or pending event registrations), and
// AdoptFlow puts them on the new owner: the state lands in the slots of
// the same-named NFs of that engine's chain, whether or not the two
// engines share NF objects, and the rule goes in with one Install — the
// same transactional commit point live consolidation and WAL replay use
// — so a racing batch worker on the new owner sees either the whole
// rule or no rule, never a torn one.
//
// Like checkpoint/restore, only declarative rules travel. A rule with
// state-function batches, or a flow with pending Event Table
// registrations, references closures bound to the old owner's record;
// those flows migrate as established flow entries without a rule, so
// the classifier marks their next packet Initial and one slow-path
// traversal re-records them against the NF state that came along — the
// always-correct degradation path. Ladder state deliberately does not
// travel: the backoff deadlines are ticks of the *old* owner's logical
// clock and are meaningless on the new one.

// FlowEntries returns a snapshot of every tracked flow, sorted by FID.
// Cluster rebalancing walks it to decide which flows a new steering
// table reassigns; the sort makes migration order — and therefore the
// fault injector's consultation order — deterministic for the oracle.
func (e *Engine) FlowEntries() []flow.Entry { return e.class.Flows().Snapshot() }

// FlowLen returns the number of tracked flows (status rollups).
func (e *Engine) FlowLen() int { return e.class.Flows().Len() }

// ExtractFlow drains one flow out of the engine for migration: it
// snapshots the flow entry, (when restorable) the live consolidated
// rule and the NFs' per-flow state, then removes every trace of the
// flow from this engine — Global MAT rule, recording, event
// registrations, admission budgets, ladder state and the flow-table
// entry itself. Each NF with state on the flow is told it is leaving,
// not ending (FlowStates.Leave). It reports ok=false, removing nothing,
// when the flow is not tracked.
//
// The caller must hold the instance at a packet boundary (no Process
// or ProcessBatch in flight), exactly like Checkpoint.
func (e *Engine) ExtractFlow(fid flow.FID) (wal.MigrationRecord, bool) {
	entry, ok := e.class.Flows().LookupFID(fid)
	if !ok {
		return wal.MigrationRecord{}, false
	}
	mf := wal.MigrationRecord{Flow: wal.ImageOfEntry(entry, e.events.DropState(fid, false))}
	if r, live := e.global.LookupLive(fid); live && r.Epoch == e.global.Epoch() {
		mf.Rule, _ = wal.ImageOf(r)
	}
	e.release(fid)
	e.class.Flows().Remove(fid)
	return mf, true
}

// AdoptFlow installs a migrated flow on this engine: the flow entry is
// restored at its recorded FID (invalidating any cached handles), the
// classifier clock is pulled forward to at least the entry's LastSeen
// stamp so idle-expiry arithmetic stays monotonic, the NF state is put
// on the entry's record, and the rule — if one traveled — is re-stamped
// to this engine's live epoch and installed. The epoch re-stamp is what
// makes the install transactional against this engine's readers: a rule
// stamped with the old owner's epoch would either never serve (epoch
// behind) or, worse, serve under an epoch this chain never published.
//
// FIDs are allocated per instance, so the migrant's may be one a
// resident flow of this engine holds (and its tuple may be tracked here
// under another). RestoreEntry evicts such an entry; the flow it held is
// ended first, as a teardown ends one, so the migrant inherits nothing
// and the evicted tuple's next packet starts a new flow.
func (e *Engine) AdoptFlow(mf wal.MigrationRecord) {
	e.class.RestoreClock(mf.Flow.LastSeen)
	flows := e.class.Flows()
	e.release(mf.Flow.FID)
	if h, ok := flows.Acquire(mf.Flow.Tuple); ok && h.FID() != mf.Flow.FID {
		e.release(h.FID())
	}
	flows.RestoreEntry(mf.Flow.Entry())
	e.events.AdoptState(mf.Flow.FID, e.state().lay, mf.Flow.NF)
	if mf.Rule == nil || !e.opts.EnableSpeedyBox {
		return
	}
	im := *mf.Rule
	im.Epoch = e.global.Epoch()
	e.install(im.Rule())
}

// release ends the flow the FID's entry carries, leaving the entry: its
// NFs' per-flow state goes (each NF told the flow is over), then what
// consolidation built, then the ladder position — a later holder of the
// FID starts clean instead of inheriting this one's backoff. It reports
// whether a rule was installed.
func (e *Engine) release(fid flow.FID) bool {
	e.events.DropState(fid, true)
	removed := e.dropConsolidated(fid)
	e.dropDegraded(fid)
	return removed
}
