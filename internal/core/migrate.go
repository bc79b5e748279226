package core

import (
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// Live flow migration between engine instances (cluster scale-out).
//
// A cluster runs N engines over one shared chain of NF instances: NF
// per-flow state is keyed by FID and lives inside the NFs, so it never
// moves — what moves is the *engine-side* consolidation state: the
// flow-table entry, the consolidated Global MAT rule, and the flow's
// position on the degradation ladder. ExtractFlow packages exactly
// that; AdoptFlow installs it on the new owner with one Install — the
// same transactional commit point live consolidation and WAL replay use
// — so a racing batch worker on the new owner sees either the whole
// rule or no rule, never a torn one.
//
// Like checkpoint/restore, only declarative rules travel. A rule with
// state-function batches, or a flow with pending Event Table
// registrations, references closures bound to this engine's record;
// those flows migrate as established flow entries without a rule, so
// the classifier marks their next packet Initial and one slow-path
// traversal re-records them against the (shared, still-live) NF state —
// the always-correct degradation path. Ladder state deliberately does
// not travel either: the backoff deadlines are ticks of the *old*
// owner's logical clock and are meaningless on the new one.

// MigratedFlow is one flow's engine-side state in transit between
// cluster instances (the migration record).
type MigratedFlow struct {
	// Entry is the flow-table entry snapshot, taken at a packet
	// boundary on the old owner.
	Entry flow.Entry
	// Rule is the flow's restorable consolidated rule, nil when the
	// flow must re-record on the new owner (no live rule, stale rule,
	// closure-bearing rule, or pending event registrations).
	Rule *wal.RuleImage
}

// FlowEntries returns a snapshot of every tracked flow, sorted by FID.
// Cluster rebalancing walks it to decide which flows a new steering
// table reassigns; the sort makes migration order — and therefore the
// fault injector's consultation order — deterministic for the oracle.
func (e *Engine) FlowEntries() []flow.Entry { return e.class.Flows().Snapshot() }

// FlowLen returns the number of tracked flows (status rollups).
func (e *Engine) FlowLen() int { return e.class.Flows().Len() }

// ExtractFlow drains one flow out of the engine for migration: it
// snapshots the flow entry and (when restorable) the live consolidated
// rule, then removes every trace of the flow from this engine — Global
// MAT rule, recording, event registrations, admission budgets,
// ladder state and the flow-table entry itself. It reports ok=false,
// removing nothing, when the flow is not tracked.
//
// The caller must hold the instance at a packet boundary (no Process
// or ProcessBatch in flight), exactly like Checkpoint. NF-internal
// per-flow state is deliberately untouched: in a cluster the chain NFs
// are shared across instances, so FlowCloser must not fire — the flow
// is moving, not closing.
func (e *Engine) ExtractFlow(fid flow.FID) (MigratedFlow, bool) {
	entry, ok := e.class.Flows().LookupFID(fid)
	if !ok {
		return MigratedFlow{}, false
	}
	mf := MigratedFlow{Entry: entry}
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
// stamp so idle-expiry arithmetic stays monotonic, and the rule — if
// one traveled — is re-stamped to this engine's live epoch and
// installed. The epoch re-stamp is what makes the install transactional
// against this engine's readers: a rule stamped with the old owner's
// epoch would either never serve (epoch behind) or, worse, serve under
// an epoch this chain never published.
//
// FIDs are allocated per instance, so the migrant's may be one a
// resident flow of this engine holds (and its tuple may be tracked here
// under another). RestoreEntry evicts such an entry; what it held — its
// rule and recording, journaled and budgeted as a teardown's are, and
// its ladder state — is released first, so the migrant inherits nothing
// and the evicted tuple's next packet starts a new flow.
func (e *Engine) AdoptFlow(mf MigratedFlow) {
	e.class.RestoreClock(mf.Entry.LastSeen)
	flows := e.class.Flows()
	e.release(mf.Entry.FID)
	if h, ok := flows.Acquire(mf.Entry.Tuple); ok && h.FID() != mf.Entry.FID {
		e.release(h.FID())
	}
	flows.RestoreEntry(mf.Entry)
	if mf.Rule == nil || !e.opts.EnableSpeedyBox {
		return
	}
	im := *mf.Rule
	im.Epoch = e.global.Epoch()
	e.install(im.Rule())
}

// release drops what the engine holds for a FID besides its flow entry:
// consolidated state and ladder position (migrate-back re-uses FIDs, and
// a deadline from an earlier tenancy must not greet the next).
func (e *Engine) release(fid flow.FID) {
	e.dropConsolidated(fid)
	e.dropDegraded(fid)
}
