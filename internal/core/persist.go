package core

import (
	"fmt"
	"time"

	"github.com/fastpathnfv/speedybox/internal/errcode"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// Crash-safe state: the engine journals every Global MAT mutation and
// Event Table registration into an attached wal.Writer, snapshots its
// restorable state into wal.Checkpoints, and Restore rebuilds a fresh
// engine from a checkpoint plus the journal suffix.
//
// The transactional commit point is mat.Global.Install: replay applies
// a record's rule with one Install — one store of the flow entry's rule
// word, exactly like a live install — so a concurrent batch worker sees
// either the whole rule or no rule — never a partially applied one. A torn or corrupt journal tail is discarded whole by
// wal.Decode before any of it can touch the table.
//
// Only declarative rules restore executable. State-function batches
// and event closures are code bound to a flow's state words and cannot
// be serialized; their flows come back as established flow-table
// entries with their NFs' per-flow state and without a rule, so the
// classifier marks their next packet Initial and one slow-path
// traversal re-records the closures against the restored state — the
// same always-correct degradation path every other rule loss uses.

// ErrNilCheckpoint reports Restore called without a checkpoint.
var ErrNilCheckpoint = errcode.Sentinel("core.checkpoint_missing", "core: restore requires a checkpoint")

// walJournal adapts the Global MAT to the engine's WAL writer. Its
// callbacks run inside the flow-table Edit that applied the mutation, so
// a flow's records land in the log in exactly the order its mutations
// committed.
type walJournal struct{ e *Engine }

func (j *walJournal) RuleInstalled(r *mat.GlobalRule, replaced bool) {
	rec := wal.Record{Type: wal.RecRuleInstall, FID: r.FID, Epoch: r.Epoch}
	if replaced {
		rec.Aux |= wal.AuxReplaced
	}
	// Restorable = declarative header work only and no event guards.
	if im, ok := wal.ImageOf(r); ok {
		rec.Aux |= wal.AuxRestorable
		rec.Rule = im
	}
	j.e.wal.Append(rec)
}

func (j *walJournal) RuleRemoved(fid flow.FID) {
	j.e.wal.Append(wal.Record{Type: wal.RecRuleRemove, FID: fid, Epoch: j.e.global.Epoch()})
}

func (j *walJournal) RuleStaled(fid flow.FID) {
	j.e.wal.Append(wal.Record{Type: wal.RecRuleStale, FID: fid, Epoch: j.e.global.Epoch()})
}

func (j *walJournal) EpochAdvanced(epoch uint64) {
	j.e.wal.Append(wal.Record{Type: wal.RecEpochAdvance, Epoch: epoch})
}

// AttachWAL journals all future Global MAT mutations and Event Table
// registrations into w (nil detaches). Attach before traffic flows:
// the journal captures mutations from attachment onward, and a
// checkpoint anchors the prefix it never saw.
func (e *Engine) AttachWAL(w *wal.Writer) {
	e.wal = w // where eventRegistered journals registrations
	if w == nil {
		e.global.SetJournal(nil)
		return
	}
	e.global.SetJournal(&walJournal{e})
	if e.tel != nil {
		e.tel.hookWAL(w)
	}
}

// WAL returns the attached write-ahead log, nil when durability is off.
func (e *Engine) WAL() *wal.Writer { return e.wal }

// Checkpoint snapshots the engine's restorable state: chain epoch,
// logical clock, flow-table occupancy with every flow's NF state,
// declarative Global MAT rules and the cross-flow state blob of every
// chain NF implementing Snapshotter. The
// attached WAL (if any) is synced first so the recorded log position
// is durable alongside everything it anchors. Call at a packet
// boundary — checkpointing must not race Process, like Reconfigure.
func (e *Engine) Checkpoint() (*wal.Checkpoint, error) {
	e.reconfigMu.Lock()
	defer e.reconfigMu.Unlock()
	start := time.Now()

	e.wal.Sync()
	cp := &wal.Checkpoint{
		Epoch:  e.global.Epoch(),
		WALSeq: e.wal.Seq(),
		Clock:  e.clock.Load(),
	}
	for _, fe := range e.class.Flows().Snapshot() {
		cp.Flows = append(cp.Flows, wal.ImageOfEntry(fe, e.events.StateImages(fe.FID)))
		// Only a live rule on its own flow's entry restores (a stale or
		// old-epoch one is re-recorded anyway), and only a declarative
		// one: a closure-bearing rule is restorable only by re-recording.
		if r, ok := e.global.LookupLive(fe.FID); ok {
			if im, ok := wal.ImageOf(r); ok {
				cp.Rules = append(cp.Rules, *im)
			}
		}
	}

	cs := e.state()
	for _, nf := range cs.chain {
		snap, ok := nf.(Snapshotter)
		if !ok {
			continue
		}
		blob, err := snap.SnapshotState()
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint %s: %w", nf.Name(), err)
		}
		if cp.NFState == nil {
			cp.NFState = make(map[string][]byte)
		}
		cp.NFState[nf.Name()] = blob
	}

	e.lastCheckpoint.Store(time.Now().UnixNano())
	if e.tel != nil {
		e.tel.checkpoints.Inc()
		e.tel.checkpointNanos.Record(uint64(time.Since(start).Nanoseconds()), 0)
	}
	return cp, nil
}

// LastCheckpoint returns when the engine last completed a Checkpoint
// (zero time = never).
func (e *Engine) LastCheckpoint() time.Time {
	ns := e.lastCheckpoint.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Restore rebuilds the engine's state from a checkpoint plus the
// journal bytes written after it (walData may be nil for a
// checkpoint-only restore). Call it on a freshly constructed engine
// over the same chain layout, before traffic flows.
//
// The NFs' cross-flow state is restored first, then the flow entries —
// each with its NFs' per-flow state, of which the NFs are told
// (FlowStates.Arrive) — and rules land on them. Replay is
// transactional per record: each surviving journal record is applied
// with one Install/Remove/MarkStale — the same commit point live
// mutations use — so a concurrent reader observes whole rules only. wal.Decode has already discarded
// any torn tail whole. Non-restorable installs and event registrations
// demote their flow to re-recording: the restored flow entry is
// established with no rule, so the classifier marks the next packet
// Initial and the slow path reconstructs the closures. Degradation
// ladder backoff deliberately does not survive a restore: the faults
// that parked a flow died with the old process, so restored flows
// retry recording immediately.
func (e *Engine) Restore(cp *wal.Checkpoint, walData []byte) error {
	if cp == nil {
		return ErrNilCheckpoint
	}
	e.reconfigMu.Lock()
	defer e.reconfigMu.Unlock()
	start := time.Now()

	e.clock.Store(max(e.clock.Load(), cp.Clock)) // it never goes back
	cs := e.state()
	for _, nf := range cs.chain {
		blob, ok := cp.NFState[nf.Name()]
		if !ok {
			continue
		}
		snap, ok := nf.(Snapshotter)
		if !ok {
			continue // chain shape changed; the NF re-learns organically
		}
		if err := snap.RestoreState(blob); err != nil {
			return fmt.Errorf("core: restore %s: %w", nf.Name(), err)
		}
	}
	for i := range cp.Flows {
		f := &cp.Flows[i]
		e.class.Flows().RestoreEntry(f.Entry())
		e.events.AdoptState(f.FID, cs.lay, f.NF)
	}

	e.global.RestoreEpoch(cp.Epoch)
	if e.opts.EnableSpeedyBox {
		for i := range cp.Rules {
			e.install(cp.Rules[i].Rule())
		}
	}

	recs, _ := wal.Decode(walData)
	replayed := 0
	for _, rec := range recs {
		if rec.Seq <= cp.WALSeq {
			continue // already reflected in the checkpoint
		}
		replayed++
		switch rec.Type {
		case wal.RecRuleInstall:
			if rec.Rule != nil && e.opts.EnableSpeedyBox {
				e.install(rec.Rule.Rule())
			} else {
				// The live install carried closures this log cannot
				// reconstruct; whatever older rule is installed for the
				// flow is superseded, so drop it and let the flow
				// re-record.
				e.global.Remove(rec.FID)
			}
		case wal.RecRuleRemove:
			e.global.Remove(rec.FID)
		case wal.RecRuleStale:
			e.global.MarkStale(rec.FID)
		case wal.RecEpochAdvance:
			e.global.RestoreEpoch(rec.Epoch)
		case wal.RecEventRegister:
			// The flow gained an event closure after its rule was
			// journaled; serving the rule without the event would skip
			// the update, so demote the flow to re-recording.
			e.global.Remove(rec.FID)
		}
	}

	// Replayed epoch advances kill every rule consolidated under an
	// older epoch — the restore-time equivalent of SweepEpoch, which is
	// deliberately not journaled. Orphan rules — replayed for a flow
	// whose table entry was born after the checkpoint and so died with
	// the crash — landed on detached entries and are swept too: a rule
	// survives restore only on its own flow's entry, and a detached
	// entry left behind would keep its FID from the tuples that hash
	// there.
	finalEpoch := e.global.Epoch()
	e.class.Flows().Each(func(h flow.Handle) {
		if r := e.global.Rule(h); r != nil && (r.Epoch != finalEpoch || h.Detached()) {
			e.global.Remove(h.FID())
		}
	})

	// Republish the chain snapshot under the restored epoch; otherwise
	// post-restore consolidations would stamp rules with the stale
	// construction-time epoch and LookupLive would never serve them.
	if cs.epoch != finalEpoch {
		e.cur.Store(&chainState{chain: cs.chain, lay: cs.lay, epoch: finalEpoch})
	}

	if e.tel != nil {
		e.tel.restores.Inc()
		e.tel.walReplayed.Add(uint64(replayed))
		e.tel.restoreNanos.Record(uint64(time.Since(start).Nanoseconds()), 0)
	}
	return nil
}
