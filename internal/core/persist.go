package core

import (
	"fmt"
	"slices"
	"time"

	"github.com/fastpathnfv/speedybox/internal/errcode"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// Crash-safe state: the engine journals every Global MAT mutation into
// an attached wal.Writer, snapshots its restorable state into
// wal.Checkpoints, and Restore rebuilds a fresh engine from a checkpoint
// plus the journal suffix.
//
// The transactional commit point is mat.Global.Install: replay applies
// a record's rule with one Install, exactly like a live install, so a
// concurrent batch worker sees the whole rule or none. wal.Decode
// discards a torn or corrupt journal tail whole.
//
// Every live rule restores: its image is its recording (mat.GlobalRule.Spans)
// and its guards (mat.Ref), and restore builds the rule from it as a live
// install does (Engine.build), so an event firing on a restored flow
// updates its rule in place, as on a flow that never left.

// ErrNilCheckpoint reports Restore called without a checkpoint.
var ErrNilCheckpoint = errcode.Sentinel("core.checkpoint_missing", "core: restore requires a checkpoint")

// walJournal adapts the Global MAT to the engine's WAL writer. Its
// callbacks run inside the flow-table Edit that applied the mutation, so
// a flow's records land in the log in exactly the order its mutations
// committed.
type walJournal struct{ e *Engine }

func (j *walJournal) RuleInstalled(r *mat.GlobalRule, replaced bool) {
	j.e.wal.AppendInstall(r, j.e.state().contribs, replaced)
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

// AttachWAL journals all future Global MAT mutations into w (nil
// detaches). Attach before traffic flows: the journal captures
// mutations from attachment onward, and a checkpoint anchors the prefix
// it never saw.
func (e *Engine) AttachWAL(w *wal.Writer) {
	e.wal = w
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
// logical clock, flow-table occupancy with every flow's NF state, the
// live Global MAT rules and the cross-flow state blob of every chain NF
// implementing Snapshotter, at a packet boundary it holds
// (Engine.exclusive), once the vectors in flight have ended. The
// attached WAL (if any) is synced first so the recorded log position
// is durable alongside everything it anchors.
func (e *Engine) Checkpoint() (*wal.Checkpoint, error) {
	defer e.exclusive()()
	start := time.Now()

	e.wal.Sync()
	cs := e.state()
	names := wal.NamesOf(cs.contribs)
	cp := &wal.Checkpoint{
		Epoch:  e.global.Epoch(),
		WALSeq: e.wal.Seq(),
		Clock:  e.clock.Load(),
	}
	for _, fe := range e.class.Flows().Snapshot() {
		cp.Flows = append(cp.Flows, wal.ImageOfEntry(fe, e.events.StateImages(fe.FID)))
		// Only a live rule on its own flow's entry restores: a stale or
		// old-epoch one is re-recorded anyway.
		if h, ok := e.class.Flows().AcquireFID(fe.FID); ok {
			if r := e.global.Live(h); r != nil {
				cp.Rules = append(cp.Rules, *wal.Image(r, names))
			}
		}
	}

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
// checkpoint-only restore), at a packet boundary it holds. Call it on a
// fresh engine over the same chain layout, before traffic flows.
//
// The NFs' cross-flow state is restored first, then the flow entries —
// each with its NFs' per-flow state, of which the NFs are told
// (FlowStates.Arrive) — and rules land on them (adopt), taking the
// images' spans over. Each surviving journal record is applied with one
// Install/Remove/MarkStale, the commit points live mutations use. Ladder
// backoff and the event-storm fault's guards do not survive a restore:
// the faults died with the old process.
func (e *Engine) Restore(cp *wal.Checkpoint, walData []byte) error {
	if cp == nil {
		return ErrNilCheckpoint
	}
	defer e.exclusive()()
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
	for i := range cp.Rules {
		e.adopt(&cp.Rules[i])
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
			if rec.Rule != nil {
				e.adopt(rec.Rule)
			} else {
				// An install logged without its image still superseded
				// the flow's older rule: the flow re-records.
				e.global.Remove(rec.FID)
			}
		case wal.RecRuleRemove:
			e.global.Remove(rec.FID)
		case wal.RecRuleStale:
			e.global.MarkStale(rec.FID)
		case wal.RecEpochAdvance:
			e.global.RestoreEpoch(rec.Epoch)
		}
	}

	// Replayed epoch advances kill every rule consolidated under an
	// older epoch — the restore-time equivalent of SweepEpoch, which is
	// deliberately not journaled.
	finalEpoch := e.global.Epoch()
	e.class.Flows().Each(func(h flow.Handle) {
		if r := e.global.Rule(h); r != nil && r.Epoch != finalEpoch {
			e.global.Remove(h.FID())
		}
	})

	// Republish the chain snapshot under the restored epoch; otherwise
	// post-restore consolidations would stamp rules with the stale
	// construction-time epoch and LookupLive would never serve them.
	if cs.epoch != finalEpoch {
		next := *cs
		next.epoch = finalEpoch
		e.cur.Store(&next)
	}

	if e.tel != nil {
		e.tel.restores.Inc()
		e.tel.walReplayed.Add(uint64(replayed))
		e.tel.restoreNanos.Record(uint64(time.Since(start).Nanoseconds()), 0)
	}
	return nil
}

// adopt installs the rule an image's recording builds, guarded by the
// events its guards name, each bound to what the chain's NF declared and
// to its words on the flow, on its tracked flow. An image the chain
// cannot build or bind, or one naming the engine's own guards, which no
// image carries, is dropped with the flow's older rule, which it
// superseded: the flow re-records.
func (e *Engine) adopt(im *wal.RuleImage) {
	ed := e.class.Flows().Edit(im.FID, false)
	defer ed.Done()
	if !e.opts.EnableSpeedyBox || !ed.Found() || ed.Handle().Detached() {
		return
	}
	cs := e.state()
	var rule *mat.GlobalRule
	if im.Of(cs.contribs) && !slices.ContainsFunc(im.Guards, func(r mat.Ref) bool { return r.Index == event.EngineOwned }) {
		rule, _ = e.build(ed, cs, im.Epoch, &event.Recording{Spans: im.Spans, Regs: im.Guards}, nil)
	}
	if rule == nil {
		e.dropConsolidated(ed)
		return
	}
	rule.Version = im.Version
	e.global.InstallAt(ed, rule)
}
