package mat

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"unsafe"

	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

// GlobalRule is one consolidated fast-path rule: the single header
// action equivalent to the whole chain, plus the state-function
// execution plan.
type GlobalRule struct {
	// The fields a packet served from the rule reads come first, so they
	// share the rule's first cache line: Epoch (Global.Live), the guards,
	// the price, the program and the batches' plan.

	// Epoch is the chain epoch the rule was consolidated under. A rule
	// whose epoch differs from the table's current epoch encodes a
	// retired chain layout: LookupLive refuses it even before the
	// post-reconfiguration sweep reaches its shard.
	Epoch uint64
	// Guards is the flow's events (nil: none): the guard list the
	// consolidation bound, the one record of which events the flow has.
	// Like every field, it is never written once the rule is installed.
	Guards *Guard
	// FixedCycles and HeaderCycles are the rule's price in the cycle
	// model: what every packet it serves is charged for reaching and
	// holding the rule, and for its header work. Both are constant for
	// a rule's life, so the engine that installs the rule works them
	// out once (this package does not know the cost model), and an
	// installed rule's FixedCycles is never zero.
	FixedCycles, HeaderCycles uint64
	// Prog is the rule's header work — residual decaps, encaps, merged
	// modifies — compiled into one opcode+immediate byte stream at
	// consolidation time, each modify resolved to where its field lives:
	// its one executable form, run per packet by ExecHeader, priced by
	// HeaderWork and printed by String. Nil only on a hand-built rule not
	// yet compiled, which ExecHeader refuses.
	Prog []byte
	// Plan is what the fast path runs of Batches (nil: no batch): their
	// Table-I schedule, the adds of their functions declared as data, and
	// their charge, priced with the rule's price.
	Plan *sfunc.Exec
	// Batches are the per-NF state-function batches in chain order.
	// For dropped flows these are the batches of NFs up to and
	// including the dropping NF, so internal state (e.g. Monitor
	// counters upstream of a Firewall) evolves exactly as on the
	// original path.
	Batches []sfunc.Batch

	// FID identifies the flow.
	FID flow.FID
	// Drop is the consolidated verdict: the packet is dropped at the
	// head of the chain (early packet drop, redundancy R2).
	Drop bool
	// Modifies is a hand-built rule's header work, which Compile reads:
	// field rewrites in order. A consolidated rule's is nil; its program
	// holds its rewrites.
	Modifies []FieldValue
	// Spans is the recording the rule was built from: each NF's Local MAT
	// entry by chain position (non-nil Actions if the NF recorded
	// anything). The rule owns it and never changes it, so a restore, a
	// migration or an event update (on a copy) builds from it, and the
	// ablation of Figure 7 prices the un-consolidated header work by it.
	Spans []LocalRule
	// Version counts reconsolidations triggered by events.
	Version uint64
}

// Ref names a declared handler a rule calls: its NF's chain position and
// its index among the NF's declared state functions or events.
type Ref struct{ At, Index uint16 }

// Guard is a node of a rule's immutable list of event registrations, in
// registration order: its condition, which holds while Word is at least
// AtLeast. Package event builds and evaluates the lists.
type Guard struct {
	Ref
	Word    *atomic.Uint64
	AtLeast uint64
	Next    *Guard
}

// Plain reports a priced forward with no header work, function or guard.
func (r *GlobalRule) Plain() bool {
	return !r.Drop && string(r.Prog) == string(forwardProg) && len(r.Batches) == 0 && r.Guards == nil &&
		r.FixedCycles != 0 && max(r.FixedCycles, r.HeaderCycles) < 1<<32
}

// ApplyHeader is the reference for the rule's program: every action of
// its Spans applied in chain order, each modify patching the checksums
// at once, as ApplyNaive applies a chain's contributions. It returns
// false when the verdict is drop. State-function execution is separate
// (the engine runs the Plan).
func (r *GlobalRule) ApplyHeader(pkt *packet.Packet) (alive bool, err error) {
	for i := range r.Spans {
		if alive, err := apply(pkt, r.Spans[i].Actions); !alive || err != nil {
			return alive, err
		}
	}
	return true, nil
}

// String renders the rule in the paper's Figure-1 notation, its program
// disassembled in the order it runs — residual decaps and encaps, then
// the merged modifies by field name — e.g. "fid:00001 -> decap(AH)
// modify(DIP,DPort) + 2 SF batches [v0]"; "invalid program" for one
// ExecHeader would refuse.
func (r *GlobalRule) String() string {
	acts, ok := r.HeaderActions()
	var parts, fields []string
	for _, a := range acts {
		if a.Kind == ActionModify {
			fields = append(fields, a.Field.String())
		} else {
			parts = append(parts, a.String())
		}
	}
	switch {
	case !ok:
		parts = []string{"invalid program"}
	case len(fields) > 0:
		parts = append(parts, "modify("+strings.Join(fields, ",")+")")
	case len(parts) == 0:
		parts = []string{"forward"}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%v -> %s", r.FID, strings.Join(parts, " "))
	if n := len(r.Batches); n > 0 {
		fmt.Fprintf(&b, " + %d SF batch(es) in %d stage(s)", n, r.Plan.Len())
	}
	fmt.Fprintf(&b, " [v%d]", r.Version)
	return b.String()
}

// Global is the Global MAT: the consolidated fast-path rules keyed by
// FID (in BESS a global array reachable from all Local MATs, in ONVM at
// the NF manager, §VI-A). It has no table of its own: a flow's rule is
// the first word of its entry in the flow table, so the packet that has
// found its flow has found its rule, and this type is the word's meaning
// — what may be stored in it, when it may be served, who hears of a
// change. Installed rules are immutable; replacement installs a fresh
// pointer. Reads are lock-free (Live needs no probe at all for a caller
// holding the flow's Handle); writes hold a flow.Edit, whose shard mutex
// serializes one FID's installs, removals, stale marks and journal
// callbacks with its entry's unlinking, and invalidates nothing else.
//
// A rule for an FID no flow holds (a side rule of the benchmark, a
// journal replayed past its flow) lives on a detached entry, created by
// Install and gone with Remove: it reserves the FID, no tuple finds it.
type Global struct {
	flows *flow.Table
	// epoch is the current chain epoch. Engine.Reconfigure advances it
	// when the NF chain changes shape; every rule consolidated under an
	// earlier epoch is then dead (LookupLive misses) and is stale-marked
	// by the sweep so teardown/expiry paths reclaim it.
	epoch atomic.Uint64
	// journal, when set, observes every mutation for write-ahead
	// logging (stored as a pointer-to-interface for atomic swap).
	journal atomic.Pointer[Journal]
	// guarded counts the installed rules with guards, kept by the edits
	// that install and remove them: what Guarded reports.
	guarded atomic.Int64
}

// Journal observes Global MAT mutations for write-ahead logging (core
// adapts it to the WAL writer). The callbacks run inside the flow-table
// Edit that applied the mutation (EpochAdvanced under the engine's
// reconfigure serialization), so the journal sees each FID's mutations
// in the order they applied; they must not call back into either table.
type Journal interface {
	// RuleInstalled reports an Install: r is the stored rule (the
	// version-carried copy when replacing).
	RuleInstalled(r *GlobalRule, replaced bool)
	// RuleRemoved reports a Remove that deleted an installed rule.
	RuleRemoved(fid flow.FID)
	// RuleStaled reports a MarkStale that marked an installed rule.
	RuleStaled(fid flow.FID)
	// EpochAdvanced reports an AdvanceEpoch with the new epoch.
	// SweepEpoch is deliberately not journaled: replaying the epoch
	// advance already invalidates every older-epoch rule.
	EpochAdvanced(epoch uint64)
}

// SetJournal attaches (or, with nil, detaches) the mutation journal.
func (g *Global) SetJournal(j Journal) {
	if j == nil {
		g.journal.Store(nil)
		return
	}
	g.journal.Store(&j)
}

func (g *Global) journalOf() Journal {
	if p := g.journal.Load(); p != nil {
		return *p
	}
	return nil
}

// NewGlobal returns the Global MAT over a flow table's entries.
func NewGlobal(flows *flow.Table) *Global { return &Global{flows: flows} }

// Publishes reports the slot arrays the Global MAT has published: none,
// it has no arrays. The flow table's Rebuilds counts the ones there are.
func (g *Global) Publishes() uint64 { return 0 }

// Install inserts or replaces the rule for a flow, reporting whether
// one was replaced. A replacement carries the version over, incremented,
// on a private copy of the rule — platforms may still read previously
// installed rules — and any install clears a stale mark.
func (g *Global) Install(r *GlobalRule) (replaced bool) {
	ed := g.flows.Edit(r.FID, true)
	defer ed.Done()
	return g.InstallAt(ed, r)
}

// InstallAt is Install on r's flow's entry, which the edit must have found:
// a plain rule of the current epoch leaves its summary there.
func (g *Global) InstallAt(ed flow.Edit, r *GlobalRule) (replaced bool) {
	stored := r
	old := (*GlobalRule)(ed.Handle().Rule())
	if old != nil {
		versioned := *r
		versioned.Version = old.Version + 1
		stored, replaced = &versioned, true
	}
	g.guard(old, stored)
	ed.SetRule(unsafe.Pointer(stored))
	if stored.Plain() && stored.Epoch == g.epoch.Load() {
		ed.SetPlain(stored.Epoch, stored.FixedCycles, stored.HeaderCycles)
	}
	if j := g.journalOf(); j != nil {
		j.RuleInstalled(stored, replaced)
	}
	return replaced
}

// guard keeps the count of guarded rules as the rule on an entry goes
// from old to now (either nil: none).
func (g *Global) guard(old, now *GlobalRule) {
	if old != nil && old.Guards != nil {
		g.guarded.Add(-1)
	}
	if now != nil && now.Guards != nil {
		g.guarded.Add(1)
	}
}

// Guarded returns the number of installed rules with guards: the flows
// with registered events.
func (g *Global) Guarded() int { return int(g.guarded.Load()) }

// Epoch returns the current chain epoch. Rules consolidated under an
// earlier epoch are never served by LookupLive.
func (g *Global) Epoch() uint64 { return g.epoch.Load() }

// AdvanceEpoch moves the table to the next chain epoch and returns it.
// Every read checks the epoch of the rule it is about to serve, so a
// pre-reconfiguration rule cannot be served even before SweepEpoch
// reaches it.
func (g *Global) AdvanceEpoch() uint64 {
	e := g.epoch.Add(1)
	if j := g.journalOf(); j != nil {
		j.EpochAdvanced(e)
	}
	return e
}

// RestoreEpoch forces the table's epoch to e (never backwards) without
// journaling — it exists for Engine.Restore, which replays a journal
// that already contains the epoch history.
func (g *Global) RestoreEpoch(e uint64) {
	for {
		if cur := g.epoch.Load(); cur >= e || g.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// SweepEpoch stale-marks every installed rule whose epoch differs from
// cur, returning how many rules were newly marked. It reuses the
// MarkStale representation so the ordinary reclamation paths (a fresh
// install, FIN teardown, idle expiry) clean the carcasses up; the rules
// were already dead to LookupLive the moment AdvanceEpoch published the
// new epoch, so the sweep only makes the staleness visible to StaleLen
// and Dump and lets IsStale-driven tooling see it.
func (g *Global) SweepEpoch(cur uint64) int {
	n := 0
	g.flows.Each(func(h flow.Handle) {
		if r := (*GlobalRule)(h.LiveRule()); r == nil || r.Epoch == cur {
			return
		}
		ed := g.flows.Edit(h.FID(), false)
		if h := ed.Handle(); ed.Found() && !h.Stale() {
			if r := (*GlobalRule)(h.Rule()); r != nil && r.Epoch != cur {
				ed.MarkStale()
				n++
			}
		}
		ed.Done()
	})
	return n
}

// Lookup fetches the rule for a flow, stale or not, lock-free. The
// returned rule must be treated as immutable.
func (g *Global) Lookup(fid flow.FID) (*GlobalRule, bool) {
	if h, ok := g.flows.AcquireFID(fid); ok {
		if r := (*GlobalRule)(h.Rule()); r != nil {
			return r, true
		}
	}
	return nil, false
}

// Remove deletes a flow's rule (FIN/RST teardown, §VI-B). It reports
// whether a rule existed.
func (g *Global) Remove(fid flow.FID) bool {
	ed := g.flows.Edit(fid, false)
	defer ed.Done()
	return g.RemoveAt(ed)
}

// RemoveAt is Remove on the entry under edit, found or not.
func (g *Global) RemoveAt(ed flow.Edit) bool {
	removed := ed.Found() && ed.Handle().Rule() != nil
	if removed {
		g.guard((*GlobalRule)(ed.Handle().Rule()), nil)
		ed.SetRule(nil)
		if j := g.journalOf(); j != nil {
			j.RuleRemoved(ed.Handle().FID())
		}
	}
	return removed
}

// MarkStale flags a flow's installed rule as disagreeing with the
// Local MATs — a failed install or a lost recomputation left the old
// version in the table. The rule stays installed (Lookup still returns
// it, and debugging tools can inspect it) but LookupLive misses, so
// the data path degrades the flow to the slow-path chain until a
// successful Install clears the mark. It reports whether a rule was
// present to mark.
func (g *Global) MarkStale(fid flow.FID) bool {
	ed := g.flows.Edit(fid, false)
	defer ed.Done()
	return g.MarkStaleAt(ed)
}

// MarkStaleAt is MarkStale on the entry under edit, found or not.
func (g *Global) MarkStaleAt(ed flow.Edit) bool {
	present := ed.Found() && ed.Handle().Rule() != nil
	if present {
		ed.MarkStale()
		if j := g.journalOf(); j != nil {
			j.RuleStaled(ed.Handle().FID())
		}
	}
	return present
}

// IsStale reports whether the flow's rule is stale-marked.
func (g *Global) IsStale(fid flow.FID) bool {
	h, ok := g.flows.AcquireFID(fid)
	return ok && h.Stale()
}

// Live returns the rule on a flow's entry if it may be served: set, not
// stale-marked, and consolidated under the current chain epoch. It is
// the data path's read — a caller that holds the flow's Handle pays two
// loads of an entry it has already touched and no probe.
func (g *Global) Live(h flow.Handle) *GlobalRule {
	if r := (*GlobalRule)(h.LiveRule()); r != nil && r.Epoch == g.epoch.Load() {
		return r
	}
	return nil
}

// Rule returns the rule on a flow's entry, stale or not.
func (g *Global) Rule(h flow.Handle) *GlobalRule { return (*GlobalRule)(h.Rule()) }

// LookupLive is Live for a caller that holds the FID and not the
// Handle: a miss sends it to the always-correct slow path, plain Lookup
// keeps returning stale rules for inspection.
func (g *Global) LookupLive(fid flow.FID) (*GlobalRule, bool) {
	if h, ok := g.flows.AcquireFID(fid); ok {
		if r := g.Live(h); r != nil {
			return r, true
		}
	}
	return nil, false
}

// Len returns the number of installed rules, StaleLen the stale-marked
// ones among them.
func (g *Global) Len() int      { return g.flows.Counts().Rules }
func (g *Global) StaleLen() int { return g.flows.Counts().Stale }

// ForEach calls fn for every installed rule, walking the flow table with
// no lock held, so fn may safely call back into the table; under
// concurrent writers the view is weakly consistent (a rule installed or
// removed during the walk may or may not be seen), and exact once
// writers are quiesced, as under the engine's packet-boundary fence. Rules must
// still be treated as immutable.
func (g *Global) ForEach(fn func(*GlobalRule)) {
	g.flows.Each(func(h flow.Handle) {
		if r := (*GlobalRule)(h.Rule()); r != nil {
			fn(r)
		}
	})
}

// Dump renders every installed rule, sorted by FID, for debugging and
// the chainsim -dump-rules flag.
func (g *Global) Dump() string {
	var rules []*GlobalRule
	g.ForEach(func(r *GlobalRule) { rules = append(rules, r) })
	sort.Slice(rules, func(i, j int) bool { return rules[i].FID < rules[j].FID })
	var b strings.Builder
	for _, r := range rules {
		b.WriteString(r.String())
		if g.IsStale(r.FID) {
			b.WriteString(" [stale]")
		}
		b.WriteString("\n")
	}
	return b.String()
}
