// Package event implements SpeedyBox's Event Table (paper §V-C1).
//
// Observation 2 of the paper: some NFs update their header actions or
// state functions at runtime when internal state reaches a condition
// (a Maglev backend fails, a DoS counter crosses a threshold). NFs
// register (condition, update) pairs via the register_event API; a
// condition is data — a word the NF resolves for the flow and a
// threshold — which the data plane evaluates itself, calling no NF. The
// fast path checks the conditions before applying a cached rule and
// again after state-function batches update state; when one holds, the
// update rewrites the owning NF's Local MAT entry in a copy of the
// recording the flow's rule was built from, and the copy is consolidated
// into the flow's next rule, so subsequent packets immediately follow
// the new logic.
//
// The table has no storage of its own. A flow's Event Table row is its
// installed rule's guard list (mat.GlobalRule.Guards): a recording
// carries its registrations as references (mat.Ref), and Consolidate
// binds each to its declaration and to the NF's words on the flow's
// Record, which hangs off the second word of the flow's entry in the
// flow table, beside the rule: tearing a flow down clears two words. An
// installed rule never changes, so a firing's one-shots leave with the
// rule the firing replaces.
package event

import (
	"fmt"
	"sync/atomic"

	"github.com/fastpathnfv/speedybox/internal/errcode"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
)

// MaxPerFlow caps how many events one flow's rule may guard. A condition
// storm (a buggy NF registering on every hop, or the injected fault)
// would otherwise grow the guard list without bound and make every
// fast-path event check linear in the storm size.
const MaxPerFlow = 64

// ErrTooManyEvents reports a registration rejected by the per-flow cap.
var ErrTooManyEvents = errcode.Sentinel("event.registration_cap", "event: per-flow registration cap reached")

// Event is one declared (condition → update) pair (the paper's
// register_event(fid, c, a, u)). An NF declares its events once
// (FlowStates.Events) and registers them for a flow by index: what the
// flow's rule carries is a guard, data binding the declaration to the
// flow's state words, never a closure of its own.
type Event struct {
	// Word and AtLeast are the paper's condition_handler as data: the
	// condition holds while the word Word resolves from the NF's state
	// words on the flow (never nil) is at least AtLeast. Word runs under
	// the flow's record lock, where the flow's guards are built (with
	// every rule), and must not call back into the flow or Event Table;
	// the fast path only loads the word, under no lock.
	Word    func(st State) *atomic.Uint64
	AtLeast uint64
	// Update edits the NF's Local MAT rule for the flow when the event
	// fires (update_action / update_function_handler), over the same
	// state words: its span of a copy of the flow's rule's recording,
	// under the flow's edit (the flow shard's mutex) and no record lock,
	// so it must not call back into the flow or Event Table.
	Update func(st State, r *mat.LocalRule)
	// OneShot events leave the flow's rule after firing once (e.g. a DoS
	// block): the rule the firing builds does not guard them. Recurring
	// events stay armed (e.g. a Maglev backend that could fail again).
	OneShot bool
}

// Validate reports whether the event is well-formed.
func (e *Event) Validate() error {
	if e == nil || e.Word == nil || e.Update == nil {
		return fmt.Errorf("event: registration without a condition and an update")
	}
	return nil
}

// EngineOwned is the declared index of a registration no NF declared:
// the engine's own (the event-storm fault). It guards and fires like any
// other, and is never imaged: it does not survive a restore or a move.
const EngineOwned = 1<<16 - 1

// stormEvent is the event-storm fault's event, which guards a rule under
// EngineOwned (Stormed): it always fires — any word is at least 0 — and
// changes nothing.
var stormEvent = Event{Word: func(State) *atomic.Uint64 { return &storm }, Update: func(State, *mat.LocalRule) {}}
var storm atomic.Uint64

// Firing is one guard of a flow's installed rule that holds: the event
// its reference names, whose update the engine applies to a copy of the
// rule's spans before it consolidates the copy (Bind binds it).
type Firing struct {
	FID flow.FID
	mat.Ref
}

// Table is the Event Table over the flow records of the flow table it
// was built over. A flow's events are its installed rule's guards, bound
// by Consolidate; the table keeps only counters. It is safe for
// concurrent use.
type Table struct {
	flows      *flow.Table
	fired      atomic.Uint64
	registered atomic.Uint64
	probes     atomic.Uint64
}

// NewTable returns the Event Table over a flow table's entries.
func NewTable(flows *flow.Table) *Table { return &Table{flows: flows} }

// Registered counts one event registration (register_event), for
// RegisteredTotal.
func (t *Table) Registered() { t.registered.Add(1) }

// Probe evaluates the guards of the flow's installed rule and returns
// the ones that hold, in registration order, changing nothing: the
// caller, holding the flow's edit, applies their updates and installs
// the rule they build, without the one-shots that fired. It also
// reports whether the rule has any guards at all.
func (t *Table) Probe(fid flow.FID) (fired []Firing, registered bool) {
	t.probes.Add(1)
	guards := t.guards(fid)
	for g := guards; g != nil; g = g.Next {
		if g.Word.Load() >= g.AtLeast {
			fired = append(fired, Firing{FID: fid, Ref: g.Ref})
			t.fired.Add(1)
		}
	}
	return fired, guards != nil
}

// guards is the guard list of the rule installed on the FID's entry.
func (t *Table) guards(fid flow.FID) *mat.Guard {
	if h, ok := t.flows.AcquireFID(fid); ok {
		if r := (*mat.GlobalRule)(h.Rule()); r != nil {
			return r.Guards
		}
	}
	return nil
}

// Bind returns the event ref names under lay — what the NF at its
// position declared, or the event-storm fault's for EngineOwned — and
// the NF's words on the flow under edit, which its update runs on; nil
// if lay declares no such event.
func (t *Table) Bind(ed flow.Edit, lay *StateLayout, ref mat.Ref) (*Event, State) {
	ev := lay.event(ref)
	if ev == nil || ref.Index == EngineOwned || lay.slots[ref.At].Words == 0 {
		return ev, nil
	}
	return ev, t.recordFor(ed, lay).State(lay, int(ref.At))
}

// event is the event ref names under lay, nil if none.
func (l *StateLayout) event(ref mat.Ref) *Event {
	switch {
	case ref.Index == EngineOwned:
		return &stormEvent
	case int(ref.At) >= len(l.slots):
		return nil
	}
	if v := l.slots[ref.At].Owner; v != nil && int(ref.Index) < len(v.Events) {
		return &v.Events[ref.Index]
	}
	return nil
}

// stormGuards end the guard list of every rule the event-storm fault
// strikes: its event three times, read-only, as every installed rule's
// guards are.
var stormGuards = func() *[3]mat.Guard {
	g := new([3]mat.Guard)
	for i := range g {
		g[i] = mat.Guard{Ref: mat.Ref{Index: EngineOwned}, Word: &storm}
		if i > 0 {
			g[i-1].Next = &g[i]
		}
	}
	return g
}()

// Stormed returns g, the guard list of a rule not yet installed, with the
// event-storm fault's guards after it, as many of the three as MaxPerFlow
// leaves room for.
func Stormed(g *mat.Guard) *mat.Guard {
	n, last := 0, g
	for p := g; p != nil; p = p.Next {
		n, last = n+1, p
	}
	k := min(len(stormGuards), MaxPerFlow-n)
	switch {
	case k <= 0:
		return g
	case last == nil:
		return &stormGuards[len(stormGuards)-k]
	}
	last.Next = &stormGuards[len(stormGuards)-k]
	return g
}

// Pending returns how many events the flow's installed rule guards.
func (t *Table) Pending(fid flow.FID) int {
	n := 0
	for g := t.guards(fid); g != nil; g = g.Next {
		n++
	}
	return n
}

// FiredTotal returns how many firings the table has produced, a
// statistic the evaluation reports on.
func (t *Table) FiredTotal() uint64 {
	return t.fired.Load()
}

// RegisteredTotal returns how many events have ever been registered
// (the telemetry registrations counter; nothing decrements it).
func (t *Table) RegisteredTotal() uint64 {
	return t.registered.Load()
}

// ProbesTotal returns how many probes (Probe) the table has served.
// The fast path takes one only for a flow whose rule has a guard that
// holds.
func (t *Table) ProbesTotal() uint64 { return t.probes.Load() }

// Holds reports whether any guard of the list holds. It is how the fast
// path makes both of its Event Table checks: off the rule it already
// holds, one load and one compare a guard, with no call, no lock and no
// table access, coming to Probe only when the answer is yes.
func Holds(g *mat.Guard) bool {
	for ; g != nil; g = g.Next {
		if g.Word.Load() >= g.AtLeast {
			return true
		}
	}
	return false
}

// Remove ends the recording of the flow under edit on its record — what
// its NFs recorded and registered went with its rule — dropping a record
// that holds neither NF state nor a standing.
func (t *Table) Remove(ed flow.Edit) {
	if !ed.Found() {
		return
	}
	if rec := (*Record)(ed.Handle().Rec()); rec != nil {
		rec.mu.Lock()
		rec.drop(ed)
		rec.mu.Unlock()
	}
}

// End is the end of the flow under edit's connection (torn down, or its
// 5-tuple reused) on its record, in one lock of it: DropState, ended,
// then Remove.
func (t *Table) End(ed flow.Edit) {
	if !ed.Found() {
		return
	}
	if rec := (*Record)(ed.Handle().Rec()); rec != nil {
		rec.mu.Lock()
		rec.end(true)
		rec.drop(ed)
		rec.mu.Unlock()
	}
}

// drop is Remove on the record of the entry under edit, whose lock the
// caller holds.
func (rec *Record) drop(ed flow.Edit) {
	if !rec.kept() {
		ed.SetRec(nil)
	}
}
