// Package event implements SpeedyBox's Event Table (paper §V-C1).
//
// Observation 2 of the paper: some NFs update their header actions or
// state functions at runtime when internal state reaches a condition
// (a Maglev backend fails, a DoS counter crosses a threshold). The
// Event Table stores (condition, update) pairs registered by NFs via
// the register_event API; a condition is data — a word the NF resolves
// for the flow and a threshold — which the data plane evaluates itself,
// calling no NF. The Global MAT probes the table before
// applying a cached rule and again after state-function batches update
// state; when a condition fires, the update rewrites the owning NF's
// Local MAT entry in a copy of the recording the flow's rule was built
// from, and the copy is consolidated into the flow's next rule, so
// subsequent packets immediately follow the new logic.
//
// The table has no storage of its own. A flow's registrations sit, with
// the NFs' own per-flow state, on the flow's Record, which hangs off the
// second word of the flow's entry in the flow table, beside the rule
// that holds what its NFs recorded: tearing a flow down clears two
// words.
package event

import (
	"fmt"
	"sync/atomic"

	"github.com/fastpathnfv/speedybox/internal/errcode"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
)

// MaxPerFlow caps how many events one flow may have registered at
// once. A condition storm (buggy or fault-injected NF re-registering
// on every packet) would otherwise grow the per-flow slice without
// bound and make every fast-path event check linear in the storm size.
const MaxPerFlow = 64

// ErrTooManyEvents reports a registration rejected by the per-flow cap.
var ErrTooManyEvents = errcode.Sentinel("event.registration_cap", "event: per-flow registration cap reached")

// Event is one declared (condition → update) pair (the paper's
// register_event(fid, c, a, u)). An NF declares its events once
// (FlowStates.Events) and registers them for a flow by index: what the
// flow's record and rule carry is a Registration, data binding the
// declaration to the flow's state words, never a closure of its own.
type Event struct {
	// Word and AtLeast are the paper's condition_handler as data: the
	// condition holds while the word Word resolves from the NF's state
	// words on the flow (never nil) is at least AtLeast. Word runs under
	// the flow's record lock, where the flow's guards are built (with
	// every rule) and in a probe, and must not call back into the flow
	// or Event Table; the fast path only loads the word, under no lock.
	Word    func(st State) *atomic.Uint64
	AtLeast uint64
	// Update edits the NF's Local MAT rule for the flow when the event
	// fires (update_action / update_function_handler), over the same
	// state words: its span of a copy of the flow's rule's recording,
	// under the flow's edit (the flow shard's mutex) and no record lock,
	// so it must not call back into the flow or Event Table.
	Update func(st State, r *mat.LocalRule)
	// OneShot events are deregistered after firing once (e.g. a DoS
	// block). Recurring events stay armed (e.g. a Maglev backend that
	// could fail again).
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

// Storm is the event-storm fault's event, which the engine registers
// under EngineOwned: it always fires — any word is at least 0 — and
// changes nothing.
var Storm = Event{Word: func(State) *atomic.Uint64 { return &storm }, Update: func(State, *mat.LocalRule) {}}
var storm atomic.Uint64

// Registration is one event registered for a flow: the chain position
// of the registering NF and the event's index among its declarations,
// the declaration itself, and the NF's state words on the flow it runs
// on.
type Registration struct {
	mat.Ref
	Event *Event
	State State
}

// guard is the registration as a rule's guard, under the record's lock.
func (r *Registration) guard() mat.Guard {
	return mat.Guard{Ref: r.Ref, Word: r.Event.Word(r.State), AtLeast: r.Event.AtLeast}
}

// Guards links the registrations, in order, into a rule's guard list.
func Guards(regs []Registration) (head *mat.Guard) {
	nodes := make([]mat.Guard, len(regs))
	for i := len(regs) - 1; i >= 0; i-- {
		nodes[i] = regs[i].guard()
		nodes[i].Next, head = head, &nodes[i]
	}
	return head
}

// Firing describes one triggered event, returned to the engine so it
// can apply the update to a copy of the flow's rule's spans and
// consolidate the copy.
type Firing struct {
	FID flow.FID
	Registration
}

// Table is the Event Table: per-FID registered events, kept on the flow
// records of the flow table it was built over. It is safe for concurrent
// use; disjoint flows share nothing but the counters.
type Table struct {
	flows *flow.Table
	// armed counts the records holding a registration, kept under their
	// locks: what Len reports.
	armed      atomic.Int64
	fired      atomic.Uint64
	registered atomic.Uint64
	probes     atomic.Uint64
	// journal, when set, observes registrations Register makes, with the
	// flow's registrations as a fresh guard list: the engine's hook gives
	// it to the flow's installed rule (see Consolidate).
	journal atomic.Pointer[func(flow.Edit, *mat.Guard)]
}

// SetJournal attaches (or, with nil, detaches) a callback invoked
// after every successful Register with the flow-table Edit that
// registered, which it runs inside: the one a rule install takes, so it
// observes a flow's registrations and installs in the order they
// happened — the rule it finds on the entry is the one installed last —
// and must not call back into either table.
func (t *Table) SetJournal(fn func(flow.Edit, *mat.Guard)) {
	if fn == nil {
		t.journal.Store(nil)
		return
	}
	t.journal.Store(&fn)
}

// NewTable returns the Event Table over a flow table's entries.
func NewTable(flows *flow.Table) *Table { return &Table{flows: flows} }

// Register adds an event for a flow (the register_event API, paper
// Figure 2) on the record of the entry h is on — made here if this is
// the first the flow's recording leaves behind — where an engine's
// traversal publishes the ones its NFs registered once the chain has run
// (Consolidate). A flow the table has let go of registers nothing:
// there is no rule of it left to guard.
func (t *Table) Register(h flow.Handle, r Registration) error {
	if err := r.Event.Validate(); err != nil {
		return err
	}
	ed := t.flows.EditHandle(h)
	defer ed.Done()
	if !ed.Found() {
		return nil
	}
	rec := t.recordFor(ed, nil)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if err := rec.room(h.FID(), 1); err != nil {
		return err
	}
	if rec.events = append(rec.events, r); len(rec.events) == 1 {
		t.armed.Add(1)
	}
	t.registered.Add(1)
	if j := t.journal.Load(); j != nil {
		(*j)(ed, Guards(rec.events))
	}
	return nil
}

// room reports an error unless the flow's record has room for n more
// registrations under MaxPerFlow. The caller holds rec.mu.
func (rec *Record) room(fid flow.FID, n int) error {
	if len(rec.events)+n > MaxPerFlow {
		return fmt.Errorf("%w: %v has %d", ErrTooManyEvents, fid, MaxPerFlow)
	}
	return nil
}

// Probe checks all events registered for the flow and returns the ones
// whose conditions hold, in registration order, removing one-shot
// firings from the table; the caller applies the updates and
// reconsolidates. It also reports whether the flow had any events
// registered at all.
func (t *Table) Probe(fid flow.FID) (fired []Firing, registered bool) {
	t.probes.Add(1)
	rec := t.record(fid)
	if rec == nil {
		return nil, false
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.events) == 0 {
		return nil, false
	}
	remaining := rec.events[:0]
	for _, r := range rec.events {
		if r.Event.Word(r.State).Load() >= r.Event.AtLeast {
			fired = append(fired, Firing{FID: fid, Registration: r})
			t.fired.Add(1)
			if r.Event.OneShot {
				continue // drop from table
			}
		}
		remaining = append(remaining, r)
	}
	// remaining shares the backing array, so the common probe (no
	// one-shot fired) changes nothing.
	clear(rec.events[len(remaining):])
	if rec.events = remaining; len(remaining) == 0 {
		t.armed.Add(-1)
	}
	return fired, true
}

// Pending returns how many events are registered for the flow.
func (t *Table) Pending(fid flow.FID) int {
	rec := t.record(fid)
	if rec == nil {
		return 0
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return len(rec.events)
}

// FiredTotal returns how many firings the table has produced, a
// statistic the evaluation reports on.
func (t *Table) FiredTotal() uint64 {
	return t.fired.Load()
}

// RegisteredTotal returns how many events have ever been registered
// (the telemetry registrations counter; removals do not decrement it).
func (t *Table) RegisteredTotal() uint64 {
	return t.registered.Load()
}

// ProbesTotal returns how many locked probes (Probe, Check) the table
// has served. The fast path takes one only for a flow whose rule has a
// guard that holds, or has no live rule.
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

// GuardsCurrent reports whether g names exactly the registrations of the
// flow h is on, in order — whether the guard snapshot a consolidation
// gave its rule (Consolidate), or a restore rebound, is still current.
// CheckRecords asks it of every live rule.
func GuardsCurrent(h flow.Handle, g *mat.Guard) bool {
	if rec := (*Record)(h.Rec()); rec != nil {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		for _, r := range rec.events {
			if g == nil || g.Ref != r.Ref {
				return false
			}
			g = g.Next
		}
	}
	return g == nil
}

// Unrecorded reports whether the flow h is on holds nothing Remove and
// a refund of its events' budget would take: no record, or one that
// holds NF state or a ladder place and no events. A flow's first
// recording costs its record's uncontended lock here, and no edit; a
// traversal that resolves its NFs' state takes it there (Resolve).
func Unrecorded(h flow.Handle) bool {
	rec := (*Record)(h.Rec())
	if rec == nil {
		return true
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.unrecorded()
}

// unrecorded is Unrecorded for a caller holding rec.mu.
func (rec *Record) unrecorded() bool {
	return len(rec.events) == 0 && rec.own.Events == 0 && rec.kept()
}

// Remove drops the recording of the flow under edit — its events (the
// clean slate a re-recording starts from; what its NFs recorded went
// with its rule).
// The flow's NF state and standing are not part of it and stay; a record
// that holds neither goes with the recording.
func (t *Table) Remove(ed flow.Edit) {
	if !ed.Found() {
		return
	}
	if rec := (*Record)(ed.Handle().Rec()); rec != nil {
		rec.mu.Lock()
		t.dropEvents(ed, rec)
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
		t.dropEvents(ed, rec)
		rec.mu.Unlock()
	}
}

// dropEvents is Remove on the record of the entry under edit, whose lock
// the caller holds.
func (t *Table) dropEvents(ed flow.Edit, rec *Record) {
	if !rec.kept() {
		ed.SetRec(nil)
	}
	if len(rec.events) > 0 {
		t.armed.Add(-1)
	}
	// A probe that loaded the record before the word was cleared
	// finds nothing on it.
	clear(rec.events)
	rec.events = nil
}

// Len returns the number of flows with registered events.
func (t *Table) Len() int { return int(t.armed.Load()) }
