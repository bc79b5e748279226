package event

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

// State is one NF's per-flow state: the 64-bit words the NF declared,
// all zero until the NF first writes them. The words sit in a block on
// the flow's Record and never move while the flow lives on its engine,
// so what an NF records binds them — a state function's adds or handler
// and an event's condition and update run on the flow's state itself,
// with no lookup and no lock.
type State = sfunc.State

func clearState(s State) {
	for i := range s {
		s[i].Store(0)
	}
}

// StateSlot declares one NF's share of a flow's state block.
type StateSlot struct {
	// NF names the owner; Words is how many words it keeps per flow.
	NF    string
	Words int
	// Owner tells NF objects apart across chain layouts: after a chain
	// change, a flow's older block serves a slot of the new layout only if
	// both name the NF and carry the same Owner (a replacement NF of the
	// same name starts from zero, in a block of its own). It is the NF's
	// declaration, nil for an NF that declares nothing.
	Owner *FlowStates
	// Arrive, if set, is called with a flow's state when it comes to the
	// NF from elsewhere — a migration record or a checkpoint — and Leave
	// when it goes: ended tells a flow that is over (torn down, its
	// 5-tuple reused, the NF removed from the chain) from one migrating
	// away. They keep what the NF derives from its flows' state (an index,
	// an aggregate) in step, and run under the record's lock.
	Arrive func(st State)
	Leave  func(st State, ended bool)

	off int
}

// StateLayout places the slots of a chain's NFs, by chain position, in
// one block of words. It is immutable; every flow whose block is made
// while the chain stands shares it.
type StateLayout struct {
	slots []StateSlot
	words int
	// record makes a flow's record with its first block (newRecord).
	record func(*StateLayout) *Record
}

// NewStateLayout lays the slots out in order. An NF that keeps no
// per-flow state takes a slot of no words.
func NewStateLayout(slots []StateSlot) *StateLayout {
	l := &StateLayout{slots: append([]StateSlot(nil), slots...)}
	for i := range l.slots {
		l.slots[i].off = l.words
		l.words += l.slots[i].Words
	}
	l.record = recordSized(l.words)
	return l
}

// recordWith is a record and its state block's words in one allocation.
type recordWith[W any] struct {
	Record
	words W
}

// withWords makes a record whose first block, under lay, is the words
// that follow it in the allocation.
func withWords[W any](lay *StateLayout) *Record {
	r := new(recordWith[W])
	r.state = stateBlock{lay: lay, words: unsafe.Slice((*atomic.Uint64)(unsafe.Pointer(&r.words)), lay.words)}
	return &r.Record
}

// recordSized picks how a record of a block of n words is made: with the
// words inline for the two sizes the benchmark's chains take — three
// IPFilters' nine words and Chain1's ten — in one record of ten words,
// which fills its size class (the 64-byte Record plus an even number of
// words is a multiple of 16, TestRecordSizeClass); any other block gets
// an array of its own.
func recordSized(n int) func(*StateLayout) *Record {
	switch n {
	case 0:
		return nil
	case 9, 10:
		return withWords[[10]atomic.Uint64]
	}
	return func(lay *StateLayout) *Record {
		return &Record{state: stateBlock{lay: lay, words: make(State, lay.words)}}
	}
}

// newRecord makes a flow's record; under a layout with state words (lay
// may be nil) its state block comes with it, in the same allocation for
// the sizes recordSized holds inline.
func newRecord(lay *StateLayout) *Record {
	if lay == nil || lay.record == nil {
		return &Record{}
	}
	return lay.record(lay)
}

// stateBlock is one allocation of state words and the layout it was made
// under; next is the block a chain change added after it.
type stateBlock struct {
	lay   *StateLayout
	words State
	next  *stateBlock
}

func (b *stateBlock) slot(s *StateSlot) State {
	return b.words[s.off : s.off+s.Words : s.off+s.Words]
}

// find returns the block's slot of the named NF, if its layout has one
// of that size — and of that Owner, unless owner is nil.
func (b *stateBlock) find(nf string, words int, owner *FlowStates) (State, *StateSlot) {
	for i := range b.lay.slots {
		if s := &b.lay.slots[i]; s.NF == nf && s.Words == words && (owner == nil || s.Owner == owner) {
			return b.slot(s), s
		}
	}
	return nil, nil
}

// leave tells the slot's NF its flow's state is going and zeroes it.
func (s *StateSlot) leave(st State, ended bool) {
	if s.Leave != nil {
		s.Leave(st, ended)
	}
	clearState(st)
}

// State returns the words of NF i of lay on the flow's record, nil if
// the NF keeps none. The flow's first block is sized for the whole chain
// and made with the record (newRecord) or, for a record made without
// one, on the first use of any NF. A block is never moved or resized — a
// chain change leaves the NFs that were in it where they are and gives
// the flow a second block for the ones that joined — so a slot, once
// handed out, is the NF's for the flow's life.
func (rec *Record) State(lay *StateLayout, i int) State {
	if lay.slots[i].Words == 0 {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.slotState(lay, i)
}

// slotState is State for a caller holding rec.mu.
func (rec *Record) slotState(lay *StateLayout, i int) State {
	want := &lay.slots[i]
	if want.Words == 0 {
		return nil
	}
	last := &rec.state
	for blk := &rec.state; blk != nil && blk.lay != nil; last, blk = blk, blk.next {
		if blk.lay == lay {
			return blk.slot(want)
		} else if st, s := blk.find(want.NF, want.Words, want.Owner); s != nil {
			return st
		}
	}
	blk := &rec.state
	if blk.lay != nil {
		last.next = new(stateBlock)
		blk = last.next
	}
	*blk = stateBlock{lay: lay, words: make(State, lay.words)}
	return blk.slot(want)
}

// Resolve returns the words of every NF of lay on the flow h is on, by
// chain position (nil for an NF that keeps none), in out's storage — one
// lock of the record for the whole chain, which a traversal takes once
// and its NFs' FlowState calls then read. A layout of no words resolves
// nothing (out, emptied) and makes no record; a flow the table has let
// go of gets words nothing keeps.
func (t *Table) Resolve(h flow.Handle, lay *StateLayout, out []State) []State {
	if lay.words == 0 {
		return out[:0]
	}
	if cap(out) < len(lay.slots) {
		out = make([]State, len(lay.slots))
	}
	out = out[:len(lay.slots)]
	rec := t.Record(h, lay)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for i := range out {
		out[i] = rec.slotState(lay, i)
	}
	return out
}

// used calls fn for every slot of the record some NF has written, oldest
// block first. The caller holds rec.mu.
func (rec *Record) used(fn func(*StateSlot, State)) {
	for blk := &rec.state; blk != nil && blk.lay != nil; blk = blk.next {
		for i := range blk.lay.slots {
			if s := &blk.lay.slots[i]; s.Words > 0 {
				if st := blk.slot(s); !st.Zero() {
					fn(s, st)
				}
			}
		}
	}
}

// StateImage is one NF's per-flow state by value: what a migration
// record and a checkpoint carry.
type StateImage struct {
	NF    string
	Words []uint64
}

// images copies out the record's used slots. The caller holds rec.mu.
func (rec *Record) images() []StateImage {
	var out []StateImage
	rec.used(func(s *StateSlot, st State) {
		im := StateImage{NF: s.NF, Words: make([]uint64, len(st))}
		for i := range st {
			im.Words[i] = st[i].Load()
		}
		out = append(out, im)
	})
	return out
}

// Record returns the record of the flow h is on, for its NFs' state,
// hanging a fresh one, made under lay (nil: none), off the entry if it
// has none. A flow the table has let go of gets a record nothing keeps:
// what its NFs write there goes with the packet.
func (t *Table) Record(h flow.Handle, lay *StateLayout) *Record {
	if rec := (*Record)(h.Rec()); rec != nil {
		return rec
	}
	ed := t.flows.EditHandle(h)
	defer ed.Done()
	if !ed.Found() {
		return newRecord(lay)
	}
	return t.recordFor(ed, lay)
}

// Entry returns a Handle on the FID's entry for a context outside any
// engine, which has a FID and no classifier: the flow's, or — for an FID
// no flow holds — a detached one, kept by the record hung on it.
func (t *Table) Entry(fid flow.FID) flow.Handle {
	ed := t.flows.Edit(fid, true)
	defer ed.Done()
	t.recordFor(ed, nil)
	return ed.Handle()
}

// StateImages copies out the flow's NF state, for a checkpoint.
func (t *Table) StateImages(fid flow.FID) []StateImage {
	rec := t.record(fid)
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.images()
}

// DropState ends the NF state and the place on the degradation ladder of
// the flow under edit — the flow ended (ended: torn down, or its 5-tuple
// reused) or is migrating away — and returns the state if it is to
// travel: each NF with a slot in use is told, and the words are zeroed
// where they are, so a connection that reuses the entry starts every NF
// from nothing, with no backoff, and allocates nothing. The block itself
// is freed with the record, by the teardown's unlink.
func (t *Table) DropState(ed flow.Edit, ended bool) []StateImage {
	if !ed.Found() || ed.Handle().Rec() == nil {
		return nil
	}
	rec := (*Record)(ed.Handle().Rec())
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var out []StateImage
	if !ended {
		out = rec.images()
	}
	rec.end(ended)
	return out
}

// end is DropState on a record whose lock the caller holds, less the
// images.
func (rec *Record) end(ended bool) {
	rec.own.RetryAt.Store(0)
	rec.own.Fails = 0
	rec.used(func(s *StateSlot, st State) { s.leave(st, ended) })
}

// AdoptState gives a tracked flow the NF state a migration record or a
// checkpoint carried, under lay: an image lands in the slot of the NF it
// names, if the chain has one of its size, and that NF is told. The flow
// must hold no state yet.
func (t *Table) AdoptState(fid flow.FID, lay *StateLayout, images []StateImage) {
	if len(images) == 0 {
		return
	}
	ed := t.flows.Edit(fid, false)
	defer ed.Done()
	if !ed.Found() || ed.Handle().Detached() {
		return
	}
	rec := t.recordFor(ed, lay)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.state.lay != lay {
		rec.state = stateBlock{lay: lay, words: make(State, lay.words)}
	}
	for _, im := range images {
		st, s := rec.state.find(im.NF, len(im.Words), nil)
		if s == nil {
			continue
		}
		for i, w := range im.Words {
			st[i].Store(w)
		}
		if s.Arrive != nil && !st.Zero() {
			s.Arrive(st)
		}
	}
}

// DropNF clears the slot of the NF declared with the given Owner on every
// flow, telling the NF each flow has ended for it: the NF is leaving the
// chain.
func (t *Table) DropNF(owner *FlowStates) {
	t.flows.Each(func(h flow.Handle) {
		rec := (*Record)(h.Rec())
		if rec == nil {
			return
		}
		rec.mu.Lock()
		defer rec.mu.Unlock()
		rec.used(func(s *StateSlot, st State) {
			if s.Owner == owner {
				s.leave(st, true)
			}
		})
	})
}

// EachState calls fn with every flow's in-use slot of the NF declared
// with the given Owner. Under concurrent writers the walk is weakly
// consistent, as flow.Table.Each is.
func (t *Table) EachState(owner *FlowStates, fn func(flow.FID, State)) {
	t.flows.Each(func(h flow.Handle) {
		if st := stateOf((*Record)(h.Rec()), owner); st != nil {
			fn(h.FID(), st)
		}
	})
}

// StateOf returns the flow's in-use slot of that NF, nil if it has none.
func (t *Table) StateOf(fid flow.FID, owner *FlowStates) State {
	return stateOf(t.record(fid), owner)
}

func stateOf(rec *Record, owner *FlowStates) (out State) {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.used(func(s *StateSlot, st State) {
		if s.Owner == owner && out == nil {
			out = st
		}
	})
	return out
}

// StateOwners lists, for CheckRecords, the NFs with an in-use slot on
// the entry's record.
func StateOwners(h flow.Handle) (nfs []string) {
	rec := (*Record)(h.Rec())
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.used(func(s *StateSlot, _ State) { nfs = append(nfs, s.NF) })
	return nfs
}

// FlowStates is an NF's declaration of its per-flow state, of the state
// functions and events it records over that state, and its window onto
// it. NF state comes in three classes (DESIGN §18): per-flow state
// lives on the flow's record in the engine's flow table — the framework
// makes it, frees it with the flow, and carries it through migration and
// checkpoints — and an NF reaches it through core.Ctx.FlowState on the
// packet path and through Of and Each from its reporting methods;
// cross-flow shared state and configuration stay in the NF. The zero
// value declares nothing; set Words, Funcs and Events (and the hooks, if
// the NF derives anything from its flows' state) before the NF joins a
// chain, and never change them after.
type FlowStates struct {
	// Words is how many 64-bit words the NF keeps per flow.
	Words int
	// Funcs are the state functions the NF records for a flow, by index
	// (core.Ctx.AddStateFunc), Events the events it registers
	// (core.Ctx.RegisterEvent). Each runs on the flow's words, so what a
	// flow's rule carries is an index and the words: it restores and
	// migrates as data.
	Funcs  []sfunc.Func
	Events []Event
	// Arrive and Leave are StateSlot's hooks.
	Arrive func(st State)
	Leave  func(st State, ended bool)

	mu sync.Mutex
	// homes are the tables holding the NF's state: one per engine whose
	// chain has the NF (instances of a cluster and chains of a topology
	// share NF objects), or a standalone context's.
	homes []*Table
	// solo is the one-slot layout of standalone contexts.
	solo *StateLayout
}

// Declares reports an error unless v declares a well-formed state
// function i or, with event set, a well-formed event i.
func (v *FlowStates) Declares(i int, event bool) error {
	switch {
	case v == nil:
		return errors.New("declares no state functions or events")
	case event && i >= 0 && i < len(v.Events) && i < EngineOwned:
		return v.Events[i].Validate()
	case !event && i >= 0 && i < len(v.Funcs) && i <= math.MaxUint8:
		return v.Funcs[i].Validate()
	case event:
		return fmt.Errorf("declares no event %d", i)
	}
	return fmt.Errorf("declares no state function %d", i)
}

// Declared returns the declaration of NF i of the layout, nil if the NF
// declares nothing.
func (l *StateLayout) Declared(i int) *FlowStates { return l.slots[i].Owner }

// Slot is the NF's entry, under the name it goes by, in a chain's state
// layout.
func (v *FlowStates) Slot(nf string) StateSlot {
	return StateSlot{NF: nf, Words: v.Words, Owner: v, Arrive: v.Arrive, Leave: v.Leave}
}

// Attach adds a table holding the NF's state — an engine does when the
// NF joins its chain; Detach takes it away.
func (v *FlowStates) Attach(t *Table) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !slices.Contains(v.homes, t) {
		v.homes = append(v.homes, t)
	}
}

func (v *FlowStates) Detach(t *Table) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if i := slices.Index(v.homes, t); i >= 0 {
		// A fresh array: tables() hands the old one out.
		v.homes = append(v.homes[:i:i], v.homes[i+1:]...)
	}
}

// Standalone attaches the table of a context outside any engine and
// returns the one-slot layout such contexts keep the NF's state under.
func (v *FlowStates) Standalone(nf string, t *Table) *StateLayout {
	v.Attach(t)
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.solo == nil {
		v.solo = NewStateLayout([]StateSlot{v.Slot(nf)})
	}
	return v.solo
}

func (v *FlowStates) tables() []*Table {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.homes[:len(v.homes):len(v.homes)]
}

// Of returns the NF's state on the flow, nil if the NF holds none for
// it. FIDs are an engine's own: an NF shared by several engines gets
// the first one's answer.
func (v *FlowStates) Of(fid flow.FID) State {
	for _, t := range v.tables() {
		if st := t.StateOf(fid, v); st != nil {
			return st
		}
	}
	return nil
}

// Each calls fn with the NF's state on every live flow that has any. It
// is exact between packets and weakly consistent under traffic.
func (v *FlowStates) Each(fn func(flow.FID, State)) {
	for _, t := range v.tables() {
		t.EachState(v, fn)
	}
}
