package event

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

func noUpdate(State, *mat.LocalRule) {}

// zero is a word no test sets: a condition on it at least 0 always
// holds, and one at least 1 never does.
var zero atomic.Uint64

func zeroWord(State) *atomic.Uint64 { return &zero }

// on resolves every flow's condition to the word c.
func on(c *atomic.Uint64) func(State) *atomic.Uint64 { return func(State) *atomic.Uint64 { return c } }

// names are the registering NFs of these tests, by declared index.
var names = []string{"x", "maglev", "dos", "first", "second", "third", "sleeper", "recurring", "shot1", "shot2", "lb", "a", "b"}

// ref names an event by its NF's name: the index of the name.
func ref(nf string) mat.Ref { return mat.Ref{Index: uint16(slices.Index(names, nf))} }

// check is what the probe of the FID fires.
func check(tbl *Table, fid flow.FID) []Firing {
	fired, _ := tbl.Probe(fid)
	return fired
}

// nameOf is the NF name ref names.
func nameOf(r mat.Ref) string { return names[r.Index] }

// remove drops the FID's recording, in an edit of its entry.
func remove(tbl *Table, fid flow.FID) {
	ed := tbl.flows.Edit(fid, false)
	tbl.Remove(ed)
	ed.Done()
}

// stand is Table.Stand in an edit of the FID's entry.
func stand(tbl *Table, fid flow.FID, create bool, fn func(flow.Handle, *Standing)) {
	ed := tbl.flows.Edit(fid, false)
	tbl.Stand(ed, create, fn)
	ed.Done()
}

// guards is the guard list a consolidation of the flow h is on gives its
// rule.
func guards(t *testing.T, tbl *Table, h flow.Handle) *mat.Guard {
	t.Helper()
	ed := tbl.flows.EditHandle(h)
	defer ed.Done()
	r, err := tbl.Consolidate(ed, NewStateLayout(nil), nil, Recording{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r.Guards()
}

func TestRegisterValidation(t *testing.T) {
	tbl := NewTable(flow.NewTable())
	tests := []struct {
		name    string
		event   Registration
		wantErr bool
	}{
		{"valid", Registration{Ref: ref("maglev"), Event: &Event{Word: zeroWord, Update: noUpdate}}, false},
		{"no event", Registration{Ref: ref("maglev")}, true},
		{"nil condition", Registration{Ref: ref("x"), Event: &Event{Update: noUpdate}}, true},
		{"nil update", Registration{Ref: ref("x"), Event: &Event{Word: zeroWord}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tbl.Register(tbl.Entry(1), tt.event); (err != nil) != tt.wantErr {
				t.Errorf("Register = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestCheckFiresOnCondition(t *testing.T) {
	tbl := NewTable(flow.NewTable())
	var armed atomic.Uint64
	if err := tbl.Register(tbl.Entry(5), Registration{Ref: ref("dos"), Event: &Event{Word: on(&armed), AtLeast: 1, Update: noUpdate}}); err != nil {
		t.Fatal(err)
	}
	if fired, _ := tbl.Probe(5); len(fired) != 0 {
		t.Errorf("fired %d events with condition false", len(fired))
	}
	armed.Store(1)
	fired, _ := tbl.Probe(5)
	if len(fired) != 1 || nameOf(fired[0].Ref) != "dos" || fired[0].FID != 5 {
		t.Errorf("fired = %+v", fired)
	}
	if tbl.FiredTotal() != 1 {
		t.Errorf("FiredTotal = %d", tbl.FiredTotal())
	}
}

func TestCheckWrongFID(t *testing.T) {
	tbl := NewTable(flow.NewTable())
	if err := tbl.Register(tbl.Entry(5), Registration{Ref: ref("x"), Event: &Event{Word: zeroWord, Update: noUpdate}}); err != nil {
		t.Fatal(err)
	}
	if fired, _ := tbl.Probe(6); len(fired) != 0 {
		t.Error("event fired for a different flow")
	}
}

func TestOneShotRemovedAfterFiring(t *testing.T) {
	tbl := NewTable(flow.NewTable())
	if err := tbl.Register(tbl.Entry(1), Registration{Ref: ref("maglev"), Event: &Event{Word: zeroWord, Update: noUpdate, OneShot: true}}); err != nil {
		t.Fatal(err)
	}
	if got := len(check(tbl, 1)); got != 1 {
		t.Fatalf("first Check fired %d", got)
	}
	if got := len(check(tbl, 1)); got != 0 {
		t.Errorf("one-shot fired again: %d", got)
	}
	if tbl.Pending(1) != 0 {
		t.Errorf("Pending = %d after one-shot", tbl.Pending(1))
	}
	if tbl.Len() != 0 {
		t.Errorf("Len = %d, empty FID slot not reclaimed", tbl.Len())
	}
}

func TestRecurringStaysArmed(t *testing.T) {
	tbl := NewTable(flow.NewTable())
	if err := tbl.Register(tbl.Entry(1), Registration{Ref: ref("dos"), Event: &Event{Word: zeroWord, Update: noUpdate}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got := len(check(tbl, 1)); got != 1 {
			t.Fatalf("check %d fired %d", i, got)
		}
	}
	if tbl.FiredTotal() != 3 {
		t.Errorf("FiredTotal = %d, want 3", tbl.FiredTotal())
	}
	if tbl.Pending(1) != 1 {
		t.Errorf("Pending = %d, want 1", tbl.Pending(1))
	}
}

func TestMultipleEventsFireInRegistrationOrder(t *testing.T) {
	tbl := NewTable(flow.NewTable())
	for _, nf := range []string{"first", "second", "third"} {
		if err := tbl.Register(tbl.Entry(2), Registration{Ref: ref(nf), Event: &Event{Word: zeroWord, Update: noUpdate, OneShot: true}}); err != nil {
			t.Fatal(err)
		}
	}
	// One never-firing event interleaved.
	if err := tbl.Register(tbl.Entry(2), Registration{Ref: ref("sleeper"), Event: &Event{Word: zeroWord, AtLeast: 1, Update: noUpdate}}); err != nil {
		t.Fatal(err)
	}
	fired, _ := tbl.Probe(2)
	if len(fired) != 3 {
		t.Fatalf("fired %d, want 3", len(fired))
	}
	for i, want := range []string{"first", "second", "third"} {
		if nameOf(fired[i].Ref) != want {
			t.Errorf("fired[%d] = %s, want %s", i, nameOf(fired[i].Ref), want)
		}
	}
	if tbl.Pending(2) != 1 {
		t.Errorf("Pending = %d, want sleeper still armed", tbl.Pending(2))
	}
}

// TestProbeWriteBack walks one flow's event set through every shape of
// Probe's table update: nothing dropped (no write-back), some one-shots
// dropped (shrunk slice written back), the last one dropped (key
// deleted). Pending and Len must track the set at every step.
func TestProbeWriteBack(t *testing.T) {
	tbl := NewTable(flow.NewTable())
	const fid = 7
	armed := map[string]*atomic.Uint64{"recurring": new(atomic.Uint64), "shot1": new(atomic.Uint64), "shot2": new(atomic.Uint64)}
	armed["recurring"].Store(1)
	reg := func(nf string, oneShot bool) {
		t.Helper()
		if err := tbl.Register(tbl.Entry(fid), Registration{Ref: ref(nf), Event: &Event{Word: on(armed[nf]), AtLeast: 1, Update: noUpdate, OneShot: oneShot}}); err != nil {
			t.Fatal(err)
		}
	}
	reg("recurring", false)
	reg("shot1", true)
	reg("shot2", true)

	steps := []struct {
		name        string
		arm         []string
		wantFired   []string
		wantPending int
	}{
		{"recurring fires and stays", nil, []string{"recurring"}, 3},
		{"again: nothing was dropped", nil, []string{"recurring"}, 3},
		{"one-shot fires and is removed", []string{"shot1"}, []string{"recurring", "shot1"}, 2},
		{"removed one-shot stays removed", nil, []string{"recurring"}, 2},
	}
	for _, st := range steps {
		for _, nf := range st.arm {
			armed[nf].Store(1)
		}
		fired, registered := tbl.Probe(fid)
		if !registered {
			t.Fatalf("%s: registered = false", st.name)
		}
		var got []string
		for _, f := range fired {
			got = append(got, nameOf(f.Ref))
		}
		if !slices.Equal(got, st.wantFired) {
			t.Errorf("%s: fired %v, want %v", st.name, got, st.wantFired)
		}
		if tbl.Pending(fid) != st.wantPending || tbl.Len() != 1 {
			t.Errorf("%s: Pending = %d Len = %d, want %d and 1", st.name, tbl.Pending(fid), tbl.Len(), st.wantPending)
		}
	}

	// Only one-shots left: the last one to fire deletes the key.
	remove(tbl, fid)
	reg("shot1", true)
	reg("shot2", true)
	armed["shot2"].Store(1)
	if fired, _ := tbl.Probe(fid); len(fired) != 2 {
		t.Fatalf("fired %d one-shots, want 2", len(fired))
	}
	if tbl.Pending(fid) != 0 || tbl.Len() != 0 {
		t.Errorf("Pending = %d Len = %d after the last one-shot, want 0 and 0", tbl.Pending(fid), tbl.Len())
	}
	if _, registered := tbl.Probe(fid); registered {
		t.Error("registered = true for a flow whose events are all gone")
	}
}

func TestProbeQuietFlowDoesNotAllocate(t *testing.T) {
	tbl := NewTable(flow.NewTable())
	for _, nf := range []string{"a", "b"} {
		if err := tbl.Register(tbl.Entry(3), Registration{Ref: ref(nf), Event: &Event{Word: zeroWord, AtLeast: 1, Update: noUpdate}}); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if fired, registered := tbl.Probe(3); len(fired) != 0 || !registered {
			t.Fatalf("fired %d registered %v", len(fired), registered)
		}
	}); n != 0 {
		t.Errorf("Probe of a quiet flow allocates %v per run, want 0", n)
	}
	if tbl.Pending(3) != 2 {
		t.Errorf("Pending = %d, want 2", tbl.Pending(3))
	}
}

func TestUpdateAppliesToLocalRule(t *testing.T) {
	// End-to-end through the Local MAT: the Maglev failover example
	// from §V-A — replace modify(DIP, origin) with modify(DIP, new) in a
	// copy of the rule's recording, and build the next rule from it.
	fid := flow.FID(3)
	tbl := NewTable(flow.NewTable())
	lay, chain := NewStateLayout([]StateSlot{{NF: "maglev"}}), []mat.Contribution{{NF: "maglev"}}
	consolidate := func(rec Recording) *mat.GlobalRule {
		t.Helper()
		ed := tbl.flows.Edit(fid, true)
		defer ed.Done()
		r, err := tbl.Consolidate(ed, lay, chain, rec, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	old := consolidate(Recording{Spans: []mat.LocalRule{{Actions: []mat.HeaderAction{mat.Modify(packet.FieldDstIP, []byte{10, 0, 0, 1})}}}})
	err := tbl.Register(tbl.Entry(fid), Registration{Ref: ref("maglev"), Event: &Event{
		Word:    zeroWord,
		OneShot: true,
		Update: func(_ State, r *mat.LocalRule) {
			for i, a := range r.Actions {
				if a.Kind == mat.ActionModify && a.Field == packet.FieldDstIP {
					r.Actions[i] = mat.Modify(packet.FieldDstIP, []byte{10, 0, 0, 2})
				}
			}
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	edited := slices.Clone(old.Spans)
	for _, f := range check(tbl, fid) {
		edited[f.At] = *edited[f.At].Clone()
		f.Event.Update(f.State, &edited[f.At])
	}
	next := consolidate(Recording{Spans: edited})
	if got := next.Modifies[0].Value; got[3] != 2 {
		t.Errorf("DIP after event = %v, want .2 backend", got)
	}
	if got := old.Spans[0].Actions[0].Value; got[3] != 1 || old.Modifies[0].Value[3] != 1 {
		t.Errorf("the update reached the old rule: its DIP is %v", got)
	}
}

// TestRegistrationCap: a flow holds at most MaxPerFlow events, counting
// those it holds, whether they come one by one (Register) or with a
// traversal's recording (Consolidate); a publication past the cap
// publishes nothing and builds no rule.
func TestRegistrationCap(t *testing.T) {
	fid := flow.FID(4)
	tbl := NewTable(flow.NewTable())
	r := Registration{Ref: ref("x"), Event: &Event{Word: zeroWord, AtLeast: 1, Update: noUpdate}}
	for i := 0; i < MaxPerFlow-1; i++ {
		if err := tbl.Register(tbl.Entry(fid), r); err != nil {
			t.Fatal(err)
		}
	}
	span := []mat.LocalRule{{Actions: []mat.HeaderAction{mat.Drop()}}}
	lay, chain := NewStateLayout([]StateSlot{{NF: "x"}}), []mat.Contribution{{NF: "x"}}
	publish := func(regs ...Registration) (*mat.GlobalRule, error) {
		ed := tbl.flows.Edit(fid, false)
		defer ed.Done()
		return tbl.Consolidate(ed, lay, chain, Recording{Spans: span, Regs: regs}, nil, nil)
	}
	if rule, err := publish(r, r); !errors.Is(err, ErrTooManyEvents) || rule != nil || tbl.Pending(fid) != MaxPerFlow-1 {
		t.Errorf("publishing two past %d held: rule %v, %v, %d events; want nothing and ErrTooManyEvents", MaxPerFlow-1, rule, err, tbl.Pending(fid))
	}
	if _, err := publish(r); err != nil || tbl.Pending(fid) != MaxPerFlow {
		t.Errorf("publishing the last one: %v, %d events", err, tbl.Pending(fid))
	}
	if err := tbl.Register(tbl.Entry(fid), r); !errors.Is(err, ErrTooManyEvents) {
		t.Errorf("registering past the cap: %v, want ErrTooManyEvents", err)
	}
}

func TestRemove(t *testing.T) {
	tbl := NewTable(flow.NewTable())
	if err := tbl.Register(tbl.Entry(9), Registration{Ref: ref("x"), Event: &Event{Word: zeroWord, Update: noUpdate}}); err != nil {
		t.Fatal(err)
	}
	remove(tbl, 9)
	if len(check(tbl, 9)) != 0 {
		t.Error("removed event fired")
	}
	if tbl.Len() != 0 {
		t.Error("Len != 0 after Remove")
	}
}

func TestConcurrentCheckAndRegister(t *testing.T) {
	tbl := NewTable(flow.NewTable())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				fid := flow.FID(g*100 + i)
				if err := tbl.Register(tbl.Entry(fid), Registration{Ref: ref("x"), Event: &Event{Word: zeroWord, Update: noUpdate, OneShot: true}}); err != nil {
					t.Errorf("Register: %v", err)
					return
				}
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				check(tbl, flow.FID(g*100+i))
			}
		}(g)
	}
	wg.Wait()
	// Drain: every registered event fires exactly once overall.
	for fid := flow.FID(0); fid < 400; fid++ {
		check(tbl, fid)
	}
	if got := tbl.FiredTotal(); got != 400 {
		t.Errorf("FiredTotal = %d, want exactly 400", got)
	}
}

// TestGuardsSnapshotRegistrations: a consolidation's rule guards the
// flow's registrations in registration order, Holds evaluates the list
// without the table, and GuardsCurrent tells a current snapshot from one
// a registration, a one-shot firing or a removal has overtaken — by the
// references of the registrations, not their number.
func TestGuardsSnapshotRegistrations(t *testing.T) {
	tbl := NewTable(flow.NewTable())
	h := tbl.Entry(9)
	if g := guards(t, tbl, h); g != nil || !GuardsCurrent(h, nil) || Holds(g) {
		t.Fatalf("flow without events: guards %v, want none, current and quiet", g)
	}
	var armed atomic.Uint64
	for i, w := range []func(State) *atomic.Uint64{on(&armed), zeroWord} {
		if err := tbl.Register(h, Registration{Ref: mat.Ref{Index: uint16(i)}, Event: &Event{Word: w, AtLeast: 1, Update: noUpdate, OneShot: true}}); err != nil {
			t.Fatal(err)
		}
	}
	g := guards(t, tbl, h)
	if g == nil || g.Next == nil || g.Next.Next != nil || g.Index != 0 || g.Next.Index != 1 {
		t.Fatalf("guards %+v, want the two registrations in registration order", g)
	}
	probes := tbl.ProbesTotal()
	if !GuardsCurrent(h, g) || GuardsCurrent(h, g.Next) || GuardsCurrent(h, nil) {
		t.Error("GuardsCurrent does not tell the current snapshot from a partial or empty one")
	}
	if Holds(g) {
		t.Error("guards hold with both conditions false")
	}
	armed.Store(1)
	if !Holds(g) || Holds(nil) {
		t.Error("Holds: want the armed list to hold, the empty list not to")
	}
	if tbl.ProbesTotal() != probes {
		t.Error("snapshotting, comparing or evaluating guards counted as a probe")
	}

	// The one-shot fires and leaves the table: the snapshot is stale,
	// and a fresh one lists what is left.
	if fired, _ := tbl.Probe(9); len(fired) != 1 {
		t.Fatalf("fired %d, want 1", len(fired))
	}
	if tbl.ProbesTotal() != probes+1 {
		t.Errorf("ProbesTotal = %d after one probe, want %d", tbl.ProbesTotal(), probes+1)
	}
	if GuardsCurrent(h, g) {
		t.Error("snapshot still current after a one-shot left the table")
	}
	if g = guards(t, tbl, h); g == nil || g.Next != nil || g.Index != 1 || !GuardsCurrent(h, g) {
		t.Fatalf("guards after the firing %+v, want the second registration alone", g)
	}
	// Same number of registrations, another declared event: not the same
	// guards.
	remove(tbl, 9)
	h = tbl.Entry(9)
	if err := tbl.Register(h, Registration{Ref: mat.Ref{Index: 2}, Event: &Event{Word: zeroWord, AtLeast: 1, Update: noUpdate}}); err != nil {
		t.Fatal(err)
	}
	if GuardsCurrent(h, g) {
		t.Error("snapshot current against a different registration")
	}
}

// TestJournalRunsPerRegistration: the hook the engine hangs its guard
// retirement on sees every successful Register, and no refused one.
func TestJournalRunsPerRegistration(t *testing.T) {
	tbl := NewTable(flow.NewTable())
	var seen []flow.FID
	var lens []int
	tbl.SetJournal(func(ed flow.Edit, g *mat.Guard) {
		seen = append(seen, ed.Handle().FID())
		n := 0
		for ; g != nil; g = g.Next {
			n++
		}
		lens = append(lens, n)
	})
	for _, fid := range []flow.FID{3, 4, 3} {
		if err := tbl.Register(tbl.Entry(fid), Registration{Ref: ref("x"), Event: &Event{Word: zeroWord, AtLeast: 1, Update: noUpdate}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Register(tbl.Entry(5), Registration{Ref: ref("x"), Event: &Event{Update: noUpdate}}); err == nil {
		t.Fatal("nil condition accepted")
	}
	if !slices.Equal(seen, []flow.FID{3, 4, 3}) || !slices.Equal(lens, []int{1, 1, 2}) {
		t.Errorf("journal saw %v with %v guards, want [3 4 3] with [1 1 2]", seen, lens)
	}
	tbl.SetJournal(nil)
	if err := tbl.Register(tbl.Entry(6), Registration{Ref: ref("x"), Event: &Event{Word: zeroWord, AtLeast: 1, Update: noUpdate}}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Errorf("detached journal still called: %v", seen)
	}
}

// TestRecordSizeClass pins the flow record, which carries the first
// state block's words of a Chain1 or three-IPFilter layout in the same
// allocation: the 88-byte Record (the block's header, the events and the
// engine's standing, the recording being the rule's) and an odd number
// of words fill a size class. A field more on Record costs every flow 16
// bytes. Chain1's ten words take the 176-byte record, three IPFilters'
// nine the 160-byte one, and the words follow the record in its
// allocation; any other layout's words are an array of their own.
func TestRecordSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Record{}); n != 88 {
		t.Errorf("Record is %d bytes, want 88", n)
	}
	for _, tc := range []struct {
		words int
		size  uintptr
	}{
		{9, unsafe.Sizeof(recordWith[[9]atomic.Uint64]{})},
		{11, unsafe.Sizeof(recordWith[[11]atomic.Uint64]{})},
	} {
		if tc.size != 88+8*uintptr(tc.words) || tc.size%16 != 0 {
			t.Errorf("the record of %d words is %d bytes, want %d, a multiple of 16", tc.words, tc.size, 88+8*tc.words)
		}
	}
	// Any other block is an array of its own.
	for words, inline := range map[int]bool{1: false, 8: true, 9: true, 10: true, 11: true, 12: false, 26: false} {
		lay := NewStateLayout([]StateSlot{{NF: "x", Words: words}})
		rec := newRecord(lay)
		follows := uintptr(unsafe.Pointer(&rec.state.words[0])) == uintptr(unsafe.Pointer(rec))+unsafe.Sizeof(Record{})
		if follows != inline || rec.state.lay != lay || len(rec.state.words) != words {
			t.Errorf("%d words: inline %v, want %v; layout %p, %d words", words, follows, inline, rec.state.lay, len(rec.state.words))
		}
	}
}

// TestStandingOutlivesRecording: a flow's standing keeps its record
// through the recording's removal, and the record goes with the last of
// the two; only a tracked flow has a standing.
func TestStandingOutlivesRecording(t *testing.T) {
	flows := flow.NewTable()
	tbl := NewTable(flows)
	ft := packet.FiveTuple{SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2}, SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP}
	en, err := flows.Insert(ft)
	if err != nil {
		t.Fatal(err)
	}
	fid := en.FID
	if err := tbl.Register(tbl.Entry(fid), Registration{Ref: ref("x"), Event: &Event{Word: zeroWord, AtLeast: 1, Update: noUpdate}}); err != nil {
		t.Fatal(err)
	}
	stand(tbl, fid, true, func(_ flow.Handle, s *Standing) { s.RetryAt.Store(9) })
	remove(tbl, fid)
	h, _ := flows.AcquireFID(fid)
	if RetryAt(h) != 9 || flows.Counts().Records != 1 || tbl.Pending(fid) != 0 {
		t.Fatalf("after the recording's removal: deadline %d, %+v, %d events", RetryAt(h), flows.Counts(), tbl.Pending(fid))
	}
	stand(tbl, fid, false, func(_ flow.Handle, s *Standing) { s.RetryAt.Store(0) })
	remove(tbl, fid)
	if c := flows.Counts(); c.Records != 0 {
		t.Errorf("a record with neither a recording nor a standing stayed: %+v", c)
	}
	called := false
	stand(tbl, fid+1, true, func(flow.Handle, *Standing) { called = true })
	if called || flows.Counts().Detached != 0 {
		t.Error("an FID no flow holds was given a standing")
	}
}
