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
var names = []string{"x", "maglev", "dos", "first", "second", "third", "sleeper", "a", "b"}

// ref names an event by its NF's name: the index of the name.
func ref(nf string) mat.Ref { return mat.Ref{Index: uint16(slices.Index(names, nf))} }

// nameOf is the NF name ref names.
func nameOf(r mat.Ref) string { return names[r.Index] }

// check is what the probe of the FID fires.
func check(tbl *Table, fid flow.FID) []Firing {
	fired, _ := tbl.Probe(fid)
	return fired
}

// chainOf is a one-NF chain whose NF declares events, one per name, each
// never holding unless the test sets it, and no state words.
func chainOf(events map[string]Event) (*StateLayout, []mat.Contribution) {
	decl := &FlowStates{Events: make([]Event, len(names))}
	for i, nf := range names {
		decl.Events[i] = Event{Word: zeroWord, AtLeast: 1, Update: noUpdate}
		if ev, ok := events[nf]; ok {
			decl.Events[i] = ev
		}
	}
	return NewStateLayout([]StateSlot{decl.Slot("nf")}), []mat.Contribution{{NF: "nf"}}
}

// install consolidates a forward of the flow with the registrations regs
// under lay and installs it, as the engine does, on the FID's entry.
func install(t *testing.T, tbl *Table, fid flow.FID, lay *StateLayout, chain []mat.Contribution, regs ...mat.Ref) *mat.GlobalRule {
	t.Helper()
	ed := tbl.flows.Edit(fid, true)
	defer ed.Done()
	rule, err := tbl.Consolidate(ed, lay, chain, &Recording{Spans: Forwards(len(chain)), Regs: regs}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mat.NewGlobal(tbl.flows).InstallAt(ed, rule)
	return rule
}

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

func TestCheckFiresOnCondition(t *testing.T) {
	tbl := NewTable(flow.NewTable())
	var armed atomic.Uint64
	lay, chain := chainOf(map[string]Event{"dos": {Word: on(&armed), AtLeast: 1, Update: noUpdate}})
	install(t, tbl, 5, lay, chain, ref("dos"))
	if fired, registered := tbl.Probe(5); len(fired) != 0 || !registered {
		t.Errorf("fired %d events with condition false, registered %v", len(fired), registered)
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

// TestRegisterValidation: an NF registers an event by its declared
// index, and only a well-formed declaration of that index is
// registrable; a registrable one binds into a guard of the flow's rule.
func TestRegisterValidation(t *testing.T) {
	valid := Event{Word: zeroWord, Update: noUpdate}
	tests := []struct {
		name    string
		decl    *FlowStates
		index   int
		wantErr bool
	}{
		{"valid", &FlowStates{Events: []Event{valid}}, 0, false},
		{"no event", &FlowStates{Events: []Event{valid}}, 1, true},
		{"nil condition", &FlowStates{Events: []Event{{Update: noUpdate}}}, 0, true},
		{"nil update", &FlowStates{Events: []Event{{Word: zeroWord}}}, 0, true},
		{"no declaration", nil, 0, true},
		{"negative index", &FlowStates{Events: []Event{valid}}, -1, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.decl.Declares(tt.index, true)
			if (err != nil) != tt.wantErr {
				t.Fatalf("Declares(%d) = %v, wantErr %v", tt.index, err, tt.wantErr)
			}
			if err != nil {
				return
			}
			tbl := NewTable(flow.NewTable())
			lay := NewStateLayout([]StateSlot{tt.decl.Slot("x")})
			g := install(t, tbl, 1, lay, []mat.Contribution{{NF: "x"}}, mat.Ref{Index: uint16(tt.index)}).Guards
			if g == nil || g.Next != nil || g.Word != &zero || !Holds(g) {
				t.Errorf("the registration guards %+v, want its event's word", g)
			}
		})
	}
}

func TestCheckWrongFID(t *testing.T) {
	tbl := NewTable(flow.NewTable())
	lay, chain := chainOf(map[string]Event{"x": {Word: zeroWord, Update: noUpdate}})
	install(t, tbl, 5, lay, chain, ref("x"))
	if fired, registered := tbl.Probe(6); len(fired) != 0 || registered || tbl.Pending(6) != 0 {
		t.Errorf("a flow without a rule: fired %d, registered %v; the event fired for a different flow", len(fired), registered)
	}
	if fired := check(tbl, 5); len(fired) != 1 {
		t.Errorf("the flow's own probe fired %d, want 1", len(fired))
	}
}

// TestProbeChangesNothing: a probe only evaluates the guards of the
// flow's installed rule, which never changes: a one-shot that holds
// fires on every probe until a rule without it replaces the rule, and a
// rule without guards has nothing registered.
func TestProbeChangesNothing(t *testing.T) {
	tbl := NewTable(flow.NewTable())
	lay, chain := chainOf(map[string]Event{
		"maglev": {Word: zeroWord, Update: noUpdate, OneShot: true},
		"dos":    {Word: zeroWord, Update: noUpdate},
	})
	install(t, tbl, 1, lay, chain, ref("maglev"), ref("dos"))
	for i := 0; i < 3; i++ {
		if got := len(check(tbl, 1)); got != 2 {
			t.Fatalf("probe %d fired %d, want both events", i, got)
		}
	}
	if tbl.FiredTotal() != 6 || tbl.Pending(1) != 2 {
		t.Errorf("FiredTotal = %d, Pending = %d; want 6 and 2", tbl.FiredTotal(), tbl.Pending(1))
	}
	install(t, tbl, 1, lay, chain, ref("dos"))
	if fired := check(tbl, 1); len(fired) != 1 || nameOf(fired[0].Ref) != "dos" || tbl.Pending(1) != 1 {
		t.Errorf("after the one-shot's rule was replaced: fired %+v, %d pending", fired, tbl.Pending(1))
	}
	install(t, tbl, 1, lay, chain)
	if fired, registered := tbl.Probe(1); len(fired) != 0 || registered {
		t.Errorf("a rule without guards: fired %d, registered %v", len(fired), registered)
	}
}

func TestMultipleEventsFireInRegistrationOrder(t *testing.T) {
	tbl := NewTable(flow.NewTable())
	holds := Event{Word: zeroWord, Update: noUpdate, OneShot: true}
	lay, chain := chainOf(map[string]Event{"first": holds, "second": holds, "third": holds})
	// One never-firing event interleaved.
	install(t, tbl, 2, lay, chain, ref("first"), ref("sleeper"), ref("second"), ref("third"))
	fired, _ := tbl.Probe(2)
	if len(fired) != 3 {
		t.Fatalf("fired %d, want 3", len(fired))
	}
	for i, want := range []string{"first", "second", "third"} {
		if nameOf(fired[i].Ref) != want {
			t.Errorf("fired[%d] = %s, want %s", i, nameOf(fired[i].Ref), want)
		}
	}
}

func TestProbeQuietFlowDoesNotAllocate(t *testing.T) {
	tbl := NewTable(flow.NewTable())
	lay, chain := chainOf(nil)
	install(t, tbl, 3, lay, chain, ref("a"), ref("b"))
	if n := testing.AllocsPerRun(100, func() {
		if fired, registered := tbl.Probe(3); len(fired) != 0 || !registered {
			t.Fatalf("fired %d registered %v", len(fired), registered)
		}
	}); n != 0 {
		t.Errorf("Probe of a quiet flow allocates %v per run, want 0", n)
	}
}

func TestUpdateAppliesToLocalRule(t *testing.T) {
	// End-to-end through the Local MAT: the Maglev failover example
	// from §V-A — replace modify(DIP, origin) with modify(DIP, new) in a
	// copy of the rule's recording, and build the next rule from it.
	fid := flow.FID(3)
	tbl := NewTable(flow.NewTable())
	decl := &FlowStates{Words: 1, Events: []Event{{
		Word:    func(st State) *atomic.Uint64 { return &st[0] },
		AtLeast: 1,
		OneShot: true,
		Update: func(st State, r *mat.LocalRule) {
			for i, a := range r.Actions {
				if a.Kind == mat.ActionModify && a.Field == packet.FieldDstIP {
					r.Actions[i] = mat.Modify(packet.FieldDstIP, []byte{10, 0, 0, byte(st[0].Load())})
				}
			}
		},
	}}}
	lay, chain := NewStateLayout([]StateSlot{decl.Slot("maglev")}), []mat.Contribution{{NF: "maglev"}}
	consolidate := func(rec Recording) *mat.GlobalRule {
		t.Helper()
		ed := tbl.flows.Edit(fid, true)
		defer ed.Done()
		r, err := tbl.Consolidate(ed, lay, chain, &rec, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		mat.NewGlobal(tbl.flows).InstallAt(ed, r)
		return r
	}
	// dip is the destination address the rule's program rewrites to.
	dip := func(r *mat.GlobalRule) []byte {
		t.Helper()
		acts, ok := r.HeaderActions()
		if !ok || len(acts) != 1 || acts[0].Field != packet.FieldDstIP {
			t.Fatalf("rule %v: program %v, want one rewrite of the DIP", r, acts)
		}
		return acts[0].Value
	}
	old := consolidate(Recording{Spans: []mat.LocalRule{{Actions: []mat.HeaderAction{mat.Modify(packet.FieldDstIP, []byte{10, 0, 0, 1})}}}, Regs: []mat.Ref{{}}})
	if len(check(tbl, fid)) != 0 {
		t.Fatal("the event fired on a zero word")
	}
	old.Guards.Word.Store(2) // the guard reads the NF's word on the flow
	edited := slices.Clone(old.Spans)
	ed := tbl.flows.Edit(fid, false)
	for _, f := range check(tbl, fid) {
		ev, st := tbl.Bind(ed, lay, f.Ref)
		edited[f.At] = *edited[f.At].Clone()
		ev.Update(st, &edited[f.At])
	}
	ed.Done()
	next := consolidate(Recording{Spans: edited})
	if got := dip(next); got[3] != 2 || next.Guards != nil {
		t.Errorf("DIP after event = %v, guards %v; want the .2 backend and no guard", got, next.Guards)
	}
	if got := old.Spans[0].Actions[0].Value; got[3] != 1 || dip(old)[3] != 1 {
		t.Errorf("the update reached the old rule: its DIP is %v", got)
	}
}

// TestRegistrationCap: a rule guards at most MaxPerFlow events; a
// recording past the cap builds nothing, and the event-storm fault's
// guards join a rule only as far as the cap leaves room.
func TestRegistrationCap(t *testing.T) {
	fid := flow.FID(4)
	tbl := NewTable(flow.NewTable())
	lay, chain := chainOf(nil)
	regs := make([]mat.Ref, MaxPerFlow+1)
	build := func(regs []mat.Ref) (*mat.GlobalRule, error) {
		ed := tbl.flows.Edit(fid, true)
		defer ed.Done()
		return tbl.Consolidate(ed, lay, chain, &Recording{Spans: Forwards(1), Regs: regs}, nil, nil)
	}
	if rule, err := build(regs); !errors.Is(err, ErrTooManyEvents) || rule != nil {
		t.Errorf("a recording of %d registrations: rule %v, %v; want nothing and ErrTooManyEvents", len(regs), rule, err)
	}
	for _, tc := range []struct{ n, want int }{{0, 3}, {1, 4}, {MaxPerFlow - 2, MaxPerFlow}, {MaxPerFlow, MaxPerFlow}} {
		rule, err := build(regs[:tc.n])
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for g := Stormed(rule.Guards); g != nil; g = g.Next {
			n++
		}
		if n != tc.want {
			t.Errorf("%d registrations stormed: %d guards, want %d", tc.n, n, tc.want)
		}
	}
}

// TestGuardsBindRegistrations: a consolidation's rule guards the
// recording's registrations in registration order, each bound to its
// event's word and threshold (the storm's under EngineOwned), Holds
// evaluates the list without the table, and a registration the layout
// does not declare builds nothing.
func TestGuardsBindRegistrations(t *testing.T) {
	tbl := NewTable(flow.NewTable())
	var armed atomic.Uint64
	lay, chain := chainOf(map[string]Event{"a": {Word: on(&armed), AtLeast: 1, Update: noUpdate}})
	probes := tbl.ProbesTotal()
	if g := install(t, tbl, 9, lay, chain).Guards; g != nil || Holds(g) {
		t.Fatalf("flow without events: guards %v, want none and quiet", g)
	}
	g := install(t, tbl, 9, lay, chain, ref("a"), ref("b")).Guards
	if g == nil || g.Next == nil || g.Next.Next != nil || g.Ref != ref("a") || g.Next.Ref != ref("b") ||
		g.Word != &armed || g.AtLeast != 1 || g.Next.Word != &zero {
		t.Fatalf("guards %+v, want the two registrations bound in registration order", g)
	}
	if Holds(g) {
		t.Error("guards hold with both conditions false")
	}
	armed.Store(1)
	if !Holds(g) || Holds(nil) {
		t.Error("Holds: want the armed list to hold, the empty list not to")
	}
	if tbl.ProbesTotal() != probes {
		t.Error("building or evaluating guards counted as a probe")
	}
	if fired, _ := tbl.Probe(9); len(fired) != 1 || tbl.ProbesTotal() != probes+1 {
		t.Errorf("fired %d after %d probes, want 1 after 1", len(fired), tbl.ProbesTotal()-probes)
	}
	storm := install(t, tbl, 9, lay, chain, mat.Ref{Index: EngineOwned}).Guards
	if storm == nil || storm.Next != nil || storm.Word != stormGuards[0].Word || storm.AtLeast != 0 || !Holds(storm) {
		t.Errorf("the engine's own registration guards %+v, want the storm's event", storm)
	}
	for _, bad := range []mat.Ref{{At: 1}, {Index: uint16(len(names))}} {
		ed := tbl.flows.Edit(9, false)
		rule, err := tbl.Consolidate(ed, lay, chain, &Recording{Spans: Forwards(1), Regs: []mat.Ref{bad}}, nil, nil)
		ed.Done()
		if err == nil || rule != nil {
			t.Errorf("registration %+v: rule %v, %v; want none and an error", bad, rule, err)
		}
	}
}

// TestRemove: removing a flow's recording drops a record that holds
// nothing else, and keeps one that holds NF state, with the words its
// rule's guards read.
func TestRemove(t *testing.T) {
	flows := flow.NewTable()
	tbl := NewTable(flows)
	tbl.Entry(9)
	if c := flows.Counts(); c.Records != 1 {
		t.Fatalf("a standalone entry: %+v, want its record", c)
	}
	remove(tbl, 9)
	if c := flows.Counts(); c.Records != 0 {
		t.Errorf("a record holding nothing stayed after Remove: %+v", c)
	}
	decl := &FlowStates{Words: 1, Events: []Event{{Word: func(st State) *atomic.Uint64 { return &st[0] }, AtLeast: 1, Update: noUpdate}}}
	lay := NewStateLayout([]StateSlot{decl.Slot("x")})
	rule := install(t, tbl, 10, lay, []mat.Contribution{{NF: "x"}}, mat.Ref{})
	remove(tbl, 10)
	if c := flows.Counts(); c.Records != 1 {
		t.Fatalf("a record holding NF state went with the recording: %+v", c)
	}
	if len(check(tbl, 10)) != 0 {
		t.Fatal("the event fired on a zero word")
	}
	rule.Guards.Word.Store(1)
	if st := tbl.StateOf(10, decl); st == nil || st[0].Load() != 1 || len(check(tbl, 10)) != 1 {
		t.Errorf("after Remove the guard reads another word than the flow's state %v", st)
	}
}

// TestConcurrentProbeAndInstall: probes read each flow's installed rule
// with no lock while its first rule is being built and installed; once
// every rule is in, each flow's one guard fires on each probe. Run under
// -race.
func TestConcurrentProbeAndInstall(t *testing.T) {
	tbl := NewTable(flow.NewTable())
	global := mat.NewGlobal(tbl.flows)
	lay, chain := chainOf(map[string]Event{"x": {Word: zeroWord, Update: noUpdate}})
	const workers, per = 4, 100
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ed := tbl.flows.Edit(flow.FID(g*per+i), true)
				rule, err := tbl.Consolidate(ed, lay, chain, &Recording{Spans: Forwards(1), Regs: []mat.Ref{ref("x")}}, nil, nil)
				if err == nil {
					global.InstallAt(ed, rule)
				}
				ed.Done()
				if err != nil {
					t.Errorf("Consolidate: %v", err)
					return
				}
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if fired := check(tbl, flow.FID(g*per+i)); len(fired) > 1 {
					t.Errorf("one guard fired %d times in a probe", len(fired))
				}
			}
		}(g)
	}
	wg.Wait()
	before := tbl.FiredTotal()
	for fid := flow.FID(0); fid < workers*per; fid++ {
		if fired := check(tbl, fid); len(fired) != 1 || fired[0].FID != fid || tbl.Pending(fid) != 1 {
			t.Fatalf("flow %v: fired %+v, %d pending; want its one guard", fid, fired, tbl.Pending(fid))
		}
	}
	if got := tbl.FiredTotal() - before; got != workers*per {
		t.Errorf("FiredTotal rose by %d, want exactly %d", got, workers*per)
	}
}

// TestRecordSizeClass pins the flow record, which carries the first
// state block's words of a Chain1 or three-IPFilter layout in the same
// allocation: the 64-byte Record (the block's header and the engine's
// standing, the recording and the events being the rule's) and an even
// number of words fill a size class. A field more on Record costs every
// flow 16 bytes. Chain1's ten words and three IPFilters' nine take the
// 144-byte record, and the words follow the record in its allocation;
// any other layout's words are an array of their own.
func TestRecordSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Record{}); n != 64 {
		t.Errorf("Record is %d bytes, want 64", n)
	}
	if n := unsafe.Sizeof(recordWith[[10]atomic.Uint64]{}); n != 144 {
		t.Errorf("the record of 10 words is %d bytes, want 144, a size class", n)
	}
	// Any other block is an array of its own.
	for words, inline := range map[int]bool{1: false, 8: false, 9: true, 10: true, 11: false, 26: false} {
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
	stand(tbl, fid, true, func(_ flow.Handle, s *Standing) { s.RetryAt.Store(9) })
	remove(tbl, fid)
	h, _ := flows.AcquireFID(fid)
	if RetryAt(h) != 9 || flows.Counts().Records != 1 {
		t.Fatalf("after the recording's removal: deadline %d, %+v", RetryAt(h), flows.Counts())
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
