package core

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

// fakeModifier rewrites DIP to a fixed value and records the action.
type fakeModifier struct {
	name string
	dip  [4]byte
}

func (f *fakeModifier) Name() string { return f.name }

func (f *fakeModifier) Process(ctx *Ctx, pkt *packet.Packet) (Verdict, error) {
	ctx.Charge(ctx.Model.Parse + ctx.Model.Classify)
	if err := pkt.Set(packet.FieldDstIP, f.dip[:]); err != nil {
		return 0, err
	}
	if err := pkt.FinalizeChecksums(); err != nil {
		return 0, err
	}
	ctx.Charge(ctx.Model.ModifyField + ctx.Model.ChecksumUpdate)
	if err := ctx.AddHeaderAction(mat.Modify(packet.FieldDstIP, f.dip[:])); err != nil {
		return 0, err
	}
	return VerdictForward, nil
}

// declared is a test NF's declaration, made on the engine's first ask:
// the state functions and events its Process records by index.
type declared struct {
	once  sync.Once
	flows FlowStates
}

func (d *declared) declare(funcs []sfunc.Func, events ...event.Event) *FlowStates {
	d.once.Do(func() { d.flows.Funcs, d.flows.Events = funcs, events })
	return &d.flows
}

// zero is the word of a test event whose condition always holds (at
// least 0) or never does (at least 1).
var zero atomic.Uint64

func zeroWord(State) *atomic.Uint64 { return &zero }

// fakeCounter counts packets per flow via a state function.
type fakeCounter struct {
	declared
	name  string
	count atomic.Uint64
}

func (f *fakeCounter) Name() string { return f.name }

func (f *fakeCounter) FlowStates() *FlowStates {
	return f.declare([]sfunc.Func{{Name: "count", Class: sfunc.ClassIgnore, Run: func(a sfunc.Args, _ *packet.Packet) (uint64, error) {
		f.count.Add(1)
		return a.Model.CounterUpdate, nil
	}}})
}

func (f *fakeCounter) Process(ctx *Ctx, pkt *packet.Packet) (Verdict, error) {
	ctx.Charge(ctx.Model.Parse + ctx.Model.Classify)
	f.count.Add(1)
	ctx.Charge(ctx.Model.CounterUpdate)
	if err := ctx.AddStateFunc(0); err != nil {
		return 0, err
	}
	return VerdictForward, nil
}

// fakeDropper drops everything.
type fakeDropper struct{ name string }

func (f *fakeDropper) Name() string { return f.name }

func (f *fakeDropper) Process(ctx *Ctx, pkt *packet.Packet) (Verdict, error) {
	ctx.Charge(ctx.Model.Parse + ctx.Model.Classify)
	if err := ctx.AddHeaderAction(mat.Drop()); err != nil {
		return 0, err
	}
	return VerdictDrop, nil
}

// fakeEventNF forwards but registers an event that flips its rule to
// drop once armed; a silent one records no action, only the event.
type fakeEventNF struct {
	declared
	name   string
	silent bool
	armed  atomic.Uint64
}

func (f *fakeEventNF) Name() string { return f.name }

func (f *fakeEventNF) FlowStates() *FlowStates {
	return f.declare(nil, event.Event{
		Word:    func(State) *atomic.Uint64 { return &f.armed },
		AtLeast: 1,
		Update:  func(_ State, r *mat.LocalRule) { r.Actions = []mat.HeaderAction{mat.Drop()} },
		OneShot: true,
	})
}

func (f *fakeEventNF) Process(ctx *Ctx, pkt *packet.Packet) (Verdict, error) {
	ctx.Charge(ctx.Model.Parse + ctx.Model.Classify)
	if !f.silent {
		if err := ctx.AddHeaderAction(mat.Forward()); err != nil {
			return 0, err
		}
	}
	if err := ctx.RegisterEvent(0); err != nil {
		return 0, err
	}
	return VerdictForward, nil
}

// failingNF returns an error.
type failingNF struct{}

func (failingNF) Name() string { return "boom" }
func (failingNF) Process(*Ctx, *packet.Packet) (Verdict, error) {
	return 0, errors.New("kaput")
}

func dataPkt(t *testing.T, seq int) *packet.Packet {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: 6000, DstPort: 80, Proto: packet.ProtoTCP,
		TCPFlags: packet.TCPFlagACK, Seq: uint32(seq),
		Payload: []byte("data payload"),
	})
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, DefaultOptions()); !errors.Is(err, ErrEmptyChain) {
		t.Errorf("empty chain: %v", err)
	}
	_, err := NewEngine([]NF{&fakeDropper{name: "x"}, &fakeDropper{name: "x"}}, DefaultOptions())
	if !errors.Is(err, ErrDuplicateNF) {
		t.Errorf("duplicate NFs: %v", err)
	}
}

func TestInitialThenFastPath(t *testing.T) {
	mod := &fakeModifier{name: "nat", dip: [4]byte{99, 0, 0, 1}}
	eng, err := NewEngine([]NF{mod}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Initial packet: slow path, rule installed.
	r1, err := eng.ProcessPacket(dataPkt(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Kind != classifier.KindInitial || r1.Path != PathSlow {
		t.Errorf("first packet: kind=%v path=%v", r1.Kind, r1.Path)
	}
	if eng.Global().Len() != 1 {
		t.Fatal("no rule installed after initial packet")
	}
	if r1.Slow.ConsolidateCycles == 0 {
		t.Error("consolidation not charged")
	}

	// Subsequent packet: fast path, same output.
	p2 := dataPkt(t, 2)
	r2, err := eng.ProcessPacket(p2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Path != PathFast || r2.Kind != classifier.KindSubsequent {
		t.Errorf("second packet: kind=%v path=%v", r2.Kind, r2.Path)
	}
	if p2.DstIP() != [4]byte{99, 0, 0, 1} {
		t.Errorf("fast path output DIP = %v", p2.DstIP())
	}
	if !p2.VerifyChecksums() {
		t.Error("fast path output has stale checksums")
	}
	st := eng.Stats()
	if st.FastPath != 1 || st.SlowPath != 1 || st.Consolidations != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBaselineNeverInstallsRules(t *testing.T) {
	mod := &fakeModifier{name: "nat", dip: [4]byte{99, 0, 0, 1}}
	eng, err := NewEngine([]NF{mod}, BaselineOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r, err := eng.ProcessPacket(dataPkt(t, i))
		if err != nil {
			t.Fatal(err)
		}
		if r.Path != PathSlow {
			t.Fatalf("baseline packet %d took %v", i, r.Path)
		}
		if r.Slow.ClassifierCycles != 0 {
			t.Error("baseline charged classifier work")
		}
	}
	if eng.Global().Len() != 0 {
		t.Error("baseline installed a rule")
	}
}

func TestFastPathOutputEqualsSlowPath(t *testing.T) {
	// The same flow through two engines (baseline vs SpeedyBox) must
	// produce byte-identical packets (invariant 1).
	mkChain := func() []NF {
		return []NF{
			&fakeModifier{name: "nat", dip: [4]byte{50, 0, 0, 1}},
			&fakeModifier{name: "lb", dip: [4]byte{60, 0, 0, 2}},
		}
	}
	base, err := NewEngine(mkChain(), BaselineOptions())
	if err != nil {
		t.Fatal(err)
	}
	sbox, err := NewEngine(mkChain(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		pb, ps := dataPkt(t, i), dataPkt(t, i)
		if _, err := base.ProcessPacket(pb); err != nil {
			t.Fatal(err)
		}
		if _, err := sbox.ProcessPacket(ps); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pb.Data(), ps.Data()) {
			t.Fatalf("packet %d: outputs differ", i)
		}
	}
}

func TestWorkCyclesDropOnFastPath(t *testing.T) {
	// Cross-NF consolidation must make subsequent packets cheaper
	// than the original chain for a 2-NF chain (Figure 4 shape).
	chain := []NF{
		&fakeModifier{name: "a", dip: [4]byte{1, 1, 1, 1}},
		&fakeModifier{name: "b", dip: [4]byte{2, 2, 2, 2}},
	}
	eng, err := NewEngine(chain, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := eng.ProcessPacket(dataPkt(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.ProcessPacket(dataPkt(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if r2.WorkCycles >= r1.WorkCycles {
		t.Errorf("fast path (%d cycles) not cheaper than initial (%d)", r2.WorkCycles, r1.WorkCycles)
	}
	if r2.WorkCycles >= r2.Fast.FixedCycles+r2.Fast.HeaderCycles+1000 {
		t.Errorf("fast path cycles unexpectedly large: %d", r2.WorkCycles)
	}
}

func TestEarlyDropOnFastPath(t *testing.T) {
	counter := &fakeCounter{name: "mon"}
	chain := []NF{counter, &fakeDropper{name: "fw"}}
	eng, err := NewEngine(chain, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := eng.ProcessPacket(dataPkt(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Verdict != VerdictDrop || r1.Slow.DropIndex != 1 {
		t.Errorf("initial: verdict=%v dropIndex=%d", r1.Verdict, r1.Slow.DropIndex)
	}
	p2 := dataPkt(t, 2)
	r2, err := eng.ProcessPacket(p2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Path != PathFast || r2.Verdict != VerdictDrop || !p2.Dropped() {
		t.Errorf("subsequent: path=%v verdict=%v dropped=%v", r2.Path, r2.Verdict, p2.Dropped())
	}
	// Early drop must still run the upstream Monitor's state function
	// (state equivalence): counter counts initial + subsequent.
	if got := counter.count.Load(); got != 2 {
		t.Errorf("counter = %d, want 2 (initial + fast-path SF)", got)
	}
	// And an early drop is cheaper than the initial traversal.
	if r2.WorkCycles >= r1.WorkCycles {
		t.Errorf("early drop (%d) not cheaper than full traversal (%d)", r2.WorkCycles, r1.WorkCycles)
	}
}

func TestEventFlipsRuleMidStream(t *testing.T) {
	ev := &fakeEventNF{name: "dos"}
	eng, err := NewEngine([]NF{ev}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ProcessPacket(dataPkt(t, 1)); err != nil {
		t.Fatal(err)
	}
	// Packets 2-3 forward.
	for i := 2; i <= 3; i++ {
		p := dataPkt(t, i)
		r, err := eng.ProcessPacket(p)
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != VerdictForward || p.Dropped() {
			t.Fatalf("packet %d dropped before event armed", i)
		}
	}
	// Arm the event: the very next packet must be dropped (invariant
	// 6: fires before the packet is processed, never retroactively).
	ev.armed.Store(1)
	p := dataPkt(t, 4)
	r, err := eng.ProcessPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != VerdictDrop || !p.Dropped() {
		t.Errorf("packet after event: verdict=%v", r.Verdict)
	}
	if r.Fast.EventsFired != 1 || r.Fast.ReconsolidateCycles == 0 {
		t.Errorf("fast info = %+v", r.Fast)
	}
	if eng.Stats().EventsFired != 1 {
		t.Errorf("stats.EventsFired = %d", eng.Stats().EventsFired)
	}
	// One-shot: later packets stay dropped via the updated rule, with
	// no further firings.
	r, err = eng.ProcessPacket(dataPkt(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != VerdictDrop || r.Fast.EventsFired != 0 {
		t.Errorf("post-event packet: %+v", r)
	}
}

func TestFinTearsDownAllState(t *testing.T) {
	mod := &fakeModifier{name: "nat", dip: [4]byte{9, 9, 9, 9}}
	eng, err := NewEngine([]NF{mod}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ProcessPacket(dataPkt(t, 1)); err != nil {
		t.Fatal(err)
	}
	// A flow whose NFs keep no state and register no event holds its
	// rule, which holds its recording, and no record.
	if c := eng.class.Flows().Counts(); c.Rules != 1 || c.Records != 0 {
		t.Fatalf("state not installed: %+v", c)
	}
	fin := packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: 6000, DstPort: 80, Proto: packet.ProtoTCP,
		TCPFlags: packet.TCPFlagFIN | packet.TCPFlagACK,
	})
	r, err := eng.ProcessPacket(fin)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != classifier.KindFinal || !r.TornDown {
		t.Errorf("FIN result = %+v", r)
	}
	// The FIN itself was still processed through the rule.
	if fin.DstIP() != [4]byte{9, 9, 9, 9} {
		t.Errorf("FIN not transformed: DIP=%v", fin.DstIP())
	}
	if c := eng.class.Flows().Counts(); c != (flow.Counts{}) || eng.Global().Guarded() != 0 {
		t.Errorf("stale state survives FIN teardown: %+v", c)
	}
}

func TestHandshakeTakesSlowPathWithoutRecording(t *testing.T) {
	mod := &fakeModifier{name: "nat", dip: [4]byte{8, 8, 8, 8}}
	eng, err := NewEngine([]NF{mod}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	syn := packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: 6000, DstPort: 80, Proto: packet.ProtoTCP, TCPFlags: packet.TCPFlagSYN,
	})
	r, err := eng.ProcessPacket(syn)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != classifier.KindHandshake || r.Path != PathSlow {
		t.Errorf("SYN: %+v", r)
	}
	if eng.Global().Len() != 0 {
		t.Error("handshake packet installed a rule")
	}
	// The SYN was still processed by the chain (NAT must translate
	// handshake packets too).
	if syn.DstIP() != [4]byte{8, 8, 8, 8} {
		t.Errorf("SYN untranslated: %v", syn.DstIP())
	}
}

func TestNFErrorPropagates(t *testing.T) {
	eng, err := NewEngine([]NF{failingNF{}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ProcessPacket(dataPkt(t, 1)); !errors.Is(err, ErrNFFailed) {
		t.Errorf("err = %v, want ErrNFFailed", err)
	}
}

func TestAblationModes(t *testing.T) {
	mkChain := func() []NF {
		return []NF{
			&fakeModifier{name: "nat", dip: [4]byte{1, 2, 3, 4}},
			&fakeCounter{name: "mon"},
		}
	}
	run := func(opts Options) *PacketResult {
		eng, err := NewEngine(mkChain(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.ProcessPacket(dataPkt(t, 1)); err != nil {
			t.Fatal(err)
		}
		r, err := eng.ProcessPacket(dataPkt(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	full := run(DefaultOptions())
	haOnly := run(Options{EnableSpeedyBox: true, ConsolidateHeaders: true, ParallelSF: false})
	sfOnly := run(Options{EnableSpeedyBox: true, ConsolidateHeaders: false, ParallelSF: true})

	if haOnly.Path != PathFast || sfOnly.Path != PathFast || full.Path != PathFast {
		t.Fatal("ablation run missed fast path")
	}
	// Without header consolidation, header work is priced with per-NF
	// parses and checksums, so it must cost strictly more.
	if sfOnly.Fast.HeaderCycles <= full.Fast.HeaderCycles {
		t.Errorf("SF-only header cycles %d not above consolidated %d",
			sfOnly.Fast.HeaderCycles, full.Fast.HeaderCycles)
	}
	// Functional output is identical in all modes.
	if full.Verdict != haOnly.Verdict || full.Verdict != sfOnly.Verdict {
		t.Error("ablation modes disagree on verdict")
	}
}

func TestRepeatedInitialBeforeRuleIsSafe(t *testing.T) {
	// UDP flow: every pre-rule packet is initial; recording restarts
	// cleanly and the rule converges (no duplicated actions).
	mod := &fakeModifier{name: "nat", dip: [4]byte{4, 4, 4, 4}}
	eng, err := NewEngine([]NF{mod}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *packet.Packet {
		return packet.MustBuild(packet.Spec{
			SrcIP: packet.IP4(7, 0, 0, 1), DstIP: packet.IP4(7, 0, 0, 2),
			SrcPort: 777, DstPort: 53, Proto: packet.ProtoUDP, Payload: []byte("q"),
		})
	}
	if _, err := eng.ProcessPacket(mk()); err != nil {
		t.Fatal(err)
	}
	r, _ := eng.Global().Lookup(func() flow.FID {
		p := mk()
		res, err := eng.ProcessPacket(p)
		if err != nil {
			t.Fatal(err)
		}
		return res.FID
	}())
	if r == nil {
		t.Fatal("rule missing")
	}
	if acts, _ := r.HeaderActions(); len(acts) != 1 || acts[0].Kind != mat.ActionModify {
		t.Errorf("rule's program is %v, want one modify (no duplicate recording)", acts)
	}
}

func TestVerdictAndPathStrings(t *testing.T) {
	if VerdictForward.String() != "forward" || VerdictDrop.String() != "drop" {
		t.Error("verdict strings wrong")
	}
	if PathSlow.String() != "slow" || PathFast.String() != "fast" {
		t.Error("path strings wrong")
	}
}
