package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
)

// rewriterNF records a forward and registers one one-shot event, armed
// by the test, whose update rewrites field to value after calling hook.
type rewriterNF struct {
	declared
	name  string
	field packet.Field
	value []byte
	armed atomic.Uint64
	hook  func()
}

func (f *rewriterNF) Name() string { return f.name }

func (f *rewriterNF) FlowStates() *FlowStates {
	return f.declare(nil, event.Event{
		Word:    func(State) *atomic.Uint64 { return &f.armed },
		AtLeast: 1,
		Update: func(_ State, r *mat.LocalRule) {
			if f.hook != nil {
				f.hook()
			}
			r.Actions = []mat.HeaderAction{mat.Modify(f.field, f.value)}
		},
		OneShot: true,
	})
}

func (f *rewriterNF) Process(ctx *Ctx, _ *packet.Packet) (Verdict, error) {
	ctx.Charge(ctx.Model.Parse + ctx.Model.Classify)
	if err := ctx.AddHeaderAction(mat.Forward()); err != nil {
		return 0, err
	}
	return VerdictForward, ctx.RegisterEvent(0)
}

// TestConcurrentFiringsKeepEveryUpdate fires two one-shot events of one
// flow on two goroutines at once: the first firing's update waits for
// the second's to start. Each firing is taken out of the Event Table by
// its own probe, so an update built beside the other, from the rule
// before it, would lose the other's rewrite for good. The rule left
// must carry both rewrites. Run under -race.
func TestConcurrentFiringsKeepEveryUpdate(t *testing.T) {
	src := &rewriterNF{name: "src", field: packet.FieldSrcIP, value: []byte{1, 1, 1, 1}}
	dst := &rewriterNF{name: "dst", field: packet.FieldDstIP, value: []byte{2, 2, 2, 2}}
	eng, err := NewEngine([]NF{src, dst}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srcStarted, dstStarted := make(chan struct{}, 1), make(chan struct{}, 1)
	src.hook = func() {
		srcStarted <- struct{}{}
		// An update that serialises with its install holds the other
		// firing off until this one has installed: waiting is bounded.
		select {
		case <-dstStarted:
		case <-time.After(20 * time.Millisecond):
		}
	}
	dst.hook = func() {
		select {
		case dstStarted <- struct{}{}:
		default:
		}
	}
	b := NewBatch(1)
	const flows = 10
	for port := uint16(9100); port < 9100+flows; port++ {
		rs, err := eng.ProcessBatch([]*packet.Packet{udpPkt(t, port, "record")}, b)
		if err != nil {
			t.Fatal(err)
		}
		fid := rs[0].FID
		h := handleOf(t, eng, fid)
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		fire := func() {
			defer wg.Done()
			fb := NewBatch(1)
			fb.begin(1)
			pkt := udpPkt(t, port, "fires")
			errs <- eng.fastPathInto(h, eng.global.Live(h), classifier.KindSubsequent, pkt, &fb.res[0], fb)
		}
		src.armed.Store(1)
		wg.Add(2)
		go fire()
		<-srcStarted // src's firing is out of the table: dst's probe cannot take it
		src.armed.Store(0)
		dst.armed.Store(1)
		go fire()
		wg.Wait()
		dst.armed.Store(0)
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		select {
		case <-dstStarted: // dst's update ran after src's wait ended
		default:
		}
		rule, ok := eng.Global().LookupLive(fid)
		if !ok {
			t.Fatalf("%v: no live rule after both firings", fid)
		}
		if acts, _ := rule.HeaderActions(); len(acts) != 2 {
			t.Fatalf("%v: the rule rewrites %v, want both the source and the destination", fid, acts)
		}
		if n := eng.Events().Pending(fid); n != 0 {
			t.Fatalf("%v: %d event(s) left, want both fired", fid, n)
		}
	}
	if err := eng.CheckRecords(); err != nil {
		t.Fatal(err)
	}
}

// TestFiringAfterReconfigureReRecords fires an armed event of a flow
// whose rule a reconfiguration retired under the firing packet, which
// read the rule live: the rule is of the old chain epoch, so the update
// has no recording of this chain to apply to. The rule goes as
// event-unrecorded, the packet takes the original chain and the flow
// records afresh.
func TestFiringAfterReconfigureReRecords(t *testing.T) {
	nf := &fakeEventNF{name: "lb"}
	hub := telemetry.NewHub()
	opts := DefaultOptions()
	opts.Telemetry = hub
	eng, err := NewEngine([]NF{nf, &forwarder{"fw"}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(1)
	send := func(payload string) *PacketResult {
		t.Helper()
		rs, err := eng.ProcessBatch([]*packet.Packet{udpPkt(t, 9200, payload)}, b)
		if err != nil {
			t.Fatal(err)
		}
		return &rs[0]
	}
	fid := send("record").FID
	h := handleOf(t, eng, fid)
	read := eng.global.Live(h)
	if read == nil {
		t.Fatal("no live rule after the recording")
	}
	// Same chain length, new epoch: only the epoch tells the rule's
	// recording from this chain's.
	if err := eng.Reconfigure(ChainPlan{Op: OpReplace, Name: "fw", NF: &forwarder{"fw2"}}); err != nil {
		t.Fatal(err)
	}
	unrecorded := eng.tel.removals[CauseEventUnrecorded]
	nf.armed.Store(1)
	b.begin(1)
	if err := eng.fastPathInto(h, read, classifier.KindSubsequent, udpPkt(t, 9200, "fires"), &b.res[0], b); err != nil {
		t.Fatal(err)
	}
	if r := &b.res[0]; r.Path == PathFast {
		t.Errorf("the firing packet took the fast path on a retired rule")
	}
	nf.armed.Store(0)
	if n := unrecorded.Value(); n != 1 {
		t.Errorf("%d event-unrecorded removals, want 1", n)
	}
	for i := 0; i < 4; i++ {
		send("after")
	}
	rule, ok := eng.Global().LookupLive(fid)
	if !ok || rule.Epoch != eng.Epoch() {
		t.Fatalf("the flow has not re-recorded under epoch %d (rule %v)", eng.Epoch(), rule)
	}
	if r := send("served"); r.Path != PathFast {
		t.Errorf("re-recorded flow: path %v, want the fast path", r.Path)
	}
	if err := eng.CheckRecords(); err != nil {
		t.Error(err)
	}
}

// TestOneShotRemovedAfterFiring: a one-shot event fires once, on the
// first packet that finds it holding; the rule that firing builds does
// not guard it, so later packets, the word still set, neither fire nor
// probe.
func TestOneShotRemovedAfterFiring(t *testing.T) {
	nf := &fakeEventNF{name: "lb"}
	eng, err := NewEngine([]NF{nf}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.ProcessPacket(udpPkt(t, 8701, "record"))
	if err != nil {
		t.Fatal(err)
	}
	fid := res.FID
	wantGuards(t, eng, fid, 1, "after the recording")
	nf.armed.Store(1)
	for i, want := range []int{1, 0, 0} {
		res, err := eng.ProcessPacket(udpPkt(t, 8701, "armed"))
		if err != nil {
			t.Fatal(err)
		}
		if res.Path != PathFast || res.Fast.EventsFired != want || res.Verdict != VerdictDrop {
			t.Fatalf("armed packet %d: path %v, %d fired, verdict %v; want the fast path, %d fired and a drop",
				i, res.Path, res.Fast.EventsFired, res.Verdict, want)
		}
	}
	wantGuards(t, eng, fid, 0, "after the one-shot fired")
	if got := eng.Events().FiredTotal(); got != 1 {
		t.Errorf("FiredTotal = %d, want 1", got)
	}
	if err := eng.CheckRecords(); err != nil {
		t.Error(err)
	}
}

// TestRecurringStaysArmed: a recurring event whose condition holds fires
// on every fast-path packet, and each rule its firing builds guards it
// again.
func TestRecurringStaysArmed(t *testing.T) {
	eng, err := NewEngine([]NF{firingNF{}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.ProcessPacket(udpPkt(t, 8702, "record"))
	if err != nil {
		t.Fatal(err)
	}
	fid := res.FID
	before := eng.Events().FiredTotal()
	for i := 0; i < 3; i++ {
		res, err := eng.ProcessPacket(udpPkt(t, 8702, "fires"))
		if err != nil {
			t.Fatal(err)
		}
		if res.Path != PathFast || res.Fast.EventsFired == 0 {
			t.Fatalf("packet %d: path %v, %d fired; want the fast path to fire", i, res.Path, res.Fast.EventsFired)
		}
		wantGuards(t, eng, fid, 1, "after a firing")
	}
	if got := eng.Events().FiredTotal() - before; got < 3 {
		t.Errorf("FiredTotal rose by %d over 3 packets, want at least 3", got)
	}
	if err := eng.CheckRecords(); err != nil {
		t.Error(err)
	}
}
