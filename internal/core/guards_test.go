package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// guardCount is the length of a guard list.
func guardCount(g *mat.Guard) int {
	n := 0
	for ; g != nil; g = g.Next {
		n++
	}
	return n
}

// handleOf returns a Handle on the FID's entry, which must exist.
func handleOf(t *testing.T, eng *Engine, fid flow.FID) flow.Handle {
	t.Helper()
	h, ok := eng.class.Flows().AcquireFID(fid)
	if !ok {
		t.Fatalf("no entry holds %v", fid)
	}
	return h
}

// fastProcess runs the consolidated fast path of h's flow on one packet,
// as the ladder's Subsequent arm does, on h: the
// live rule is read off the entry, none (stale or evicted) takes the
// Event Table's probe first.
func fastProcess(t *testing.T, eng *Engine, h flow.Handle, pkt *packet.Packet, b *Batch) *PacketResult {
	t.Helper()
	b.begin(1)
	if err := eng.fastPathInto(h, eng.global.Live(h), classifier.KindSubsequent, pkt, &b.res[0], b); err != nil {
		t.Fatal(err)
	}
	return &b.res[0]
}

// wantGuards asserts the flow's live rule guards exactly n events and
// returns the rule.
func wantGuards(t *testing.T, eng *Engine, fid flow.FID, n int, when string) *mat.GlobalRule {
	t.Helper()
	rule, ok := eng.Global().LookupLive(fid)
	if !ok {
		t.Fatalf("%s: no live rule for %v", when, fid)
	}
	if got := guardCount(rule.Guards); got != n || eng.Events().Pending(fid) != n {
		t.Fatalf("%s: rule carries %d guard(s), the table reports %d; want %d", when, got, eng.Events().Pending(fid), n)
	}
	return rule
}

// TestGuardsFollowRegistrations walks a flow's rule through everything
// that changes its events and checks, each time, the events its guards
// name and that the fast path probes them only when they say so.
func TestGuardsFollowRegistrations(t *testing.T) {
	nf := &fakeEventNF{name: "lb"}
	eng, err := NewEngine([]NF{nf}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(4)
	send := func(payload string) *PacketResult {
		t.Helper()
		rs, err := eng.ProcessBatch([]*packet.Packet{udpPkt(t, 8601, payload)}, b)
		if err != nil {
			t.Fatal(err)
		}
		return &rs[0]
	}
	probes := func() uint64 { return eng.Events().ProbesTotal() }

	// Recorded: one registration, one guard, and the quiet flow's
	// packets never reach the table.
	fid := send("record").FID
	wantGuards(t, eng, fid, 1, "after the recording")
	before := probes()
	for i := 0; i < 100; i++ {
		if r := send("quiet"); r.Path != PathFast || r.Fast.EventsFired != 0 {
			t.Fatalf("quiet packet %d: path %v, %d fired", i, r.Path, r.Fast.EventsFired)
		}
	}
	if got := probes() - before; got != 0 {
		t.Errorf("100 packets of a quiet flow took %d probes, want 0", got)
	}

	// The one-shot fires: one probe, and the reconsolidated rule has
	// nothing left to guard.
	nf.armed.Store(1)
	if r := send("fires"); r.Path != PathFast || r.Fast.EventsFired != 1 || r.Verdict != VerdictDrop {
		t.Fatalf("armed packet: path %v, %d fired, verdict %v", r.Path, r.Fast.EventsFired, r.Verdict)
	}
	if got := probes() - before; got != 1 {
		t.Errorf("a firing took %d probes, want 1", got)
	}
	nf.armed.Store(0)
	fired := wantGuards(t, eng, fid, 0, "after the one-shot fired")

	// Re-record over a stale rule: the NF registers anew, and the rule
	// that replaces the stale one guards the new registration.
	eng.Global().MarkStale(fid)
	if r := send("re-record"); r.Path != PathSlow || r.Kind != classifier.KindInitial {
		t.Fatalf("packet over a stale rule: path %v kind %v, want a slow-path re-record", r.Path, r.Kind)
	}
	if rerecorded := wantGuards(t, eng, fid, 1, "after the re-record"); rerecorded == fired {
		t.Error("the re-recorded rule is the stale one")
	}

	// A stale rule, armed event or not, and an evicted one: the packet
	// has no rule whose guards it could probe, so it falls back to the
	// slow path at once.
	nf.armed.Store(1)
	defer nf.armed.Store(0)
	for _, lose := range []struct {
		how string
		do  func()
	}{
		{"stale", func() { eng.Global().MarkStale(fid) }},
		{"evicted", func() { eng.evictConsolidated(handleOf(t, eng, fid)) }},
	} {
		lose.do()
		before, fallbacks := probes(), eng.Stats().SlowPathFallbacks
		res := fastProcess(t, eng, handleOf(t, eng, fid), udpPkt(t, 8601, lose.how), b)
		if res.Path != PathSlow || probes() != before || eng.Stats().SlowPathFallbacks != fallbacks+1 {
			t.Errorf("%s rule: path %v, %d probes, %d fallbacks; want no probe and one slow-path fallback",
				lose.how, res.Path, probes()-before, eng.Stats().SlowPathFallbacks-fallbacks)
		}
	}
}

// TestGuardsAfterEventStorm: the storm's events join a flow's first rule
// before it is installed, so the rule guards them — and a forward-only
// rule is not plain, so its entry carries no summary; the next packet
// then probes, the (recurring) storm events fire, and the reconsolidated
// rule guards all of them.
func TestGuardsAfterEventStorm(t *testing.T) {
	for _, nf := range []NF{&fakeModifier{name: "nat", dip: [4]byte{9, 9, 9, 9}}, &forwarder{"fw"}} {
		t.Run(nf.Name(), func(t *testing.T) { guardsAfterEventStorm(t, nf) })
	}
}

func guardsAfterEventStorm(t *testing.T, nf NF) {
	opts := DefaultOptions()
	opts.Faults = fault.New(fault.Config{Seed: 7, Rates: map[fault.Kind]float64{fault.KindEventStorm: 1}})
	eng, err := NewEngine([]NF{nf}, opts)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(4)
	rs, err := eng.ProcessBatch([]*packet.Packet{udpPkt(t, 8602, "record")}, b)
	if err != nil {
		t.Fatal(err)
	}
	fid := rs[0].FID
	rule, ok := eng.Global().LookupLive(fid)
	if !ok || eng.Events().Pending(fid) != 3 {
		t.Fatalf("after the recording: live rule %v, %d storm events; want a rule and 3", ok, eng.Events().Pending(fid))
	}
	wantGuards(t, eng, fid, 3, "after the storm registered")
	if !event.Holds(rule.Guards) {
		t.Fatal("the storm's guards do not hold")
	}
	if err := eng.CheckRecords(); err != nil {
		t.Fatal(err)
	}
	rs, err = eng.ProcessBatch([]*packet.Packet{udpPkt(t, 8602, "storm")}, b)
	if err != nil {
		t.Fatal(err)
	}
	// Pre- and post-execution checks both fire all three.
	if rs[0].Path != PathFast || rs[0].Fast.EventsFired != 6 {
		t.Fatalf("packet in the storm: path %v, %d fired; want the fast path and 6", rs[0].Path, rs[0].Fast.EventsFired)
	}
	wantGuards(t, eng, fid, 3, "after the storm's first firing")
}

// TestFiringHammer: two workers on one flow, each with a packet that
// finds the same one-shot guard holding on the rule it read. The guards
// are probed inside the flow's edit, and the first firing's update waits
// for the second worker to have started it: the second finds the rule
// the first installed, which no longer guards the event. So the event
// fires exactly once, whichever worker wins. Run under -race.
func TestFiringHammer(t *testing.T) {
	nf := &rewriterNF{name: "nat", field: packet.FieldDstIP, value: []byte{9, 9, 9, 9}}
	eng, err := NewEngine([]NF{nf}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var started atomic.Int32
	nf.hook = func() {
		for i := 0; started.Load() < 2 && i < 2000; i++ {
			time.Sleep(10 * time.Microsecond)
		}
		time.Sleep(time.Millisecond)
	}
	b := NewBatch(1)
	const flows = 100
	for port := uint16(9300); port < 9300+flows; port++ {
		rs, err := eng.ProcessBatch([]*packet.Packet{udpPkt(t, port, "record")}, b)
		if err != nil {
			t.Fatal(err)
		}
		h := handleOf(t, eng, rs[0].FID)
		rule := eng.global.Live(h)
		nf.armed.Store(1)
		started.Store(0)
		var wg sync.WaitGroup
		fired := make([]int, 2)
		errs := make([]error, 2)
		for w := range fired {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fb := NewBatch(1)
				fb.begin(1)
				started.Add(1)
				errs[w] = eng.fastPathInto(h, rule, classifier.KindSubsequent, udpPkt(t, port, "fires"), &fb.res[0], fb)
				fired[w] = fb.res[0].Fast.EventsFired
			}()
		}
		wg.Wait()
		nf.armed.Store(0)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if fired[0]+fired[1] != 1 {
			t.Fatalf("port %d: the workers fired %d and %d times, want one firing in all", port, fired[0], fired[1])
		}
		if n := eng.Events().Pending(h.FID()); n != 0 {
			t.Fatalf("port %d: the rule left guards %d event(s), want none", port, n)
		}
	}
	if err := eng.CheckRecords(); err != nil {
		t.Fatal(err)
	}
}
