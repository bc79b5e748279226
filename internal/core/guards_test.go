package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

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
// as the ladder's Subsequent arm does, on a context built from h: the
// live rule is read off the entry, none (stale or evicted) takes the
// Event Table's probe first.
func fastProcess(t *testing.T, eng *Engine, h flow.Handle, pkt *packet.Packet, b *Batch) *PacketResult {
	t.Helper()
	b.begin(1)
	if err := eng.fastPathInto(b.classified(h), eng.global.Live(h), pkt, &b.info[0], &b.res[0], b); err != nil {
		t.Fatal(err)
	}
	return &b.res[0]
}

// wantGuards asserts the flow's live rule carries exactly the flow's n
// registrations as its guards and returns the rule.
func wantGuards(t *testing.T, eng *Engine, fid flow.FID, n int, when string) *mat.GlobalRule {
	t.Helper()
	rule, ok := eng.Global().LookupLive(fid)
	if !ok {
		t.Fatalf("%s: no live rule for %v", when, fid)
	}
	g, h := rule.Guards(), handleOf(t, eng, fid)
	if guardCount(g) != n || eng.Events().Pending(fid) != n || !event.GuardsCurrent(h, g) {
		t.Fatalf("%s: rule carries %d guard(s), the table %d registration(s), current: %v; want %d of each, the same",
			when, guardCount(g), eng.Events().Pending(fid), event.GuardsCurrent(h, g), n)
	}
	return rule
}

// TestGuardsFollowRegistrations walks a flow's rule through everything
// that changes its events and checks, each time, that the rule's guards
// are the Event Table's registrations and that the fast path goes to
// the table only when they say so.
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
		return rs[0]
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
		t.Errorf("100 packets of a quiet flow took %d locked probes, want 0", got)
	}

	// The one-shot fires: one probe, the event leaves the table, and the
	// reconsolidated rule has nothing left to guard.
	nf.armed.Store(1)
	if r := send("fires"); r.Path != PathFast || r.Fast.EventsFired != 1 || r.Verdict != VerdictDrop {
		t.Fatalf("armed packet: path %v, %d fired, verdict %v", r.Path, r.Fast.EventsFired, r.Verdict)
	}
	if got := probes() - before; got != 1 {
		t.Errorf("a firing took %d locked probes, want 1", got)
	}
	nf.armed.Store(0)
	fired := wantGuards(t, eng, fid, 0, "after the one-shot fired")

	// Re-record over a stale rule: the old registrations are wiped, the
	// NF registers anew, and the rule that replaces the stale one guards
	// the new closure, not the old rule's.
	eng.Global().MarkStale(fid)
	if r := send("re-record"); r.Path != PathSlow || r.Kind != classifier.KindInitial {
		t.Fatalf("packet over a stale rule: path %v kind %v, want a slow-path re-record", r.Path, r.Kind)
	}
	rerecorded := wantGuards(t, eng, fid, 1, "after the re-record")
	if rerecorded == fired || event.GuardsCurrent(handleOf(t, eng, fid), fired.Guards()) {
		t.Error("the re-recorded rule is the stale one, or guards what it guarded")
	}

	// A stale rule with an armed event: the packet has no rule to ask, so
	// it takes the locked probe, and the firing's reconsolidation revives
	// the rule — the packet stays on the fast path, as before guards.
	eng.Global().MarkStale(fid)
	nf.armed.Store(1)
	before = probes()
	res := fastProcess(t, eng, handleOf(t, eng, fid), udpPkt(t, 8601, "revive"), b)
	if res.Path != PathFast || res.Fast.EventsFired != 1 || res.Verdict != VerdictDrop || probes()-before != 1 {
		t.Errorf("stale rule, armed event: path %v, %d fired, verdict %v, %d probes; want a fast-path drop after one firing and one probe",
			res.Path, res.Fast.EventsFired, res.Verdict, probes()-before)
	}
	wantGuards(t, eng, fid, 0, "after the revival")

	// A stale rule with nothing to fire, and an evicted one: one probe
	// each, then the slow path.
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
		if res.Path != PathSlow || probes()-before != 1 || eng.Stats().SlowPathFallbacks != fallbacks+1 {
			t.Errorf("%s rule: path %v, %d probes, %d fallbacks; want one probe, then one slow-path fallback",
				lose.how, res.Path, probes()-before, eng.Stats().SlowPathFallbacks-fallbacks)
		}
	}
}

// TestGuardsAfterEventStorm: the storm registers its events after the
// rule is installed, so the registration hook must give the installed
// rule fresh guards — and, for a forward-only rule, take the plain
// summary off its entry; the next packet then probes, the (recurring)
// storm events fire, and the reconsolidated rule guards all of them.
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
	if !event.Holds(rule.Guards()) {
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

// TestGuardRaceHammer: one goroutine registers events against a flow
// while another keeps reconsolidating it. A consolidation's guard
// snapshot and its install are one edit of the flow's entry, which a
// registration also takes: one that lands before is in the snapshot, one
// that lands after finds the new rule through its hook and gives it
// fresh guards. Either way, once a reconsolidation has returned, the
// rule it left serving guards every registration that has landed. Run
// under -race: the guard word is written by the registrar and read by
// the consolidator.
func TestGuardRaceHammer(t *testing.T) {
	eng, err := NewEngine([]NF{&fakeModifier{name: "nat", dip: [4]byte{9, 9, 9, 9}}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	never := &event.Event{Word: zeroWord, AtLeast: 1, Update: func(State, *mat.LocalRule) {}}
	const fids = 300
	var raced, snapshotted int
	for fid := flow.FID(1); fid <= fids; fid++ {
		h := eng.Events().Entry(fid)
		var (
			wg   sync.WaitGroup
			done atomic.Bool
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer done.Store(true)
			for i := 0; i < event.MaxPerFlow; i++ {
				err := eng.Events().Register(h, event.Registration{Ref: mat.Ref{Index: uint16(i)}, Event: never})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for last := false; !last; {
			last = done.Load() // one more round after the last registration
			if err := rebuild(eng, h); err != nil {
				t.Fatal(err)
			}
			rule, ok := eng.Global().LookupLive(fid)
			if !ok {
				t.Fatalf("%v: no live rule after reconsolidating", fid)
			}
			// A registration landing between the guard load and the
			// comparison has given the rule fresh guards by the time the
			// comparison is made again; the registrations are finite.
			if event.GuardsCurrent(h, rule.Guards()) {
				snapshotted++
				continue
			}
			raced++
			for tries := 0; !event.GuardsCurrent(h, rule.Guards()); tries++ {
				if tries > 1000 {
					t.Fatalf("%v: the served rule guards %d registration(s) of %d",
						fid, guardCount(rule.Guards()), eng.Events().Pending(fid))
				}
				runtime.Gosched()
			}
		}
		wg.Wait()
		wantGuards(t, eng, fid, event.MaxPerFlow, "after the last registration")
	}
	t.Logf("%d consolidations left current guards, %d raced a registration", snapshotted, raced)
}

// rebuild consolidates the rule of h's flow again from the recording it
// was built from — a chain's worth of empty spans if it has none — and
// installs it, as an event update does.
func rebuild(e *Engine, h flow.Handle) error {
	cs := e.state()
	spans := make([]mat.LocalRule, len(cs.chain))
	if r := e.global.Rule(h); r != nil {
		spans = r.Spans
	}
	ed := e.class.Flows().EditHandle(h)
	defer ed.Done()
	_, err := e.consolidate(ed, 0, &SlowPathInfo{}, cs, event.Recording{Spans: spans}, nil)
	return err
}
