package core

import (
	"bytes"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// TestSummaryServesAsTheRule: a flow whose rule is plain is served from
// the summary on its entry, not from the rule, and the packet leaves
// exactly as the rule would have served it — bytes, verdict, path, every
// FastPathInfo field and the work cycles. A rule with header work leaves
// no summary.
func TestSummaryServesAsTheRule(t *testing.T) {
	eng, err := NewEngine([]NF{&forwarder{"fw1"}, &forwarder{"fw2"}, &forwarder{"fw3"}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(4)
	first, err := eng.ProcessBatch([]*packet.Packet{udpPkt(t, 8701, "record")}, b)
	if err != nil {
		t.Fatal(err)
	}
	fid := first[0].FID
	h := handleOf(t, eng, fid)
	rule := eng.Global().Rule(h)
	fixed, header, ok := h.Plain(eng.Epoch())
	if !rule.Plain() || !ok || fixed != rule.FixedCycles || header != rule.HeaderCycles {
		t.Fatalf("forward-only rule: plain %v, summary %v (%d, %d), rule price (%d, %d)",
			rule.Plain(), ok, fixed, header, rule.FixedCycles, rule.HeaderCycles)
	}

	viaRule := udpPkt(t, 8701, "served")
	want := *fastProcess(t, eng, h, viaRule, b)
	wantInfo := want.Fast
	// The rule's own price is not what the summary path reads: change it
	// on the installed rule, and the packet is still charged the summary.
	rule.FixedCycles++
	viaSummary := udpPkt(t, 8701, "served")
	rs, err := eng.ProcessBatch([]*packet.Packet{viaSummary}, b)
	rule.FixedCycles--
	if err != nil {
		t.Fatal(err)
	}
	got := rs[0]
	if got.Path != PathFast || got.Verdict != want.Verdict || got.WorkCycles != want.WorkCycles || got.Fast != wantInfo {
		t.Errorf("summary served %v %v %d cycles %+v; the rule %v %v %d cycles %+v",
			got.Path, got.Verdict, got.WorkCycles, got.Fast, want.Path, want.Verdict, want.WorkCycles, wantInfo)
	}
	if !bytes.Equal(viaSummary.Data(), viaRule.Data()) {
		t.Error("the summary and the rule leave different packet bytes")
	}

	mod, err := NewEngine([]NF{&fakeModifier{name: "nat", dip: [4]byte{9, 9, 9, 9}}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rs, err = mod.ProcessBatch([]*packet.Packet{udpPkt(t, 8702, "record")}, b)
	if err != nil {
		t.Fatal(err)
	}
	mh := handleOf(t, mod, rs[0].FID)
	if _, _, ok := mh.Plain(mod.Epoch()); ok || mod.Global().Rule(mh).Plain() {
		t.Error("a rule with a header rewrite is plain, or left a summary")
	}
}

// summaryPrice is the header price the hammer gives the rule whose
// FixedCycles is seq: a torn read pairs one install's half with another's.
func summaryPrice(seq uint64) uint64 { return seq*3 + 1 }

// TestServedSummaryHammer races the ladder's read of a plain rule's
// summary (Engine.process) against every writer of it on shared FIDs:
// installs and replacements of plain, non-plain and guarded rules, stale
// marks, epoch advances and teardowns. Every install
// is numbered under its flow's Edit and priced by its number, so a
// reader can name the install a summary came from. A reader must only
// take the summary of a plain install on that FID (never a torn price),
// of an epoch not retired when the read began, and of an install not
// killed — stale-marked, replaced by a guarded rule, its entry torn down
// — before the read began. Run under -race.
func TestServedSummaryHammer(t *testing.T) {
	eng, err := NewEngine([]NF{&forwarder{"fw"}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const fids = 8
	ops := 20000
	if raceEnabled {
		ops = 4000
	}
	type install struct {
		fid   flow.FID
		epoch uint64
		plain bool
	}
	var (
		installs sync.Map // seq -> install
		seq      atomic.Uint64
		last     [fids + 1]atomic.Uint64 // the FID's latest install, stored under its Edit
		killed   [fids + 1]atomic.Uint64 // no summary of an install up to this may be served
		served   atomic.Uint64
		stop     atomic.Bool
		readers  sync.WaitGroup
		writers  sync.WaitGroup
	)
	flows := eng.class.Flows()
	kill := func(fid flow.FID, upTo uint64) {
		for {
			old := killed[fid].Load()
			if upTo <= old || killed[fid].CompareAndSwap(old, upTo) {
				return
			}
		}
	}
	never := &mat.Guard{Word: &zero, AtLeast: 1}
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(rng *rand.Rand) {
			defer writers.Done()
			for i := 0; i < ops; i++ {
				fid := flow.FID(1 + rng.IntN(fids))
				switch op := rng.IntN(100); {
				case op < 55: // install or replace, plain two times in three
					ed := flows.Edit(fid, true)
					n := seq.Add(1)
					r := &mat.GlobalRule{FID: fid, Epoch: eng.global.Epoch(), FixedCycles: n, HeaderCycles: summaryPrice(n), Drop: op%3 == 0}
					r.Compile()
					installs.Store(n, install{fid, r.Epoch, r.Plain()})
					eng.global.InstallAt(ed, r)
					last[fid].Store(n)
					ed.Done()
				case op < 70: // replace with a guarded rule, which is never plain
					ed := flows.Edit(fid, true)
					upTo, n := last[fid].Load(), seq.Add(1)
					r := &mat.GlobalRule{FID: fid, Epoch: eng.global.Epoch(), FixedCycles: n, HeaderCycles: summaryPrice(n), Guards: never}
					r.Compile()
					installs.Store(n, install{fid, r.Epoch, r.Plain()})
					eng.global.InstallAt(ed, r)
					last[fid].Store(n)
					ed.Done()
					kill(fid, upTo)
				case op < 80:
					ed := flows.Edit(fid, false)
					upTo, marked := last[fid].Load(), eng.global.MarkStaleAt(ed)
					ed.Done()
					if marked {
						kill(fid, upTo)
					}
				case op < 85:
					eng.global.SweepEpoch(eng.global.AdvanceEpoch())
				default: // tear the flow down: its entry goes
					ed := flows.Edit(fid, false)
					upTo := last[fid].Load()
					eng.teardown(ed, CauseFinTeardown)
					kill(fid, upTo)
				}
			}
		}(rand.New(rand.NewPCG(uint64(w), 38)))
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(rng *rand.Rand) {
			defer readers.Done()
			for !stop.Load() {
				fid := flow.FID(1 + rng.IntN(fids))
				floor, epoch := killed[fid].Load(), eng.global.Epoch()
				h, ok := flows.AcquireFID(fid)
				if !ok {
					continue
				}
				fixed, header, plain := h.Plain(eng.global.Epoch())
				if !plain {
					continue
				}
				served.Add(1)
				v, ok := installs.Load(fixed)
				in, _ := v.(install)
				switch {
				case !ok || in.fid != fid || !in.plain || header != summaryPrice(fixed):
					t.Errorf("%v served price (%d, %d): not a plain install on it (%+v)", fid, fixed, header, in)
				case in.epoch < epoch:
					t.Errorf("%v served install %d of epoch %d, retired before the read (epoch %d)", fid, fixed, in.epoch, epoch)
				case fixed <= floor:
					t.Errorf("%v served install %d, killed (up to %d) before the read", fid, fixed, floor)
				}
			}
		}(rand.New(rand.NewPCG(uint64(r), 83)))
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	if served.Load() == 0 {
		t.Error("no read took a summary: the hammer checked nothing")
	}
	t.Logf("%d installs, %d reads served from a summary", seq.Load(), served.Load())
}
