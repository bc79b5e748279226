package flow

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/fastpathnfv/speedybox/internal/packet"
)

// TestQuickTableModelEquivalence: random insert/remove sequences keep
// the table equivalent to a reference map model, with both indexes
// (by tuple and by FID) consistent.
func TestQuickTableModelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := NewTable()
		model := make(map[packet.FiveTuple]FID)

		mkTuple := func() packet.FiveTuple {
			return packet.FiveTuple{
				SrcIP:   packet.IP4(10, 0, 0, byte(rng.Intn(20))),
				DstIP:   packet.IP4(10, 1, 0, 1),
				SrcPort: uint16(1000 + rng.Intn(20)),
				DstPort: 80,
				Proto:   packet.ProtoTCP,
			}
		}
		for op := 0; op < 300; op++ {
			ft := mkTuple()
			if rng.Intn(3) != 0 {
				e, err := tbl.Insert(ft)
				if err != nil {
					return false
				}
				if prev, ok := model[ft]; ok && prev != e.FID {
					return false // re-insert changed FID
				}
				model[ft] = e.FID
			} else if fid, ok := model[ft]; ok {
				if !tbl.Remove(fid) {
					return false
				}
				delete(model, ft)
			}
			if tbl.Len() != len(model) {
				return false
			}
		}
		// Full cross-check of both indexes.
		for ft, fid := range model {
			e, ok := tbl.Lookup(ft)
			if !ok || e.FID != fid || e.Tuple != ft {
				return false
			}
			if e2, ok := tbl.LookupFID(fid); !ok || e2 != e {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickNoFIDCollisions: distinct concurrent tuples always receive
// distinct FIDs (probing resolves hash collisions).
func TestQuickNoFIDCollisions(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := NewTable()
		fids := make(map[FID]packet.FiveTuple)
		for i := 0; i < int(n)+2; i++ {
			ft := packet.FiveTuple{
				SrcIP:   packet.IP4(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))),
				DstIP:   packet.IP4(10, 1, 0, 1),
				SrcPort: uint16(rng.Intn(65536)),
				DstPort: uint16(rng.Intn(65536)),
				Proto:   packet.ProtoTCP,
			}
			e, err := tbl.Insert(ft)
			if err != nil {
				return false
			}
			if prev, taken := fids[e.FID]; taken && prev != ft {
				return false
			}
			fids[e.FID] = ft
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickSweepPartition holds Sweep to its model on random schedules
// of packets, clock advances and sweeps: a flow is reaped exactly when
// the sweep that ended the seen epoch of its last packet lies at least
// idleFor ticks back — the first sweep after that packet, while no more
// than seenEpochs-1 ended epochs are held.
func TestQuickSweepPartition(t *testing.T) {
	const flows = 16
	f := func(ops []uint16, idleFor uint8) bool {
		tbl := NewTable()
		hs := make([]Handle, flows)
		// ended[k] is the tick the epoch of flow k's last packet ended at,
		// -1 while that epoch is the current one, which the next sweep ends.
		ended := make([]int64, flows)
		live := make([]bool, flows)
		var now uint64
		sweeps := 0
		for _, op := range ops {
			k := int(op>>4) % flows
			switch {
			case op&0xf < 8: // a packet of flow k, set up if untracked
				if !live[k] {
					ft := packet.FiveTuple{SrcIP: packet.IP4(10, 0, 0, byte(k)), DstIP: packet.IP4(1, 1, 1, 1),
						SrcPort: uint16(k), DstPort: 80, Proto: packet.ProtoUDP}
					h, _, err := tbl.InsertKey(ft.Key())
					if err != nil {
						return false
					}
					h.SetState(StateEstablished, tbl.Seen())
					hs[k], live[k] = h, true
				} else if !hs[k].Touch(tbl.Seen()) {
					return false
				}
				ended[k] = -1
			case op&0xf < 12:
				now += uint64(op >> 8)
			case sweeps < seenEpochs-2:
				sweeps++
				want := map[FID]bool{}
				for i := range hs {
					if live[i] && ended[i] < 0 {
						ended[i] = int64(now)
					}
					if live[i] && now-uint64(ended[i]) >= uint64(idleFor) {
						want[hs[i].FID()] = true
					}
				}
				got := tbl.Sweep(now, uint64(idleFor))
				if len(got) != len(want) {
					return false
				}
				for _, h := range got {
					if !want[h.FID()] || !tbl.Remove(h.FID()) {
						return false
					}
				}
				for i := range hs {
					live[i] = live[i] && !want[hs[i].FID()]
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSweepAcrossStampWrap runs sweeps across the wrap of the stamp's
// bits: a flow with a packet every epoch is never reaped, an idle one is
// reaped once idleFor ticks past the end of its epoch, and a flow set up
// on the far side of the wrap is told from one left on the near side.
func TestSweepAcrossStampWrap(t *testing.T) {
	tbl := NewTable()
	sw := &tbl.sweep
	sw.epoch, sw.oldest = uint64(epochMask)-2, uint64(epochMask)-2
	tbl.seen.Store(uint32(sw.epoch) << seenShift)
	add := func(port uint16) Handle {
		ft := packet.FiveTuple{SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(1, 1, 1, 1),
			SrcPort: port, DstPort: 80, Proto: packet.ProtoUDP}
		h, _, err := tbl.InsertKey(ft.Key())
		if err != nil {
			t.Fatal(err)
		}
		h.SetState(StateEstablished, tbl.Seen())
		return h
	}
	busy, idle := add(1), add(2)
	var late Handle
	for i := uint64(1); i <= 8; i++ {
		now := 10 * i
		got := tbl.Sweep(now, 25)
		for _, h := range got {
			if h == busy || h == late {
				t.Fatalf("sweep %d (epoch %d) reaped a flow seen in the last 10 ticks", i, sw.epoch)
			}
			tbl.Remove(h.FID())
		}
		// idle's epoch ended at the first sweep (tick 10): reaped at 40.
		if reaped := len(got) == 1 && got[0] == idle; reaped != (now == 40) {
			t.Fatalf("sweep at tick %d returned %d flow(s); idle reaped=%v", now, len(got), reaped)
		}
		if !busy.Touch(tbl.Seen()) {
			t.Fatal("busy flow failed the shape gate")
		}
		if i == 4 {
			late = add(3) // after the wrap: its stamp is a small number
		} else if late != (Handle{}) && i < 7 {
			late.Touch(tbl.Seen())
		}
	}
	if sw.epoch <= uint64(epochMask) || uint32(sw.epoch)&epochMask >= 8 {
		t.Fatalf("epoch %d did not wrap the stamp", sw.epoch)
	}
}

// TestSweepWindowFull: once seenEpochs-1 ended epochs are held by kept
// flows, a sweep lets the current epoch run on — it never forgets an
// epoch a flow carries, so no flow with a recent packet is reaped — and
// epochs open again once the old flows are reaped.
func TestSweepWindowFull(t *testing.T) {
	tbl := NewTable()
	var hs []Handle
	const idleFor = 1000
	for i := 0; i < 2*seenEpochs; i++ {
		ft := packet.FiveTuple{SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(1, 1, 1, 1),
			SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoUDP}
		h, _, err := tbl.InsertKey(ft.Key())
		if err != nil {
			t.Fatal(err)
		}
		h.SetState(StateEstablished, tbl.Seen())
		hs = append(hs, h)
		if got := tbl.Sweep(uint64(i), idleFor); len(got) != 0 {
			t.Fatalf("sweep %d reaped %d flow(s) seen within %d ticks", i, len(got), i+1)
		}
	}
	if e := tbl.sweep.epoch; e != seenEpochs-1 {
		t.Fatalf("epoch %d after %d sweeps, want it held at %d", e, 2*seenEpochs, seenEpochs-1)
	}
	// Every flow set up once the window filled carries the last epoch,
	// which has not ended: only the ones before it go, each once its epoch
	// ended idleFor ticks ago.
	got := tbl.Sweep(idleFor+seenEpochs, idleFor)
	if len(got) != seenEpochs-1 {
		t.Fatalf("reaped %d flows, want the %d of the ended epochs", len(got), seenEpochs-1)
	}
	for _, h := range got {
		if h.FID() == hs[len(hs)-1].FID() {
			t.Fatal("reaped a flow of the current epoch")
		}
		tbl.Remove(h.FID())
	}
	tbl.Sweep(idleFor+seenEpochs, idleFor)
	if e := tbl.sweep.epoch; e <= seenEpochs-1 {
		t.Errorf("no epoch opened once the window emptied (epoch %d)", e)
	}
}

// TestChurnKeepsArraysSteady: 10 000 remove-one/insert-one cycles at a
// fixed population are absorbed in place — tombstones are re-keyed or
// compacted away, so no shard's array outgrows what its peak population
// needs and arrays are published far more rarely than flows come and go
// — and draining the table puts every shard back on the shared empty
// array with no tombstone left.
func TestChurnKeepsArraysSteady(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tbl := NewTable()
	next := uint32(0)
	insert := func() FID {
		next++
		h, existed, err := tbl.InsertKey(uint64(next)<<32|0x0a010001, uint64(rng.Intn(1<<16))<<24|80<<8|packet.ProtoTCP)
		if err != nil || existed {
			t.Fatalf("InsertKey: existed=%v err=%v", existed, err)
		}
		return h.FID()
	}
	const population, cycles = 2048, 10000
	var peak [ShardCount]int
	check := func(when string) {
		t.Helper()
		for i := range tbl.shards {
			s := &tbl.shards[i] // no writer is running: the counts are read bare
			peak[i] = max(peak[i], s.count)
			for _, ix := range []*index{&s.byKey, &s.byFID} {
				size := len(ix.table.Load().slots)
				if limit := max(minSlots, 4*(peak[i]+1)); size > limit {
					t.Fatalf("%s: shard %d holds %d flows (peak %d) in %d slots, limit %d", when, i, s.count, peak[i], size, limit)
				}
				if s.count+ix.dead >= size && size > 1 {
					t.Fatalf("%s: shard %d: %d live + %d dead slots fill all %d", when, i, s.count, ix.dead, size)
				}
			}
		}
	}
	fids := make([]FID, population)
	for i := range fids {
		fids[i] = insert()
	}
	check("populated")
	before := tbl.Rebuilds()
	for c := 0; c < cycles; c++ {
		i := rng.Intn(population)
		if !tbl.Remove(fids[i]) {
			t.Fatalf("cycle %d: Remove(%v) found nothing", c, fids[i])
		}
		fids[i] = insert()
		if c%64 == 0 {
			check("churning")
		}
	}
	check("churned")
	if tbl.Len() != population {
		t.Fatalf("Len = %d, want %d", tbl.Len(), population)
	}
	if n := tbl.Rebuilds() - before; n > cycles/16 {
		t.Errorf("%d cycles published %d arrays: churn is not absorbed in place", cycles, n)
	}
	for _, fid := range fids {
		tbl.Remove(fid)
	}
	if tbl.Len() != 0 || tbl.DeadSlots() != 0 {
		t.Errorf("drained table reads %d flows, %d dead slots", tbl.Len(), tbl.DeadSlots())
	}
	for i := range tbl.shards {
		if s := &tbl.shards[i]; s.byKey.table.Load() != emptySlots || s.byFID.table.Load() != emptySlots {
			t.Errorf("shard %d is not back on the shared empty array", i)
		}
	}
}

// TestSameHomeFloodSpreads: 1 024 tuples computed to share one FNV home
// — one shard, one FID chain, and one slot if the tuple index were
// placed by that digest — still sit within a few steps of where their
// probes start, because the in-shard position comes from the seeded mix.
// (FID allocation's stride probe is linear in such a flood, as it always
// was.)
func TestSameHomeFloodSpreads(t *testing.T) {
	tbl := NewTable()
	keys := sameHomeKeys(t, 0x1234, 1024)
	for _, k := range keys {
		if _, _, err := tbl.InsertKey(k[0], k[1]); err != nil {
			t.Fatal(err)
		}
	}
	st := tbl.shardFor(0x1234).byKey.table.Load()
	longest, total := 0, 0
	for _, k := range keys {
		word, steps := keyWord(k[0], k[1]), 1
		for i := st.home(word); ; i = (i + 1) & st.mask {
			if e := st.slots[i].e.Load(); e != nil && e.hi == k[0] && e.lo == k[1] {
				break
			}
			if steps++; steps > len(st.slots) {
				t.Fatalf("key %x/%x is not on its probe chain", k[0], k[1])
			}
		}
		longest, total = max(longest, steps), total+steps
	}
	t.Logf("%d same-home flows in %d slots: mean probe %.2f, longest %d", len(keys), len(st.slots), float64(total)/float64(len(keys)), longest)
	if longest > 64 || total > 4*len(keys) {
		t.Errorf("probe lengths: longest %d, mean %.2f — the flood was not spread", longest, float64(total)/float64(len(keys)))
	}
}
