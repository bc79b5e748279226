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

// TestQuickIdleSincePartition: IdleSince splits flows exactly at the
// cutoff.
func TestQuickIdleSincePartition(t *testing.T) {
	f := func(stamps []uint16, cutoff uint16) bool {
		tbl := NewTable()
		want := 0
		for i, s := range stamps {
			ft := packet.FiveTuple{
				SrcIP: packet.IP4(10, 0, byte(i>>8), byte(i)), DstIP: packet.IP4(1, 1, 1, 1),
				SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoTCP,
			}
			h, _, err := tbl.InsertKey(ft.Key())
			if err != nil {
				return false
			}
			h.FoldTouches(0, 0, uint64(s))
			if uint64(s) < uint64(cutoff) {
				want++
			}
		}
		return len(tbl.IdleSince(uint64(cutoff))) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
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
