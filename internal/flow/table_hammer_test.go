package flow

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"github.com/fastpathnfv/speedybox/internal/packet"
)

// sameHomeKeys returns n distinct packed 5-tuples whose FNV home is
// home. FNV-1a's low FIDBits are closed under its own step — (h^b)*p
// mod 2^20, p odd, so each step inverts — which lets the digest be run
// backwards from home over the ten trailing key bytes and the three
// leading ones be solved for: what an attacker computes to pile flows
// onto one FID chain and, were the tuple index unkeyed, onto one slot.
func sameHomeKeys(t testing.TB, home FID, n int) [][2]uint64 {
	t.Helper()
	pinv := uint32(fnvPrime32) // Newton: p's inverse mod 2^32
	for i := 0; i < 5; i++ {
		pinv *= 2 - fnvPrime32*pinv
	}
	// lead[s>>8] is a pair of leading bytes after which the digest's low
	// 20 bits are s; the third byte then reaches any state sharing s's
	// upper 12.
	var lead [1 << 12]struct {
		s      uint32
		b0, b1 byte
		ok     bool
	}
	for b := uint32(0); b < 1<<16; b++ {
		s := (uint32(fnvOffset32) ^ b>>8) * fnvPrime32
		s = (s ^ b&0xff) * fnvPrime32 & MaxFID
		l := &lead[s>>8]
		l.s, l.b0, l.b1, l.ok = s, byte(b>>8), byte(b), true
	}
	keys := make([][2]uint64, 0, n)
	for c := uint32(0); len(keys) < n; c++ {
		// SrcIP[3] and SrcPort carry the counter.
		k := [13]byte{0, 0, 0, byte(c >> 16), 10, 1, 0, 1, byte(c >> 8), byte(c), 0, 80, packet.ProtoUDP}
		s := uint32(home)
		for i := 12; i >= 3; i-- {
			s = (s*pinv ^ uint32(k[i])) & MaxFID
		}
		y := s * pinv & MaxFID // the state after two bytes, xor the third
		l := lead[y>>8]
		if !l.ok {
			continue
		}
		k[0], k[1], k[2] = l.b0, l.b1, byte(l.s^y)
		hi, lo := binary.BigEndian.Uint64(k[:8]), uint64(binary.BigEndian.Uint32(k[8:12]))<<8|uint64(k[12])
		if HashKey(hi, lo) != home {
			t.Fatalf("constructed key %x/%x hashes to %v, want %v", hi, lo, HashKey(hi, lo), home)
		}
		keys = append(keys, [2]uint64{hi, lo})
	}
	return keys
}

// TestFlowTableHammer drives the flow table's lock-free readers against
// InsertKey, Remove and RestoreEntry, and the growth, compaction and
// tombstone re-keying they cause, and checks what a reader may rely on.
// Every key has one of four FNV homes, so four shards carry the whole
// run and same-home flows take turns on the same FIDs: FID-index slots
// are re-keyed to other flows' entries all the time. A fifth group, the
// twins, shares one tuple-index tag: the seeded mix multiplies hi^seed
// by lo^seed, so every key whose hi is the seed word itself mixes to the
// same word — nothing a sender who cannot read the seed can aim at, but
// the test can, and a probe for one twin walks past the others' slots on
// nothing but the confirmation.
//
// Resident keys are inserted once and never removed: from then on every
// probe must find them. Churn keys have one writer each, which walks
// its range with a window of tracked flows behind it and brackets each
// operation in a per-key seqlock word — version, kind of operation, busy
// bit — so a reader whose probe raced none knows what it must return.
// Black-box readers check, through the exported lookups, that a handle
// is for the key asked (the confirmation on the entry's own key) and
// that presence matches the last completed operation.
//
// The observer checks the store order, which no lookup can see — a
// reader treats a nil entry as a miss and confirms every hit, so either
// order returns right answers; the order is what makes "a live key has
// its entry behind it" true at every instant, the MAT's invariant. It
// reads the raw slot of the key a writer is on (twins aside: only a key
// whose word is its own owns the slots keyed with it). While only an
// insert of that key can be in flight, key-then-entry must not read
// (live, nil): the entry is stored before the key turns live. While only
// a removal can be, entry-then-key must not read (nil, live): the key
// turns dead before the entry is cleared.
func TestFlowTableHammer(t *testing.T) {
	tbl := NewTable()
	const (
		homes    = 4
		resident = 64  // per home
		churn    = 512 // per home
		window   = 48  // tracked churn flows behind each writer
		writers  = 2
		// Seqlock word: version<<3 | kind<<1 | busy.
		kindInsert, kindRemove, kindRestore = 0, 1, 2
	)
	var keys [][2]uint64 // per group: resident keys, then churn keys
	for h := 0; h < homes; h++ {
		keys = append(keys, sameHomeKeys(t, FID(0x4d2a0+h), resident+churn)...)
	}
	const twins, twinResident = 64, 8
	for lo := uint64(packet.ProtoUDP); len(keys) < homes*(resident+churn)+twins; lo += 1 << 8 {
		if HashKey(keySeed[0], lo)&shardMask == 9 { // one shard, its arrays theirs alone
			keys = append(keys, [2]uint64{keySeed[0], lo})
		}
	}
	if a, b := keys[len(keys)-1], keys[len(keys)-2]; keyWord(a[0], a[1]) != keyWord(b[0], b[1]) {
		t.Fatal("twin keys do not share a key word")
	}
	isResident := func(i int) bool {
		if i -= homes * (resident + churn); i >= 0 {
			return i < twinResident
		}
		return (i+homes*(resident+churn))%(resident+churn) < resident
	}
	var churnIdx []int
	for i := range keys {
		if !isResident(i) {
			churnIdx = append(churnIdx, i)
		}
	}
	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		shadow  = make([]atomic.Uint64, len(keys))
		present = make([]atomic.Bool, len(keys)) // residents: inserted
		cursor  [writers]atomic.Uint32           // the key each writer is operating on
		doomed  [writers]atomic.Uint32           // the key it removes next: the observer waits there
		cycles  atomic.Uint64
	)
	for i := range shadow {
		shadow[i].Store(kindRemove << 1) // churn keys start absent
	}

	wg.Add(1)
	go func() { // residents arrive while readers already probe: growth is raced
		defer wg.Done()
		for i := range keys {
			if isResident(i) {
				if _, _, err := tbl.InsertKey(keys[i][0], keys[i][1]); err != nil {
					t.Error(err)
				}
				present[i].Store(true)
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			mine := churnIdx[w*len(churnIdx)/writers : (w+1)*len(churnIdx)/writers]
			op := func(i int, kind uint64, do func(hi, lo uint64)) {
				cursor[w].Store(uint32(i))
				ver := shadow[i].Load()>>3 + 1
				shadow[i].Store(ver<<3 | kind<<1 | 1)
				do(keys[i][0], keys[i][1])
				shadow[i].Store(ver<<3 | kind<<1)
			}
			insert := func(hi, lo uint64) {
				if _, existed, err := tbl.InsertKey(hi, lo); err != nil || existed {
					t.Errorf("InsertKey of an absent key: existed=%v err=%v", existed, err)
				}
			}
			remove := func(hi, lo uint64) {
				if h, ok := tbl.AcquireKey(hi, lo); !ok || !tbl.Remove(h.FID()) {
					t.Error("Remove of a tracked key found nothing")
				}
			}
			restore := func(hi, lo uint64) {
				en, _ := tbl.Lookup(packet.KeyTuple(hi, lo))
				tbl.RestoreEntry(en)
			}
			for n := 0; !stop.Load(); n++ {
				if n >= window {
					doomed[w].Store(uint32(mine[(n-window)%len(mine)]))
				}
				op(mine[n%len(mine)], kindInsert, insert)
				if rng.Intn(8) == 0 {
					op(mine[n%len(mine)], kindRestore, restore)
				}
				if n >= window {
					op(mine[(n-window)%len(mine)], kindRemove, remove)
				}
				cycles.Add(1)
			}
			for n := 0; n < len(mine); n++ { // leave nothing behind
				if shadow[mine[n]].Load()>>1&3 != kindRemove {
					op(mine[n], kindRemove, remove)
				}
			}
		}(w)
	}

	var (
		badKey, badFID, lostResident, badOwned, badOrder atomic.Uint64
		hits, ownedChecks, midInsert, midRemove          atomic.Uint64
	)
	pick := func(rng *rand.Rand) int {
		if rng.Intn(2) == 0 {
			return int(cursor[rng.Intn(writers)].Load()) // chase a writer
		}
		return rng.Intn(len(keys))
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for !stop.Load() {
				i := pick(rng)
				hi, lo := keys[i][0], keys[i][1]
				wasPresent, s0 := present[i].Load(), shadow[i].Load()
				h, ok := tbl.AcquireKey(hi, lo)
				if ok {
					hits.Add(1)
					if h.e.hi != hi || h.e.lo != lo {
						badKey.Add(1)
					}
					if en, ok := tbl.LookupFID(h.FID()); ok && en.FID != h.FID() {
						badFID.Add(1)
					}
				}
				if isResident(i) {
					if wasPresent && !ok {
						lostResident.Add(1)
					}
				} else if s0&1 == 0 && shadow[i].Load() == s0 {
					ownedChecks.Add(1)
					if ok != (s0>>1&3 != kindRemove) {
						badOwned.Add(1)
					}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() { // the observer
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for !stop.Load() {
			i := int(cursor[rng.Intn(writers)].Load())
			if rng.Intn(2) == 0 {
				i = int(doomed[rng.Intn(writers)].Load())
			}
			if isResident(i) || i >= homes*(resident+churn) {
				continue // a twin: slots keyed its word are not its alone
			}
			hi, lo := keys[i][0], keys[i][1]
			word := keyWord(hi, lo)
			st := tbl.shardFor(HashKey(hi, lo)).byKey.table.Load()
			sl, _ := st.findKey(word, hi, lo)
			if sl == nil {
				sl = st.free(word) // where an insert would key it
			}
			for burst := 0; burst < 64; burst++ {
				s0 := shadow[i].Load()
				k1, e, k2 := sl.key.Load(), sl.e.Load(), sl.key.Load()
				if shadow[i].Load()>>1 != s0>>1 {
					break // another operation on the key began
				}
				switch s0 >> 1 & 3 {
				case kindInsert:
					midInsert.Add(s0 & 1)
					if k1 == word && e == nil {
						badOrder.Add(1)
					}
				case kindRemove:
					midRemove.Add(s0 & 1)
					if e == nil && k2 == word {
						badOrder.Add(1)
					}
				}
			}
		}
	}()

	// A wall-clock window, as the Global MAT's hammer: the point is
	// scheduler interleaving, not an operation count. It stretches, up to
	// 3 s, on a host too busy to have raced compaction and let the
	// observer into both kinds of operation by then.
	for start := time.Now(); ; {
		time.Sleep(50 * time.Millisecond)
		covered := tbl.Rebuilds() >= 64 && ownedChecks.Load() > 0 && midInsert.Load() > 0 && midRemove.Load() > 0
		if d := time.Since(start); d >= 3*time.Second || (d >= 400*time.Millisecond && covered) {
			break
		}
	}
	stop.Store(true)
	wg.Wait()

	for _, c := range []struct {
		n    *atomic.Uint64
		what string
	}{
		{&badKey, "handles were for another key than the one asked"},
		{&badFID, "LookupFID hits were for another FID"},
		{&lostResident, "probes missed a flow that was inserted and never removed"},
		{&badOwned, "unraced probes disagreed with the last completed operation"},
		{&badOrder, "raw slot reads saw a live key without its entry"},
	} {
		if n := c.n.Load(); n != 0 {
			t.Errorf("%d %s", n, c.what)
		}
	}
	t.Logf("%d hits, %d owned checks, observer reads inside %d inserts and %d removals; %d writer cycles, %d arrays published, %d dead slots",
		hits.Load(), ownedChecks.Load(), midInsert.Load(), midRemove.Load(), cycles.Load(), tbl.Rebuilds(), tbl.DeadSlots())
	if hits.Load() == 0 || ownedChecks.Load() == 0 {
		t.Error("hammer did not exercise the read side")
	}
	// Every cycle buries two slots; a shard's budget is a few dozen.
	if tbl.Rebuilds() < 32 {
		t.Errorf("%d writer cycles published only %d arrays: compaction was not raced", cycles.Load(), tbl.Rebuilds())
	}
	if n := tbl.Len(); n != homes*resident+twinResident {
		t.Errorf("Len = %d after the churn keys left, want the %d residents", n, homes*resident+twinResident)
	}
	for i := range keys {
		if h, ok := tbl.AcquireKey(keys[i][0], keys[i][1]); ok {
			tbl.Remove(h.FID())
		}
	}
	if tbl.Len() != 0 || tbl.DeadSlots() != 0 {
		t.Errorf("emptied table reads %d flows, %d dead slots", tbl.Len(), tbl.DeadSlots())
	}
}

// TestTrackedSizeClass pins the flow entry to the 64-byte size class —
// one cache line: the packed key, the two record words and the state
// word take 40 bytes, the plain rule's summary 16 more, and the pad keeps
// the entry out of the 48-byte class, where two entries in three would
// straddle two cache lines. The summary must lie inside the line: a
// packet served from it loads nothing but the entry.
func TestTrackedSizeClass(t *testing.T) {
	var e tracked
	if n := unsafe.Sizeof(e); n != 64 {
		t.Errorf("tracked is %d bytes, want 64", n)
	}
	for _, w := range []struct {
		name     string
		off, len uintptr
	}{
		{"plain", unsafe.Offsetof(e.plain), unsafe.Sizeof(e.plain)},
		{"price", unsafe.Offsetof(e.price), unsafe.Sizeof(e.price)},
	} {
		if w.off+w.len > 64 {
			t.Errorf("summary word %s at bytes %d-%d, outside the entry's line", w.name, w.off, w.off+w.len)
		}
	}
}
