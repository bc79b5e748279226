package flow

import (
	"hash/fnv"
	"sync"
	"testing"
	"testing/quick"

	"github.com/fastpathnfv/speedybox/internal/packet"
)

func tuple(n uint16) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP: packet.IP4(10, 0, byte(n>>8), byte(n)), DstIP: packet.IP4(10, 1, 0, 1),
		SrcPort: 1000 + n, DstPort: 80, Proto: packet.ProtoTCP,
	}
}

// Lookup returns a snapshot of the entry for a tuple, if tracked (the
// tests' by-value view of Acquire).
func (t *Table) Lookup(ft packet.FiveTuple) (Entry, bool) {
	h, ok := t.Acquire(ft)
	if !ok {
		return Entry{}, false
	}
	return h.e.snapshot(), true
}

func TestHashTupleInRange(t *testing.T) {
	// In range, and the digest WALs, checkpoints and the steerer were
	// written against: hash/fnv over the 13 key bytes.
	f := func(src, dst [4]byte, sp, dp uint16, proto uint8) bool {
		fid := HashTuple(packet.FiveTuple{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: proto})
		ref := fnv.New32a()
		ref.Write(src[:])
		ref.Write(dst[:])
		ref.Write([]byte{byte(sp >> 8), byte(sp), byte(dp >> 8), byte(dp), proto})
		return fid <= MaxFID && fid == FID(ref.Sum32()&MaxFID)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestHashTupleDeterministic(t *testing.T) {
	ft := tuple(7)
	if HashTuple(ft) != HashTuple(ft) {
		t.Error("HashTuple not deterministic")
	}
	// Different tuples should usually hash differently.
	if HashTuple(tuple(1)) == HashTuple(tuple(2)) {
		t.Log("collision between adjacent tuples (allowed but suspicious)")
	}
}

func TestHashSensitivity(t *testing.T) {
	base := tuple(1)
	variants := []packet.FiveTuple{base.Reverse()}
	v := base
	v.Proto = packet.ProtoUDP
	variants = append(variants, v)
	v = base
	v.DstPort = 81
	variants = append(variants, v)
	for i, variant := range variants {
		if HashTuple(variant) == HashTuple(base) {
			t.Logf("variant %d collides with base (possible, but flag it)", i)
		}
	}
}

func TestTableInsertLookup(t *testing.T) {
	tbl := NewTable()
	e, err := tbl.Insert(tuple(1))
	if err != nil {
		t.Fatal(err)
	}
	if e.State != StateHandshake {
		t.Errorf("new entry state = %v, want handshake", e.State)
	}
	got, ok := tbl.Lookup(tuple(1))
	if !ok || got.FID != e.FID {
		t.Errorf("Lookup = (%v, %v)", got, ok)
	}
	if _, ok := tbl.LookupFID(e.FID); !ok {
		t.Error("LookupFID missed")
	}
	if _, ok := tbl.Lookup(tuple(2)); ok {
		t.Error("Lookup found untracked tuple")
	}
	// Re-insert returns the same entry.
	e2, err := tbl.Insert(tuple(1))
	if err != nil {
		t.Fatal(err)
	}
	if e2.FID != e.FID {
		t.Errorf("re-insert changed FID: %v != %v", e2.FID, e.FID)
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d, want 1", tbl.Len())
	}
}

func TestTableRemove(t *testing.T) {
	tbl := NewTable()
	e, _ := tbl.Insert(tuple(1))
	if !tbl.Remove(e.FID) {
		t.Error("Remove returned false for tracked flow")
	}
	if tbl.Remove(e.FID) {
		t.Error("double Remove returned true")
	}
	if _, ok := tbl.Lookup(tuple(1)); ok {
		t.Error("Lookup found removed flow")
	}
	// FID is reusable after removal.
	e2, err := tbl.Insert(tuple(1))
	if err != nil {
		t.Fatal(err)
	}
	if e2.FID != e.FID {
		t.Errorf("slot not reused: %v != %v", e2.FID, e.FID)
	}
}

func TestTableCollisionProbing(t *testing.T) {
	tbl := NewTable()
	// Force a collision: occupy the home slot of tuple(2) with a
	// different tuple by restoring an entry at that FID.
	victim := tuple(2)
	home := HashTuple(victim)
	tbl.RestoreEntry(Entry{FID: home, Tuple: tuple(999), State: StateEstablished})

	e, err := tbl.Insert(victim)
	if err != nil {
		t.Fatal(err)
	}
	if e.FID == home {
		t.Error("collision not probed to a new slot")
	}
	// Probes advance in ShardCount strides so the slot stays in the
	// home shard.
	if e.FID != (home+ShardCount)&MaxFID {
		t.Errorf("probe landed at %v, want next slot %v", e.FID, (home+ShardCount)&MaxFID)
	}
	if uint32(e.FID)&shardMask != uint32(home)&shardMask {
		t.Errorf("probe left the home shard: %v vs %v", e.FID, home)
	}
	// Both flows remain independently addressable.
	if got, _ := tbl.Lookup(victim); got.FID != e.FID {
		t.Error("victim lookup broken after probing")
	}
	if got, _ := tbl.LookupFID(home); got.Tuple != tuple(999) {
		t.Error("squatter lookup broken after probing")
	}
}

// TestTableReturnsCopies: the entries returned by Lookup, LookupFID
// and Insert are value snapshots — mutating them must not affect the
// table, and later Updates must not be visible through an old
// snapshot (regression for the escaped-*Entry data race).
func TestTableReturnsCopies(t *testing.T) {
	tbl := NewTable()
	e, err := tbl.Insert(tuple(1))
	if err != nil {
		t.Fatal(err)
	}
	e.State = StateClosed
	if got, _ := tbl.Lookup(tuple(1)); got.State != StateHandshake {
		t.Errorf("mutating the Insert snapshot leaked into the table: %+v", got)
	}
	snap, _ := tbl.LookupFID(e.FID)
	h, _ := tbl.Acquire(tuple(1))
	h.SetState(StateEstablished, tbl.Seen())
	if snap.State != StateHandshake {
		t.Error("a write through the handle mutated a previously returned snapshot")
	}
	if got, _ := tbl.LookupFID(e.FID); got.State != StateEstablished {
		t.Errorf("write lost: %+v", got)
	}
}

// TestTableSnapshotRace drives concurrent Lookup readers against a
// writer updating the flow's state word through its handle — the
// classifier's state machine and the fast path's seen stamp across
// sweeps; under -race this fails on the seed code, where lookups
// returned live pointers into the table.
func TestTableSnapshotRace(t *testing.T) {
	tbl := NewTable()
	e, err := tbl.Insert(tuple(1))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sink State
			for {
				select {
				case <-stop:
					_ = sink
					return
				default:
				}
				if got, ok := tbl.LookupFID(e.FID); ok {
					sink += got.State
				}
			}
		}()
	}
	h, _ := tbl.Acquire(tuple(1))
	for i := 0; i < 5000; i++ {
		h.SetState(StateEstablished, tbl.Seen())
		if !h.Touch(tbl.Seen()) {
			t.Fatal("an established flow failed the shape gate")
		}
		if i%100 == 0 {
			tbl.Sweep(uint64(i), 1<<40)
		}
	}
	close(stop)
	wg.Wait()
}

func TestTableUpdate(t *testing.T) {
	tbl := NewTable()
	e, _ := tbl.Insert(tuple(1))
	h, ok := tbl.Acquire(tuple(1))
	if !ok || h.FID() != e.FID {
		t.Fatal("Acquire missed the tracked flow")
	}
	if h.Touch(tbl.Seen()) {
		t.Error("a handshake-state flow passed the fast path's shape gate")
	}
	h.SetState(StateEstablished, tbl.Seen())
	got, _ := tbl.LookupFID(e.FID)
	if got.State != StateEstablished || !h.Touch(tbl.Seen()) {
		t.Errorf("entry after update = %+v", got)
	}
	if _, ok := tbl.Acquire(tuple(2)); ok {
		t.Error("Acquire returned a handle for an untracked tuple")
	}
}

func TestTableConcurrent(t *testing.T) {
	tbl := NewTable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ft := tuple(uint16(g*200 + i))
				e, err := tbl.Insert(ft)
				if err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
				h, ok := tbl.Acquire(ft)
				if !ok || h.FID() != e.FID {
					t.Error("concurrent Acquire missed own insert")
					return
				}
				h.SetState(StateEstablished, tbl.Seen())
			}
		}(g)
	}
	wg.Wait()
	if tbl.Len() != 1600 {
		t.Errorf("Len = %d, want 1600", tbl.Len())
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StateHandshake:   "handshake",
		StateEstablished: "established",
		StateClosed:      "closed",
	} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
	if State(0).String() == "handshake" {
		t.Error("zero State must not alias a real state (enums start at one)")
	}
}

func TestFIDString(t *testing.T) {
	if FID(0xabc).String() != "fid:00abc" {
		t.Errorf("FID.String() = %q", FID(0xabc).String())
	}
}

func TestFIDStringAllocs(t *testing.T) {
	// The hand-rolled hex formatter must cost at most the one
	// unavoidable allocation: the returned string (stored to a sink so
	// escape analysis cannot elide it; fmt.Sprintf would cost three).
	fid := FID(0xdeadb)
	if allocs := testing.AllocsPerRun(100, func() {
		fidStringSink = fid.String()
	}); allocs > 1 {
		t.Errorf("FID.String() allocates %.1f objects/op, want at most 1", allocs)
	}
}

var fidStringSink string
