// Package flow implements flow identification and tracking for
// SpeedyBox: the 20-bit FID derived from the 5-tuple (paper §VI-B),
// and the flow table the Packet Classifier uses to distinguish initial
// from subsequent packets and to tear down rules on TCP FIN/RST. The
// table is the paper's "hash the 5-tuple, find the FID": two
// open-addressing slot arrays a shard (by packed 5-tuple, by FID) that
// writers mutate in place under the shard mutex and readers probe with
// no lock, handing out Handles through which a flow's state is read and
// written with no lock either (DESIGN §16). The entry is
// also the flow's one record: it carries two opaque words — the flow's
// consolidated rule, cast only by package mat, and its recording, cast
// only by package event — so the lookup that finds the flow has found
// its actions too, and tearing the flow down is one unlink.
package flow

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/fastpathnfv/speedybox/internal/packet"
)

// FIDBits is the width of the flow identifier. 20 bits represent more
// than one million concurrent flows (paper §VI-B); the width is a
// constant here but the table handles collisions by probing, so the
// design extends to wider FIDs unchanged.
const FIDBits = 20

// MaxFID is the largest representable FID.
const MaxFID = 1<<FIDBits - 1

// ShardCount is the number of independently locked table shards. It
// must be a power of two so a FID's low bits select its shard; probing
// advances in ShardCount strides, which keeps every candidate slot of
// a tuple inside one shard and lets lookups, inserts and removals for
// disjoint FIDs proceed on different cores without contention.
const ShardCount = 32

const shardMask = ShardCount - 1

// FID is a flow identifier. It stays attached to the packet descriptor
// as metadata, so it remains consistent along the chain even when NFs
// rewrite the 5-tuple.
type FID uint32

const hexDigits = "0123456789abcdef"

// String renders the FID in hex. It is hot when the flight recorder
// journals rule transitions, so the 5 nibbles are appended by hand:
// one fixed-size stack buffer and a single string allocation instead
// of fmt's reflection-driven formatting.
func (f FID) String() string {
	var b [9]byte
	b[0], b[1], b[2], b[3] = 'f', 'i', 'd', ':'
	v := uint32(f)
	for i := 0; i < 5; i++ {
		b[8-i] = hexDigits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// FNV-1a 32-bit parameters.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// HashTuple maps a 5-tuple to its home FID slot: HashKey of its packed
// key. Collisions are resolved by the Table, not here.
func HashTuple(ft packet.FiveTuple) FID { return HashKey(ft.Key()) }

// HashKey maps a packed two-word flow key (packet.FlowKey's encoding:
// hi = SrcIP‖DstIP big-endian, lo = SrcPort‖DstPort‖Proto) to its home
// FID: the FNV-1a digest of the 13 key bytes (the same as hash/fnv's,
// with no hasher allocated), masked to FIDBits. The flow table and the
// cluster steerer both call it on the key straight off the wire, so the
// steering decision agrees with the owning instance's flow table.
func HashKey(hi, lo uint64) FID {
	h := uint32(fnvOffset32)
	h = (h ^ uint32(byte(hi>>56))) * fnvPrime32 // SrcIP
	h = (h ^ uint32(byte(hi>>48))) * fnvPrime32
	h = (h ^ uint32(byte(hi>>40))) * fnvPrime32
	h = (h ^ uint32(byte(hi>>32))) * fnvPrime32
	h = (h ^ uint32(byte(hi>>24))) * fnvPrime32 // DstIP
	h = (h ^ uint32(byte(hi>>16))) * fnvPrime32
	h = (h ^ uint32(byte(hi>>8))) * fnvPrime32
	h = (h ^ uint32(byte(hi))) * fnvPrime32
	h = (h ^ uint32(byte(lo>>32))) * fnvPrime32 // SrcPort
	h = (h ^ uint32(byte(lo>>24))) * fnvPrime32
	h = (h ^ uint32(byte(lo>>16))) * fnvPrime32 // DstPort
	h = (h ^ uint32(byte(lo>>8))) * fnvPrime32
	h = (h ^ uint32(byte(lo))) * fnvPrime32 // Proto
	return FID(h & MaxFID)
}

// State is the lifecycle of a tracked flow.
type State int

// Flow lifecycle states. For TCP, a flow becomes Established once the
// 3-way handshake completes; the packet after that is the "initial
// packet" in the paper's sense (§III). UDP flows are established by
// their first packet.
const (
	// StateHandshake covers TCP SYN / SYN-ACK / ACK exchange.
	StateHandshake State = iota + 1
	// StateEstablished means the connection is up; the first
	// established-state packet is the flow's initial packet.
	StateEstablished
	// StateClosed means FIN or RST was seen; rules are torn down.
	StateClosed
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateHandshake:
		return "handshake"
	case StateEstablished:
		return "established"
	case StateClosed:
		return "closed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Entry is the tracked state of one flow as a plain value snapshot.
// LookupFID, Insert and Snapshot return it by value: callers always see
// a self-consistent copy, and no mutable table state escapes. It counts
// nothing (Monitor counts flows that want it), and its seen epoch, which
// only Table.Sweep reads, is stamped afresh wherever it is restored.
type Entry struct {
	FID   FID
	Tuple packet.FiveTuple
	State State
}

// tracked is the table's internal representation of one flow,
// allocated once and never moved, so a Handle survives any rebuild of
// the slot arrays that index it. The identity fields (fid and the packed
// 5-tuple hi/lo) are immutable: a lock-free probe confirms its hit on
// them. The state word is read and written through a Handle with no
// lock; the rule, rec and summary words are loaded with no lock and stored
// only through an Edit, under the shard mutex. A fast-path packet stores
// nothing but the seen stamp a sweep asks of each flow (Handle.Touch).
type tracked struct {
	hi, lo uint64
	rule   unsafe.Pointer // the consolidated rule; nil: none
	rec    unsafe.Pointer // the recording; nil: none
	fid    FID
	// bits is the State in its low stateBits (zero: a detached entry,
	// which no tuple maps to), the three flags above them and the seen
	// epoch above those.
	bits atomic.Uint32
	// plain is a plain rule's epoch + 1 (0: none), price FixedCycles<<32|HeaderCycles.
	plain, price atomic.Uint64
	// The pad keeps the 64-byte size class, one cache line: in the 48-byte
	// class two entries in three straddle two (TestTrackedSizeClass).
	_ [8]byte
}

const (
	stateBits = 2
	stateMask = 1<<stateBits - 1
	// staleBit says the rule word must not be served: set and cleared
	// under the shard mutex, like the word it qualifies.
	staleBit = 1 << stateBits
	// claimBit is the recording gate: whoever sets it records the flow.
	claimBit = staleBit << 1
	// goneBit says the entry is unlinked (Gone).
	goneBit = claimBit << 1
	// The seen epoch (Table.Sweep) fills the bits above the flags:
	// seenMask in place, epochMask shifted down.
	seenShift        = 5
	seenMask  uint32 = 1<<32 - 1<<seenShift
	epochMask        = seenMask >> seenShift
)

// setBits stores (bits &^ clear) | set. The word has two kinds of
// writer — the flow's classifier and whoever edits its record — so every
// store is a compare-and-swap.
func (e *tracked) setBits(clear, set uint32) {
	for {
		old := e.bits.Load()
		if e.bits.CompareAndSwap(old, old&^clear|set) {
			return
		}
	}
}

// snapshot copies the entry into a plain value.
func (e *tracked) snapshot() Entry {
	return Entry{FID: e.fid, Tuple: packet.KeyTuple(e.hi, e.lo), State: State(e.bits.Load() & stateMask)}
}

// Handle is a stable, lock-free reference to a tracked flow. A batch
// worker resolves a vector's packets of one flow to one handle, served
// while its entry is not Gone, so a packet after the first of its flow
// in a vector looks at the flow with a few loads — no lock, no probe, no
// hashing, no store. The zero Handle is invalid.
type Handle struct{ e *tracked }

// FID returns the flow's identifier.
func (h Handle) FID() FID { return h.e.fid }

// State returns the flow's lifecycle state, SetState stores it with
// the stamp Table.Seen returns: the two halves of the classifier's state
// machine, the flow's one writer.
func (h Handle) State() State                  { return State(h.e.bits.Load() & stateMask) }
func (h Handle) SetState(s State, seen uint32) { h.e.setBits(stateMask|seenMask, uint32(s)|seen) }

// Rule loads the entry's rule word, stale or not; Rec its recording.
func (h Handle) Rule() unsafe.Pointer { return atomic.LoadPointer(&h.e.rule) }
func (h Handle) Rec() unsafe.Pointer  { return atomic.LoadPointer(&h.e.rec) }

// Stale reports whether the rule word is marked not to be served.
func (h Handle) Stale() bool { return h.e.bits.Load()&staleBit != 0 }

// LiveRule loads the rule word unless it is marked stale; the zero
// Handle has none. The flag is read first: an install over a stale rule
// stores the rule before it clears the flag, so a reader that saw the
// flag clear loads the rule that cleared it, never the stale one it
// replaced.
func (h Handle) LiveRule() unsafe.Pointer {
	if h.e == nil || h.Stale() {
		return nil
	}
	return h.Rule()
}

// Plain reads the price of a live plain rule of epoch: the stale flag, as
// LiveRule does, then a seqlock over the one price word — epoch, price, epoch.
func (h Handle) Plain(epoch uint64) (fixed, header uint64, ok bool) {
	stale, tag, price := h.Stale(), h.e.plain.Load(), h.e.price.Load()
	if stale || tag != epoch+1 || h.e.plain.Load() != tag {
		return 0, 0, false
	}
	return price >> 32, uint64(uint32(price)), true
}

// Detached reports an entry no tuple maps to: one that exists only to
// hold words for a FID no flow holds (see Table.Edit).
func (h Handle) Detached() bool { return h.e.bits.Load()&stateMask == 0 }

// Gone reports an entry the table has unlinked; its words stay empty.
func (h Handle) Gone() bool { return h.e.bits.Load()&goneBit != 0 }

// Claim takes the flow's recording gate, reporting false if it is held;
// Unclaim gives it back. The gate lives and dies with the entry.
func (h Handle) Claim() bool {
	for {
		old := h.e.bits.Load()
		if old&claimBit != 0 {
			return false
		}
		if h.e.bits.CompareAndSwap(old, old|claimBit) {
			return true
		}
	}
}
func (h Handle) Unclaim() { h.e.setBits(claimBit, 0) }

// Touch is the fast path's shape gate: it reports whether the flow is
// established and stamps it with seen (Table.Seen) if a sweep has moved
// the epoch since — one load a packet, one compare-and-swap a flow a
// sweep, however many of its packets a worker's context serves.
func (h Handle) Touch(seen uint32) bool {
	b := h.e.bits.Load()
	established := b&stateMask == uint32(StateEstablished)
	if established && b&seenMask != seen {
		h.e.setBits(seenMask, seen)
	}
	return established
}

// ErrTableFull reports FID space exhaustion.
var ErrTableFull = errors.New("flow: FID space exhausted")

// Slot states, the low slotStateBits of a slot's key word.
const (
	slotEmpty uint64 = iota // never keyed: probes stop here
	slotDead                // removed: a tombstone probes walk past, and any flow may re-key
	slotLive                // holds a tracked flow
)

const (
	slotStateBits = 2
	slotStateMask = 1<<slotStateBits - 1
)

// slot is one slot of an index: the key word packs a tag with the slot
// state, so a probe step is one load that resolves occupancy and, all
// but surely, key match; the entry is loaded only on a tag match.
type slot struct {
	key atomic.Uint64 // tag<<slotStateBits | state; 0 while empty
	e   atomic.Pointer[tracked]
}

// slotTable is one index of one shard: a power-of-two slot array probed
// linearly, tagged with a seeded mix of the packed 5-tuple (keyWord) in
// the tuple index and with the FID (fidWord) in the FID index. The
// publication protocol (DESIGN §16): writers, serialized by the shard
// mutex, mutate a published array in place under lock-free readers; an
// entry is stored before its key turns live and a key turns dead before
// its entry is cleared; a fresh array is built only when live plus dead
// slots reach 3/4 load; and a reader confirms every hit on the entry's
// own immutable key, so it is never handed another flow's entry and any
// flow may re-key a tombstone.
type slotTable struct {
	slots []slot
	mask  uint32 // len(slots)-1
}

// emptySlots is the shared array of an empty index: one slot that is
// never keyed (the first insert grows past it), so probes terminate
// immediately and every shard of every Table can share it.
var emptySlots = &slotTable{slots: make([]slot, 1)}

// keySeed keys the tuple index's hash, drawn once per process. A flow's
// shard and FID come from unkeyed FNV — WALs, checkpoints and the
// steerer need them to repeat — which anyone can compute; its slot and
// tag inside the shard need the seed, so tuples chosen to share an FNV
// home still spread over the array.
var keySeed = [2]uint64{rand.Uint64(), rand.Uint64()}

// keyWord is a packed 5-tuple's live key word in the tuple index: two
// rounds of wyhash's seeded 64x64->128 multiply-fold, cut to 62 bits.
func keyWord(hi, lo uint64) uint64 {
	a, b := bits.Mul64(hi^keySeed[0], lo^keySeed[1])
	a, b = bits.Mul64(a^keySeed[1], b^keySeed[0])
	return (a^b)<<slotStateBits | slotLive
}

// fidWord is the live key word of a FID in the FID index.
func fidWord(fid FID) uint64 { return uint64(fid)<<slotStateBits | slotLive }

// home is where a key word's probe chain starts: the upper, well-mixed
// half of a multiplicative hash (a shard's FIDs agree on their low bits).
func (t *slotTable) home(word uint64) uint32 {
	return uint32((word>>slotStateBits)*0x9e3779b97f4a7c15>>32) & t.mask
}

// findKey returns the slot and entry of the packed 5-tuple (hi, lo),
// whose key word is word, or nils. The probe always terminates: writers
// keep live plus dead slots strictly below capacity.
func (t *slotTable) findKey(word, hi, lo uint64) (*slot, *tracked) {
	for i := t.home(word); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		switch s.key.Load() {
		case slotEmpty:
			return nil, nil
		case word:
			if e := s.e.Load(); e != nil && e.hi == hi && e.lo == lo {
				return s, e
			}
		}
	}
}

// findFID is findKey for the FID index.
func (t *slotTable) findFID(fid FID) (*slot, *tracked) {
	word := fidWord(fid)
	for i := t.home(word); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		switch s.key.Load() {
		case slotEmpty:
			return nil, nil
		case word:
			if e := s.e.Load(); e != nil && e.fid == fid {
				return s, e
			}
		}
	}
}

// free returns the first slot of word's probe chain that holds no flow:
// a tombstone, or the empty slot that ends the chain.
func (t *slotTable) free(word uint64) *slot {
	i := t.home(word)
	for t.slots[i].key.Load()&slotStateMask == slotLive {
		i = (i + 1) & t.mask
	}
	return &t.slots[i]
}

// minSlots is the size of the smallest array a rebuild returns.
const minSlots = 8

// rebuild returns an unpublished array holding t's live slots, sized
// for n flows at no more than half load: a compaction buys a tombstone
// budget of a quarter of the array or more — at 3/4 it would compact
// again within a few inserts — and growth from 3/4 load exactly doubles.
func (t *slotTable) rebuild(n int) *slotTable {
	size := minSlots
	for size < 2*n {
		size *= 2
	}
	nt := &slotTable{slots: make([]slot, size), mask: uint32(size - 1)}
	for i := range t.slots {
		if k := t.slots[i].key.Load(); k&slotStateMask == slotLive {
			s := nt.free(k)
			s.e.Store(t.slots[i].e.Load())
			s.key.Store(k)
		}
	}
	return nt
}

// index is one published slot array and, under the shard mutex, its
// tombstone count and the wiped minSlots array it last retired.
type index struct {
	table atomic.Pointer[slotTable]
	dead  int
	spare *slotTable
}

// tableShardCore is the hot state of one shard: the write-serializing
// mutex, the two indexes of its entries — both point at the same
// *tracked, so a tuple lookup is one probe, not tuple→FID→entry — and
// what the entries hold, counted. Everything but the two table pointers
// is the mutex's: an insert or removal pays for its slot stores and no
// other atomic.
type tableShardCore struct {
	mu    sync.Mutex
	byKey index
	byFID index
	// count is the flows, in both indexes; detached the entries in byFID
	// alone.
	count, detached int
	// rules, stale and recs count the entries whose rule word is set,
	// whose rule is stale-marked, and whose rec word is set.
	rules, stale, recs int
}

// tableShard pads the core to a full cache-line multiple, sized from
// the real field layout so the pad survives field changes.
type tableShard struct {
	tableShardCore
	_ [(cacheLine - unsafe.Sizeof(tableShardCore{})%cacheLine) % cacheLine]byte
}

// cacheLine is the coherence granule the shard padding targets.
const cacheLine = 64

// Table tracks flows and allocates collision-free FIDs by linear
// probing in FID space: a flow whose home slot is taken by a different
// 5-tuple gets the next free slot in its shard (probes advance by
// ShardCount, preserving the shard index). The table is sharded by the
// FID's low bits; lookups by tuple or FID are lock-free probes of the
// shard's slot arrays, and inserts and removals of disjoint flows take
// disjoint mutexes — the multi-queue platform drives it from one
// goroutine per RSS queue.
type Table struct {
	shards [ShardCount]tableShard
	// seen is the current seen epoch's stamp (Seen).
	seen atomic.Uint32
	// rebuilds counts slot arrays published: growth, compaction, and the
	// hand-back to emptySlots when a shard empties.
	rebuilds atomic.Uint64
	sweep    sweeper
}

// NewTable returns an empty flow table.
func NewTable() *Table {
	t := &Table{}
	for i := range t.shards {
		t.shards[i].byKey.table.Store(emptySlots)
		t.shards[i].byFID.table.Store(emptySlots)
	}
	return t
}

// Seen returns the current seen epoch's stamp, for Touch and SetState.
func (t *Table) Seen() uint32 { return t.seen.Load() }

// shardFor returns the shard owning a FID (equivalently: the shard
// owning every probe slot of the tuple hashing to that FID).
func (t *Table) shardFor(fid FID) *tableShard {
	return &t.shards[uint32(fid)&shardMask]
}

// publish swaps a fresh, tombstone-free array into an index.
func (t *Table) publish(ix *index, st *slotTable) {
	ix.table.Store(st)
	ix.dead = 0
	t.rebuilds.Add(1)
}

// put keys a free slot of word's chain in ix with word and e, a key the
// caller has found absent; n is the shard's flow count before it.
func (t *Table) put(ix *index, word uint64, e *tracked, n int) {
	st := ix.table.Load()
	s := st.free(word)
	if s.key.Load() != slotEmpty {
		ix.dead--
	} else if n+ix.dead+1 >= len(st.slots)-len(st.slots)/4 {
		// Keying one more slot must not bring live plus dead to 3/4 load.
		if n == 0 && ix.spare != nil {
			st, ix.spare = ix.spare, nil
		} else {
			st = st.rebuild(n + 1)
		}
		t.publish(ix, st)
		s = st.free(word)
	}
	s.e.Store(e)
	s.key.Store(word)
}

// link enters the flow e into both of s's indexes.
func (t *Table) link(s *tableShard, e *tracked) {
	t.put(&s.byFID, fidWord(e.fid), e, s.count+s.detached)
	t.put(&s.byKey, keyWord(e.hi, e.lo), e, s.count)
	s.count++
}

// bury turns ix's slot sl into a tombstone.
func (ix *index) bury(sl *slot) {
	sl.key.Store(slotDead)
	sl.e.Store(nil)
	ix.dead++
}

// retire hands ix's array back for the shared empty one: its shard has
// emptied. A minSlots array is wiped and kept as the spare, so a
// connection on an idle engine allocates its entry and no array; a
// reader still probing it finds nothing, as one racing the removal may.
func (t *Table) retire(ix *index) {
	st := ix.table.Load()
	t.publish(ix, emptySlots)
	if len(st.slots) != minSlots {
		return
	}
	for i := range st.slots {
		if sl := &st.slots[i]; sl.key.Load() != slotEmpty {
			sl.key.Store(slotEmpty)
			sl.e.Store(nil)
		}
	}
	ix.spare = st
}

// unlink takes e, whose FID-index slot is fs, out of s's indexes,
// retiring an array its going empties, and then empties its words: what
// an entry held goes with it, and a Handle that outlives it reads none.
func (t *Table) unlink(s *tableShard, fs *slot, e *tracked) {
	if (Handle{e}).Detached() {
		s.detached--
	} else if s.count--; s.count == 0 {
		t.retire(&s.byKey)
	} else {
		ks, _ := s.byKey.table.Load().findKey(keyWord(e.hi, e.lo), e.hi, e.lo)
		s.byKey.bury(ks)
	}
	if s.count+s.detached == 0 {
		t.retire(&s.byFID)
	} else {
		s.byFID.bury(fs)
	}
	ed := Edit{t: t, s: s, e: e}
	ed.SetRule(nil)
	ed.SetRec(nil)
	e.setBits(0, goneBit)
}

// Edit is one FID's entry held under its shard's mutex, which is what
// serializes every store to an entry's words — with each other, with the
// journal a store is reported to, and with the entry's unlinking. Done
// must follow.
type Edit struct {
	t *Table
	s *tableShard
	e *tracked
}

// Edit locks fid's shard and returns its entry for editing. With create,
// an FID no entry holds gets a detached one: in the FID index only, so
// it reserves the FID against InsertKey's probe and no tuple finds it,
// and gone when Done finds both of its words empty.
func (t *Table) Edit(fid FID, create bool) Edit {
	s := t.shardFor(fid)
	s.mu.Lock()
	_, e := s.byFID.table.Load().findFID(fid)
	if e == nil && create {
		e = &tracked{fid: fid}
		t.put(&s.byFID, fidWord(fid), e, s.count+s.detached)
		s.detached++
	}
	return Edit{t: t, s: s, e: e}
}

// EditHandle is Edit for a caller that holds the entry's Handle: no
// probe, only the shard mutex. A Gone entry is not Found, so a write
// through a handle never lands on an unlinked entry.
func (t *Table) EditHandle(h Handle) Edit {
	s := t.shardFor(h.e.fid)
	s.mu.Lock()
	if h.Gone() {
		return Edit{t: t, s: s}
	}
	return Edit{t: t, s: s, e: h.e}
}

// Found reports whether the FID has an entry; Handle returns it.
func (ed Edit) Found() bool    { return ed.e != nil }
func (ed Edit) Handle() Handle { return Handle{ed.e} }

// Unlink takes the entry out of the table, emptying its words.
func (ed Edit) Unlink() {
	fs, _ := ed.s.byFID.table.Load().findFID(ed.e.fid)
	ed.t.unlink(ed.s, fs, ed.e)
}

// setWord stores p in an entry's word and keeps n, the shard's count of
// entries whose word is set.
func setWord(word *unsafe.Pointer, p unsafe.Pointer, n *int) {
	if was := atomic.LoadPointer(word) != nil; was != (p != nil) {
		if was {
			*n--
		} else {
			*n++
		}
	}
	atomic.StorePointer(word, p)
}

// SetRule clears the summary, stores the rule word, clears the stale mark
// — in that order, which LiveRule and Plain rely on. Nil removes the rule.
func (ed Edit) SetRule(p unsafe.Pointer) {
	ed.e.plain.Store(0)
	setWord(&ed.e.rule, p, &ed.s.rules)
	if ed.e.bits.Load()&staleBit != 0 {
		ed.e.setBits(staleBit, 0)
		ed.s.stale--
	}
}

// MarkStale marks the rule word, if set and unmarked, not to be served.
func (ed Edit) MarkStale() {
	if e := ed.e; atomic.LoadPointer(&e.rule) != nil && e.bits.Load()&staleBit == 0 {
		e.setBits(0, staleBit)
		ed.s.stale++
	}
}

// SetPlain summarizes the plain rule SetRule stored, of epoch and price (each
// half below 1<<32), the epoch last; the next SetRule removes the summary.
func (ed Edit) SetPlain(epoch, fixed, header uint64) {
	ed.e.price.Store(fixed<<32 | header)
	ed.e.plain.Store(epoch + 1)
}

// SetRec stores the recording word.
func (ed Edit) SetRec(p unsafe.Pointer) { setWord(&ed.e.rec, p, &ed.s.recs) }

// Done ends the edit. A detached entry left holding nothing is unlinked,
// so a Handle acquired on it reads Gone.
func (ed Edit) Done() {
	if h := ed.Handle(); ed.e != nil && h.Detached() && !h.Gone() && h.Rule() == nil && h.Rec() == nil {
		ed.Unlink()
	}
	ed.s.mu.Unlock()
}

// AcquireKey returns a Handle on the flow tracked under the packed
// 5-tuple (packet.FlowKey's hi, lo): the FNV digest for the shard, the
// seeded mix for the slot, one lock-free probe. The handle is the
// key's entry for as long as it is not Gone.
func (t *Table) AcquireKey(hi, lo uint64) (Handle, bool) {
	_, e := t.shardFor(HashKey(hi, lo)).byKey.table.Load().findKey(keyWord(hi, lo), hi, lo)
	return Handle{e}, e != nil
}

// KeyProbe is one key of a staged lookup (AcquireKeys): the caller sets
// Hi and Lo, the lookup leaves the result behind. Probes are the caller's
// scratch — batch workers share a Table — and need no reset between
// lookups.
type KeyProbe struct {
	Hi, Lo uint64
	word   uint64
	k      uint64
	s      *slot
	e      *tracked
	shard  uint32
}

// Handle returns the flow the lookup found for the probe's key.
func (p *KeyProbe) Handle() (Handle, bool) { return Handle{p.e}, p.e != nil }

// AcquireKeys is AcquireKey over a vector of keys, in stages that each
// loop over every key: hash, home slot, home slot word, entry on a tag
// match, confirmation on the entry's key. A stage's loads do not depend
// on one another, so the cache misses of a vector overlap instead of
// queueing behind each key's probe. A home slot that neither confirms
// nor ends the chain (a tag collision, a tombstone, another flow's slot)
// takes findKey's full probe. The result is AcquireKey's for every key.
func (t *Table) AcquireKeys(ps []KeyProbe) {
	for i := range ps {
		p := &ps[i]
		p.shard = uint32(HashKey(p.Hi, p.Lo)) & shardMask
		p.word = keyWord(p.Hi, p.Lo)
	}
	for i := range ps {
		p := &ps[i]
		st := t.shards[p.shard].byKey.table.Load()
		p.s = &st.slots[st.home(p.word)]
	}
	for i := range ps {
		ps[i].k = ps[i].s.key.Load()
	}
	for i := range ps {
		p := &ps[i]
		p.e = nil
		if p.k == p.word {
			p.e = p.s.e.Load()
		}
	}
	for i := range ps {
		p := &ps[i]
		if e := p.e; e != nil && e.hi == p.Hi && e.lo == p.Lo {
			continue
		}
		p.e = nil
		if p.k != slotEmpty {
			_, p.e = t.shards[p.shard].byKey.table.Load().findKey(p.word, p.Hi, p.Lo)
		}
	}
}

// Acquire is AcquireKey for an unpacked tuple.
func (t *Table) Acquire(ft packet.FiveTuple) (Handle, bool) { return t.AcquireKey(ft.Key()) }

// AcquireFID returns a Handle on the FID's entry — a flow's or a
// detached one — by one lock-free probe of the FID index: the way to an
// entry's words for whoever holds the FID and not the tuple.
func (t *Table) AcquireFID(fid FID) (Handle, bool) {
	_, e := t.shardFor(fid).byFID.table.Load().findFID(fid)
	return Handle{e}, e != nil
}

// LookupFID returns a snapshot of the flow tracked under a FID, if any.
func (t *Table) LookupFID(fid FID) (Entry, bool) {
	h, ok := t.AcquireFID(fid)
	if !ok || h.Detached() {
		return Entry{}, false
	}
	return h.e.snapshot(), true
}

// InsertKey returns the Handle of the flow tracked under the packed
// 5-tuple, tracking it as a new handshake-state flow under a
// collision-free FID if it is not (existed=false). A tracked flow is
// found without the lock.
func (t *Table) InsertKey(hi, lo uint64) (h Handle, existed bool, err error) {
	home := HashKey(hi, lo)
	s := t.shardFor(home)
	word := keyWord(hi, lo)
	if _, e := s.byKey.table.Load().findKey(word, hi, lo); e != nil {
		return Handle{e}, true, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, e := s.byKey.table.Load().findKey(word, hi, lo); e != nil {
		return Handle{e}, true, nil
	}
	fids := s.byFID.table.Load()
	fid := home
	// Each shard owns (MaxFID+1)/ShardCount slots; probing in
	// ShardCount strides visits exactly those.
	for probes := 0; probes < (MaxFID+1)/ShardCount; probes++ {
		if _, taken := fids.findFID(fid); taken == nil {
			e := &tracked{hi: hi, lo: lo, fid: fid}
			e.bits.Store(uint32(StateHandshake))
			t.link(s, e)
			return Handle{e}, false, nil
		}
		fid = (fid + ShardCount) & MaxFID
	}
	return Handle{}, false, ErrTableFull
}

// Insert tracks a new flow, allocating a collision-free FID, and
// returns a snapshot of the entry. It returns the existing entry's
// snapshot if the tuple is already tracked.
func (t *Table) Insert(ft packet.FiveTuple) (Entry, error) {
	h, _, err := t.InsertKey(ft.Key())
	if err != nil {
		return Entry{}, err
	}
	return h.e.snapshot(), nil
}

// Remove deletes a flow by FID. It reports whether the flow existed.
func (t *Table) Remove(fid FID) bool {
	ed := t.Edit(fid, false)
	defer ed.Done()
	ok := ed.Found() && !ed.Handle().Detached()
	if ok {
		ed.Unlink()
	}
	return ok
}

// Counts is what the table holds, summed a shard at a time under its
// mutex: tracked flows, detached entries, tombstones awaiting compaction
// in both indexes, and the entries holding a rule, a stale-marked rule
// and a recording.
type Counts struct {
	Flows, Detached, Dead int
	Rules, Stale, Records int
}

func (t *Table) Counts() (c Counts) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		c.Flows += s.count
		c.Detached += s.detached
		c.Dead += s.byKey.dead + s.byFID.dead
		c.Rules += s.rules
		c.Stale += s.stale
		c.Records += s.recs
		s.mu.Unlock()
	}
	return c
}

// Len returns the number of tracked flows, DeadSlots the tombstones,
// Rebuilds the number of slot arrays published so far: it grows with the
// logarithm of the flow count plus churn over the tombstone budget, not
// with inserts and removals.
func (t *Table) Len() int         { return t.Counts().Flows }
func (t *Table) DeadSlots() int   { return t.Counts().Dead }
func (t *Table) Rebuilds() uint64 { return t.rebuilds.Load() }

// each calls fn for every tracked flow, a shard at a time under its
// mutex: writers wait, readers do not, and a shard's view is exact.
func (t *Table) each(fn func(*tracked)) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		st := s.byFID.table.Load()
		for j := range st.slots {
			if e := st.slots[j].e.Load(); e != nil && !(Handle{e}).Detached() {
				fn(e)
			}
		}
		s.mu.Unlock()
	}
}

// Each calls fn with a Handle on every entry, flows and detached alike,
// walking the published FID indexes with no lock held, so fn may call
// back into the table. Under concurrent writers the view is weakly
// consistent (an entry linked or unlinked during the walk may or may not
// be seen); it is exact once writers are quiesced.
func (t *Table) Each(fn func(Handle)) {
	for i := range t.shards {
		st := t.shards[i].byFID.table.Load()
		for j := range st.slots {
			if e := st.slots[j].e.Load(); e != nil {
				fn(Handle{e})
			}
		}
	}
}

// Snapshot returns a copy of every tracked entry, sorted by FID so
// checkpoint encodings are deterministic.
func (t *Table) Snapshot() []Entry {
	out := make([]Entry, 0, t.Len())
	t.each(func(e *tracked) { out = append(out, e.snapshot()) })
	sort.Slice(out, func(i, j int) bool { return out[i].FID < out[j].FID })
	return out
}

// RestoreEntry places a checkpointed entry back at its recorded FID,
// bypassing Insert's probing (the FID was already allocated when the
// snapshot was taken, so probe order must not re-run). An existing
// entry at the FID or tuple is replaced — it and whatever its words held
// are gone; the restored entry starts with empty words, stamped with the
// current seen epoch — and handles on it read Gone.
func (t *Table) RestoreEntry(en Entry) {
	e := &tracked{fid: en.FID}
	e.hi, e.lo = en.Tuple.Key()
	e.bits.Store(uint32(en.State) | t.seen.Load())
	s := t.shardFor(e.fid)
	s.mu.Lock()
	defer s.mu.Unlock()
	if fs, old := s.byFID.table.Load().findFID(e.fid); old != nil {
		t.unlink(s, fs, old)
	}
	if _, old := s.byKey.table.Load().findKey(keyWord(e.hi, e.lo), e.hi, e.lo); old != nil {
		fs, _ := s.byFID.table.Load().findFID(old.fid)
		t.unlink(s, fs, old)
	}
	t.link(s, e)
}

// seenEpochs bounds the seen epochs a table tells apart: the current one
// and the ended ones its flows still carry.
const seenEpochs = 64

// sweeper is Sweep's state: the current seen epoch (counted from the
// table's creation; its low bits are the stamp), the oldest one a kept
// flow carries, and the tick each of those started at.
type sweeper struct {
	mu            sync.Mutex
	epoch, oldest uint64
	starts        [seenEpochs]uint64
}

// Sweep ends the current seen epoch at tick now, opens the next, and
// returns the flows whose stamped epoch ended idleFor ticks or more
// before now. An epoch ends at or after its flows' packets, so a flow
// with a packet in the last idleFor ticks is never returned, and one idle
// for longer than idleFor plus the gap between two sweeps is (while kept
// flows hold seenEpochs-1 ended epochs, the current one runs on, and the
// gap is its length). A stamp resolves to the latest epoch it can be, so
// its wrap only ever makes a flow look younger.
func (t *Table) Sweep(now, idleFor uint64) []Handle {
	sw := &t.sweep
	sw.mu.Lock()
	defer sw.mu.Unlock()
	now = max(now, sw.starts[sw.epoch%seenEpochs]) // callers race to the lock
	if sw.epoch-sw.oldest < seenEpochs-1 {
		sw.epoch++
		sw.starts[sw.epoch%seenEpochs] = now
		t.seen.Store(uint32(sw.epoch) << seenShift)
	}
	// The previous epoch stays resolvable: a vector that loaded its stamp
	// before the store may still write it.
	cur, oldest := uint32(sw.epoch), sw.epoch-1
	var idle []Handle
	t.each(func(e *tracked) {
		age := uint64((cur - e.bits.Load()>>seenShift) & epochMask)
		f := sw.epoch - min(age, sw.epoch-sw.oldest)
		switch {
		case age == 0:
		case now-sw.starts[(f+1)%seenEpochs] >= idleFor:
			idle = append(idle, Handle{e})
		default:
			oldest = min(oldest, f)
		}
	})
	sw.oldest = oldest
	return idle
}
