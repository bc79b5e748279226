package mat

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

// GlobalRule is one consolidated fast-path rule: the single header
// action equivalent to the whole chain, plus the state-function
// execution plan.
type GlobalRule struct {
	// FID identifies the flow.
	FID flow.FID
	// Drop is the consolidated verdict: the packet is dropped at the
	// head of the chain (early packet drop, redundancy R2).
	Drop bool
	// Modifies are the merged field rewrites in first-touch order.
	Modifies []FieldValue
	// Stack is the residual encap/decap work.
	Stack StackOps
	// Batches are the per-NF state-function batches in chain order.
	// For dropped flows these are the batches of NFs up to and
	// including the dropping NF, so internal state (e.g. Monitor
	// counters upstream of a Firewall) evolves exactly as on the
	// original path.
	Batches []sfunc.Batch
	// Plan is the Table-I parallel schedule over Batches.
	Plan sfunc.Schedule
	// SourceNFs is how many NFs contributed, which sizes the
	// fast-path rule metadata (cost model's FastPathPerHA).
	SourceNFs int
	// Sources summarizes each contributing NF's header work, used by
	// the cost model to price the un-consolidated baseline in the
	// header-consolidation ablation (Figure 7).
	Sources []SourceSummary
	// Version counts reconsolidations triggered by events.
	Version uint64
	// Epoch is the chain epoch the rule was consolidated under. A rule
	// whose epoch differs from the table's current epoch encodes a
	// retired chain layout: LookupLive refuses it even before the
	// post-reconfiguration sweep reaches its shard.
	Epoch uint64
	// Prog is the compiled action program: the rule's header work
	// (residual decaps, encaps, merged modifies, checksum refresh)
	// flattened into one opcode+immediate byte stream at consolidation
	// time, executed per packet by ExecHeader's small loop instead of
	// interpreting the three slices above. Nil means not compiled
	// (hand-built rules, rules decoded from an old WAL); ExecHeader
	// then falls back to ApplyHeader, the reference implementation.
	Prog []byte
	// guards is the flow's registered event conditions as consolidation
	// found them (nil: none), the one word written after Install: a plain
	// pointer — Install copies rules by value — behind Guards and SetGuards.
	guards *Guard
}

// Guard is a node of a rule's immutable list of event conditions, in
// registration order. Package event builds, evaluates and compares the
// lists; a rule only carries one.
type Guard struct {
	Cond func(flow.FID) bool
	Next *Guard
}

// Guards loads the rule's guard list.
func (r *GlobalRule) Guards() *Guard {
	return (*Guard)(atomic.LoadPointer((*unsafe.Pointer)(unsafe.Pointer(&r.guards))))
}

// SetGuards stores the rule's guard list.
func (r *GlobalRule) SetGuards(g *Guard) {
	atomic.StorePointer((*unsafe.Pointer)(unsafe.Pointer(&r.guards)), unsafe.Pointer(g))
}

// ApplyHeader performs the consolidated header work on a packet:
// residual decaps, residual encaps, merged modifies, then a single
// checksum refresh. It returns false when the verdict is drop.
// State-function execution is separate (the engine runs the Plan).
func (r *GlobalRule) ApplyHeader(pkt *packet.Packet) (alive bool, err error) {
	if r.Drop {
		pkt.Drop()
		return false, nil
	}
	touched := false
	for _, t := range r.Stack.Decaps {
		if err := pkt.Decap(t); err != nil {
			return false, fmt.Errorf("mat: global rule %v: %w", r.FID, err)
		}
		touched = true
	}
	for _, h := range r.Stack.Encaps {
		if err := pkt.Encap(h); err != nil {
			return false, fmt.Errorf("mat: global rule %v: %w", r.FID, err)
		}
		touched = true
	}
	for _, m := range r.Modifies {
		if err := pkt.Set(m.Field, m.Value); err != nil {
			return false, fmt.Errorf("mat: global rule %v: %w", r.FID, err)
		}
		touched = true
	}
	if touched {
		if err := pkt.FinalizeChecksums(); err != nil {
			return false, err
		}
	}
	return true, nil
}

// HeaderWork summarizes the rule's header effort for the cost model:
// the number of field rewrites and stack operations, and whether a
// checksum refresh is needed.
func (r *GlobalRule) HeaderWork() (modifies, stackOps int, checksum bool) {
	modifies = len(r.Modifies)
	stackOps = len(r.Stack.Decaps) + len(r.Stack.Encaps)
	return modifies, stackOps, modifies > 0 || stackOps > 0
}

// String renders the rule in the paper's Figure-1 notation, e.g.
// "fid:00001 -> modify(DIP,DPort) + 2 SF batches [v0]".
func (r *GlobalRule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v -> ", r.FID)
	switch {
	case r.Drop:
		b.WriteString("drop")
	case len(r.Modifies) == 0 && r.Stack.Empty():
		b.WriteString("forward")
	default:
		if len(r.Modifies) > 0 {
			fields := make([]string, len(r.Modifies))
			for i, m := range r.Modifies {
				fields[i] = m.Field.String()
			}
			fmt.Fprintf(&b, "modify(%s)", strings.Join(fields, ","))
		}
		for _, t := range r.Stack.Decaps {
			fmt.Fprintf(&b, " decap(%v)", t)
		}
		for _, h := range r.Stack.Encaps {
			fmt.Fprintf(&b, " encap(%v)", h.Type)
		}
	}
	if n := len(r.Batches); n > 0 {
		fmt.Fprintf(&b, " + %d SF batch(es) in %d stage(s)", n, len(r.Plan.Stages))
	}
	fmt.Fprintf(&b, " [v%d]", r.Version)
	return b.String()
}

// ShardCount is the number of independently locked Global MAT shards,
// indexed by the FID's low bits. A power of two keeps the shard index
// a mask away; sharding lets the multi-queue platform's workers look
// up rules for disjoint flows without touching a shared lock.
const ShardCount = 32

const shardMask = ShardCount - 1

// shardBits is log2(ShardCount): the FID bits consumed by shard
// selection, skipped by the in-shard slot hash.
const shardBits = 5

// Slot states, the low slotStateBits of a slot's key word, ordered so
// that "holds an installed rule" is state >= slotLive. A slot moves
// empty -> live <-> stale -> dead -> live (revived, same FID only).
const (
	slotEmpty uint64 = iota // never keyed: probes stop here
	slotDead                // removed: a tombstone probes walk past
	slotLive                // installed and servable
	slotStale               // installed but known to disagree with the Local MATs
)

const (
	slotStateBits = 2
	slotStateMask = 1<<slotStateBits - 1
)

// ruleSlot is one slot of a shard's open-addressing array. The key
// word packs the FID with the slot state, so a probe step is one load
// that resolves occupancy, key match and liveness together; the rule
// pointer is loaded only on a hit.
type ruleSlot struct {
	key  atomic.Uint64 // fid<<slotStateBits | state; 0 while empty
	rule atomic.Pointer[GlobalRule]
}

func slotKey(fid flow.FID, state uint64) uint64 { return uint64(fid)<<slotStateBits | state }

// ruleTable is one shard's slot array: power-of-two sized, probed
// linearly. Writers (serialized by the shard mutex) mutate a published
// array in place, one or two atomic word stores per mutation; readers
// probe it without locks. Two rules make that safe. A slot is keyed
// once: the FID in its key word never changes while the array is
// published, so a reader that matched the key cannot be handed another
// flow's rule, and removal leaves a tombstone only the same FID may
// revive. And whichever store makes a rule servable comes last: the
// rule pointer is stored before a key turns live, a key turns dead
// before its rule pointer is dropped (readers treat a nil rule as a
// miss). A fresh array is built only when live plus dead slots reach
// 3/4 load.
type ruleTable struct {
	slots []ruleSlot
	mask  uint32 // len(slots)-1
}

// emptyRuleTable is the shared array of an empty shard: one slot that
// is never keyed (the first install grows past it), so probes
// terminate immediately and every shard of every Global can share it.
var emptyRuleTable = &ruleTable{slots: make([]ruleSlot, 1)}

// hashFID spreads a FID over a shard's slot array. All FIDs of a
// shard agree on the low shardBits, so the multiplicative hash runs on
// the distinguishing high bits, with a fold so the table-index low
// bits of the product are well mixed.
func hashFID(fid flow.FID) uint32 {
	h := uint32(fid>>shardBits) * 2654435761 // Knuth's multiplicative constant
	return h ^ h>>16
}

// find returns fid's slot and its state, or the empty slot that ends
// fid's probe chain (where a writer may key it) and slotEmpty. The
// probe always terminates: writers keep live plus dead slots strictly
// below capacity, so every chain reaches an empty slot.
func (t *ruleTable) find(fid flow.FID) (*ruleSlot, uint64) {
	i := hashFID(fid) & t.mask
	for {
		s := &t.slots[i]
		k := s.key.Load()
		if k == 0 {
			return s, slotEmpty
		}
		if flow.FID(k>>slotStateBits) == fid {
			return s, k & slotStateMask
		}
		i = (i + 1) & t.mask
	}
}

// rebuild returns an unpublished array holding t's installed rules —
// tombstones are left behind — sized for n rules at no more than half
// load, minimum 8 slots. Half, not 3/4: a compaction must buy a
// tombstone budget proportional to the array (at least a quarter of
// it) or steady churn at a fixed population would compact on every
// few installs; growth from 3/4 load still exactly doubles.
func (t *ruleTable) rebuild(n int) *ruleTable {
	size := 8
	for size < 2*n {
		size *= 2
	}
	nt := &ruleTable{slots: make([]ruleSlot, size), mask: uint32(size - 1)}
	for i := range t.slots {
		k := t.slots[i].key.Load()
		if k&slotStateMask < slotLive {
			continue
		}
		s, _ := nt.find(flow.FID(k >> slotStateBits))
		s.rule.Store(t.slots[i].rule.Load())
		s.key.Store(k)
	}
	return nt
}

// globalShardCore is the hot state of one shard: the write-serializing
// mutex, the published slot array, and the slot counts (written under
// the mutex, read lock-free by Len, StaleLen and DeadSlots).
type globalShardCore struct {
	mu    sync.Mutex
	table atomic.Pointer[ruleTable]
	count atomic.Int64 // installed rules: live plus stale slots
	stale atomic.Int64 // stale-marked among them
	dead  atomic.Int64 // tombstones in the published array
}

// globalShard pads the core to a full cache-line multiple, computed
// from the real field layout (a hard-coded pad silently stops padding
// when fields change), so no two shards' hot words share a line.
type globalShard struct {
	globalShardCore
	_ [(cacheLine - unsafe.Sizeof(globalShardCore{})%cacheLine) % cacheLine]byte
}

// cacheLine is the coherence granule the shard padding targets.
const cacheLine = 64

// Global is the Global MAT: the table of consolidated fast-path rules
// keyed by FID (implemented in BESS as a global array reachable from
// all Local MATs, and in ONVM at the NF manager, §VI-A). It is safe
// for concurrent use; rules returned by Lookup are immutable once
// installed — replacement installs a fresh rule pointer.
//
// Reads are lock-free: the data path's LookupLive is one atomic load
// of the shard's slot array plus a linear probe over contiguous key
// words — no mutex, no map hashing. Writes are O(1): writers serialize
// on the shard mutex and mutate the slot in place (see ruleTable), so
// an install or teardown costs a few word stores however many rules
// the shard holds. Every writer mutates first and bumps the generation
// after: a worker cache that validated against the pre-mutation
// generation is invalidated by the bump, and one that read the
// post-bump generation can only have probed the already-mutated slot,
// so a generation-valid cached rule is never staler than the table.
type Global struct {
	shards [ShardCount]globalShard
	// publishes counts slot arrays published: growth, compaction, and
	// the swap back to emptyRuleTable when a shard empties — the only
	// writes that cost more than a few word stores.
	publishes atomic.Uint64
	// gen counts table mutations that can change what LookupLive
	// returns (Install, Remove, MarkStale, an epoch sweep that marked
	// something — bumped under the owning shard's lock, after the slot
	// stores). Batch workers cache rule pointers keyed by this
	// generation: a cached rule is served only while Gen() still equals
	// the generation observed when it was looked up, so any install,
	// teardown or stale-marking anywhere invalidates every cache at the
	// cost of one relaxed atomic load per hit. Control-plane mutations
	// are rare relative to data packets, so the cacheline stays
	// read-mostly and shared across cores.
	gen atomic.Uint64
	// epoch is the current chain epoch. Engine.Reconfigure advances it
	// when the NF chain changes shape; every rule consolidated under an
	// earlier epoch is then dead (LookupLive misses) and is stale-marked
	// by the sweep so teardown/expiry paths reclaim it.
	epoch atomic.Uint64
	// journal, when set, observes every mutation for write-ahead
	// logging (stored as a pointer-to-interface for atomic swap).
	journal atomic.Pointer[Journal]
}

// Journal observes Global MAT mutations for write-ahead logging. The
// callbacks run under the owning shard's write lock (EpochAdvanced
// under the engine's reconfigure serialization instead), so the
// journal sees mutations in exactly the order the table applied them;
// implementations must not call back into the table. mat defines the
// interface and core adapts it to the WAL writer, keeping this package
// free of a wal dependency.
type Journal interface {
	// RuleInstalled reports an Install: r is the stored rule (the
	// version-carried copy when replacing).
	RuleInstalled(r *GlobalRule, replaced bool)
	// RuleRemoved reports a Remove that deleted an installed rule.
	RuleRemoved(fid flow.FID)
	// RuleStaled reports a MarkStale that marked an installed rule.
	RuleStaled(fid flow.FID)
	// EpochAdvanced reports an AdvanceEpoch with the new epoch.
	// SweepEpoch is deliberately not journaled: replaying the epoch
	// advance already invalidates every older-epoch rule.
	EpochAdvanced(epoch uint64)
}

// SetJournal attaches (or, with nil, detaches) the mutation journal.
func (g *Global) SetJournal(j Journal) {
	if j == nil {
		g.journal.Store(nil)
		return
	}
	g.journal.Store(&j)
}

func (g *Global) journalOf() Journal {
	if p := g.journal.Load(); p != nil {
		return *p
	}
	return nil
}

// tableGen hands each Global instance its own 2^32-wide generation
// band. Per-worker flow contexts validate cached rule pointers by
// generation value alone, so generations must never coincide across
// table instances: a long-lived Batch carried across an engine rebuild
// (crash-restore, tests constructing engine pairs) could otherwise
// validate a dead table's cached rule — and the closures it holds over
// dead NF instances.
var tableGen atomic.Uint64

// NewGlobal returns an empty Global MAT.
func NewGlobal() *Global {
	g := &Global{}
	g.gen.Store(tableGen.Add(1) << 32)
	for i := range g.shards {
		g.shards[i].table.Store(emptyRuleTable)
	}
	return g
}

func (g *Global) shardFor(fid flow.FID) *globalShard {
	return &g.shards[uint32(fid)&shardMask]
}

// publish swaps in a shard's fresh, tombstone-free slot array. The
// caller holds the shard mutex and bumps the generation itself, after
// its own slot stores.
func (g *Global) publish(s *globalShard, t *ruleTable) {
	s.table.Store(t)
	s.dead.Store(0)
	g.publishes.Add(1)
}

// Publishes returns the number of slot arrays published (growth or
// compaction, plus the hand-back when a shard empties) since the table
// was created: it grows with the logarithm of the rule count plus
// churn over the tombstone budget, not with the number of mutations,
// which are applied in place.
func (g *Global) Publishes() uint64 { return g.publishes.Load() }

// Install inserts or replaces the rule for a flow, reporting whether
// an existing rule was replaced (telemetry distinguishes first-time
// installs from event-driven reconsolidations). When replacing, the
// version counter carries over and increments — on a private copy of
// the rule, never by writing through the caller's pointer: platforms
// may still hold (and read) previously installed rules concurrently.
// A fresh install supersedes any stale mark.
func (g *Global) Install(r *GlobalRule) (replaced bool) {
	s := g.shardFor(r.FID)
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.table.Load()
	sl, state := t.find(r.FID)
	stored := r
	switch state {
	case slotEmpty:
		// Keying one more slot must not bring live plus dead to 3/4 load.
		if n := int(s.count.Load()); n+int(s.dead.Load())+1 >= len(t.slots)-len(t.slots)/4 {
			t = t.rebuild(n + 1)
			g.publish(s, t)
			sl, _ = t.find(r.FID)
		}
		s.count.Add(1)
	case slotDead:
		s.dead.Add(-1)
		s.count.Add(1)
	default:
		versioned := *r
		versioned.Version = sl.rule.Load().Version + 1
		stored, replaced = &versioned, true
		if state == slotStale {
			s.stale.Add(-1)
		}
	}
	sl.rule.Store(stored)
	if state != slotLive {
		sl.key.Store(slotKey(r.FID, slotLive))
	}
	g.gen.Add(1)
	if j := g.journalOf(); j != nil {
		j.RuleInstalled(stored, replaced)
	}
	return replaced
}

// Gen returns the table's mutation generation. A rule obtained from
// LookupLive stays servable from a cache for exactly as long as Gen()
// returns the value read before that lookup.
func (g *Global) Gen() uint64 { return g.gen.Load() }

// Epoch returns the current chain epoch. Rules consolidated under an
// earlier epoch are never served by LookupLive.
func (g *Global) Epoch() uint64 { return g.epoch.Load() }

// AdvanceEpoch moves the table to the next chain epoch and returns it.
// The generation is bumped too, so every worker's cached rule pointer
// invalidates immediately — a cached pre-reconfiguration rule cannot be
// served even before SweepEpoch visits its shard.
func (g *Global) AdvanceEpoch() uint64 {
	e := g.epoch.Add(1)
	g.gen.Add(1)
	if j := g.journalOf(); j != nil {
		j.EpochAdvanced(e)
	}
	return e
}

// RestoreEpoch forces the table's epoch to e (never backwards) without
// journaling — it exists for Engine.Restore, which replays a journal
// that already contains the epoch history. The generation is bumped so
// workers' cached rule pointers invalidate.
func (g *Global) RestoreEpoch(e uint64) {
	for {
		cur := g.epoch.Load()
		if cur >= e {
			break
		}
		if g.epoch.CompareAndSwap(cur, e) {
			break
		}
	}
	g.gen.Add(1)
}

// SweepEpoch stale-marks every installed rule whose epoch differs from
// cur, returning how many rules were newly marked. It reuses the
// MarkStale representation so the ordinary reclamation paths (a fresh
// install, FIN teardown, idle expiry) clean the carcasses up; the rules
// were already dead to LookupLive the moment AdvanceEpoch published the
// new epoch, so the sweep only makes the staleness visible to StaleLen
// and Dump and lets IsStale-driven tooling see it. A shard where
// nothing was marked is left untouched, generation included.
func (g *Global) SweepEpoch(cur uint64) int {
	n := 0
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		t := s.table.Load()
		marked := 0
		for si := range t.slots {
			sl := &t.slots[si]
			k := sl.key.Load()
			if k&slotStateMask != slotLive || sl.rule.Load().Epoch == cur {
				continue
			}
			sl.key.Store(k&^slotStateMask | slotStale)
			marked++
		}
		if marked > 0 {
			s.stale.Add(int64(marked))
			g.gen.Add(1)
			n += marked
		}
		s.mu.Unlock()
	}
	return n
}

// Lookup fetches the rule for a flow, lock-free off the shard's slot
// array. The returned rule must be treated as immutable.
func (g *Global) Lookup(fid flow.FID) (*GlobalRule, bool) {
	if sl, state := g.shardFor(fid).table.Load().find(fid); state >= slotLive {
		if r := sl.rule.Load(); r != nil { // nil: a racing Remove got there first
			return r, true
		}
	}
	return nil, false
}

// Remove deletes a flow's rule (FIN/RST teardown, §VI-B). It reports
// whether a rule existed. The slot becomes a tombstone and drops its
// rule pointer, so the rule is collectable at once; the tombstone is
// reclaimed by the next compaction, or right here when the shard
// empties and goes back to the shared empty array.
func (g *Global) Remove(fid flow.FID) bool {
	s := g.shardFor(fid)
	s.mu.Lock()
	defer s.mu.Unlock()
	sl, state := s.table.Load().find(fid)
	if state < slotLive {
		// Nothing to remove; bump the generation anyway so the call's
		// cache-invalidation contract matches the locked-table era
		// (callers rely on Remove invalidating worker caches).
		g.gen.Add(1)
		return false
	}
	if state == slotStale {
		s.stale.Add(-1)
	}
	if s.count.Add(-1) == 0 {
		g.publish(s, emptyRuleTable)
	} else {
		sl.key.Store(slotKey(fid, slotDead))
		sl.rule.Store(nil)
		s.dead.Add(1)
	}
	g.gen.Add(1)
	if j := g.journalOf(); j != nil {
		j.RuleRemoved(fid)
	}
	return true
}

// MarkStale flags a flow's installed rule as disagreeing with the
// Local MATs — a failed install or a lost recomputation left the old
// version in the table. The rule stays installed (Lookup still returns
// it, and debugging tools can inspect it) but LookupLive misses, so
// the data path degrades the flow to the slow-path chain until a
// successful Install clears the mark. It reports whether a rule was
// present to mark.
func (g *Global) MarkStale(fid flow.FID) bool {
	s := g.shardFor(fid)
	s.mu.Lock()
	defer s.mu.Unlock()
	sl, state := s.table.Load().find(fid)
	if state == slotLive {
		sl.key.Store(slotKey(fid, slotStale))
		s.stale.Add(1)
	}
	g.gen.Add(1) // even when nothing changed: the contract of Remove
	if state < slotLive {
		return false
	}
	if j := g.journalOf(); j != nil {
		j.RuleStaled(fid)
	}
	return true
}

// IsStale reports whether the flow's rule is stale-marked.
func (g *Global) IsStale(fid flow.FID) bool {
	_, state := g.shardFor(fid).table.Load().find(fid)
	return state == slotStale
}

// LookupLive fetches the rule for a flow only if it is current: a
// stale-marked rule misses, sending the caller to the always-correct
// slow path. This is the data path's (and classifier probe's) lookup —
// one atomic load of the slot array and a lock-free linear probe;
// plain Lookup keeps returning stale rules for inspection.
func (g *Global) LookupLive(fid flow.FID) (*GlobalRule, bool) {
	sl, state := g.shardFor(fid).table.Load().find(fid)
	if state != slotLive {
		return nil, false
	}
	r := sl.rule.Load()
	if r == nil || r.Epoch != g.epoch.Load() {
		// Removed under our feet, or consolidated under a retired chain
		// layout: dead even if the epoch sweep has not marked it yet.
		return nil, false
	}
	return r, true
}

// counts sums the per-shard slot counts.
func (g *Global) counts() (rules, stale, dead int) {
	for i := range g.shards {
		s := &g.shards[i]
		rules += int(s.count.Load())
		stale += int(s.stale.Load())
		dead += int(s.dead.Load())
	}
	return rules, stale, dead
}

// Len returns the number of installed rules.
func (g *Global) Len() int { n, _, _ := g.counts(); return n }

// StaleLen returns the number of stale-marked rules.
func (g *Global) StaleLen() int { _, n, _ := g.counts(); return n }

// DeadSlots returns the number of tombstones awaiting compaction —
// slots that lengthen probe chains without holding a rule.
func (g *Global) DeadSlots() int { _, _, n := g.counts(); return n }

// ForEach calls fn for every installed rule. It walks each shard's
// current slot array without locking, so fn may safely call back into
// the table; under concurrent writers the view is weakly consistent (a
// rule installed or removed during the walk may or may not be seen),
// and exact once writers are quiesced, as checkpoint and restore
// require. Rules must still be treated as immutable.
func (g *Global) ForEach(fn func(*GlobalRule)) {
	for i := range g.shards {
		t := g.shards[i].table.Load()
		for si := range t.slots {
			sl := &t.slots[si]
			if sl.key.Load()&slotStateMask < slotLive {
				continue
			}
			if r := sl.rule.Load(); r != nil {
				fn(r)
			}
		}
	}
}

// Dump renders every installed rule, sorted by FID, for debugging and
// the chainsim -dump-rules flag.
func (g *Global) Dump() string {
	var rules []*GlobalRule
	g.ForEach(func(r *GlobalRule) { rules = append(rules, r) })
	sort.Slice(rules, func(i, j int) bool { return rules[i].FID < rules[j].FID })
	var b strings.Builder
	for _, r := range rules {
		b.WriteString(r.String())
		if g.IsStale(r.FID) {
			b.WriteString(" [stale]")
		}
		b.WriteString("\n")
	}
	return b.String()
}
