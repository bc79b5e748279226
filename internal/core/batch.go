package core

import (
	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
)

// DefaultBatchSize is the canonical NFV vector size: DPDK, BESS and
// VPP all move packets in 32-packet bursts, amortizing per-packet
// dispatch across the vector.
const DefaultBatchSize = 32

// ruleCacheWays is the associativity of the per-worker rule cache.
// Four entries cover the handful of flows interleaved within one
// 32-packet vector of a realistic trace; a miss only costs the Global
// MAT's lock-free probe.
const ruleCacheWays = 4

// ruleCacheEntry caches what the data path learns about one flow:
// the live consolidated rule (valid while the Global MAT's mutation
// generation is unchanged) and a "no registered events" verdict (valid
// while the Event Table's registration generation is unchanged).
type ruleCacheEntry struct {
	fid      flow.FID
	used     bool
	rule     *mat.GlobalRule
	ruleGen  uint64
	hasRule  bool
	noEvents bool
	evGen    uint64
}

// RuleCache is a tiny per-worker, generation-validated cache over the
// Global MAT and Event Table (the paper's DPDK prototype keeps the
// analogous last-rule pointer in each lcore's local storage). It must
// not be shared between goroutines; each worker owns one inside its
// Batch, and the ONVM manager core owns a bare one. Correctness does
// not depend on the cache: every hit is revalidated against the source
// table's generation with one atomic load, so any Install, Remove,
// MarkStale or event Register anywhere invalidates all caches, and a
// stale check simply falls back to the table's lock-free lookup.
type RuleCache struct {
	entries [ruleCacheWays]ruleCacheEntry
	clock   uint8
	// hits/misses count lookupRule outcomes in plain fields; a Batch's
	// are folded into the hub once per vector, like its flow-cache pair.
	hits, misses uint64
}

// Invalidate forgets everything, for tests and for callers that want a
// cold cache between traces.
func (rc *RuleCache) Invalidate() { *rc = RuleCache{} }

// find returns the entry for fid, or nil.
func (rc *RuleCache) find(fid flow.FID) *ruleCacheEntry {
	for i := range rc.entries {
		if rc.entries[i].used && rc.entries[i].fid == fid {
			return &rc.entries[i]
		}
	}
	return nil
}

// slot returns the entry for fid, repurposing the round-robin victim
// (cleared) if the flow is not cached.
func (rc *RuleCache) slot(fid flow.FID) *ruleCacheEntry {
	if en := rc.find(fid); en != nil {
		return en
	}
	en := &rc.entries[rc.clock&(ruleCacheWays-1)]
	rc.clock++
	*en = ruleCacheEntry{fid: fid, used: true}
	return en
}

// noEventsValid reports a still-valid "flow has no registered events"
// verdict.
func (rc *RuleCache) noEventsValid(e *Engine, fid flow.FID) bool {
	en := rc.find(fid)
	return en != nil && en.noEvents && en.evGen == e.events.RegGen()
}

// putNoEvents caches the no-events verdict observed at registration
// generation evGen.
func (rc *RuleCache) putNoEvents(fid flow.FID, evGen uint64) {
	en := rc.slot(fid)
	en.noEvents = true
	en.evGen = evGen
}

// lookupRule is LookupLive behind the per-worker cache: a
// generation-valid hit returns the cached rule pointer without
// touching the table; a miss probes it and caches the result stamped
// with the generation read *before* the lookup, so a racing mutation
// can only make the entry conservatively stale, never serve a rule
// newer than its stamp.
func (e *Engine) lookupRule(fid flow.FID, rc *RuleCache) (*mat.GlobalRule, bool) {
	gen := e.global.Gen()
	if en := rc.find(fid); en != nil && en.hasRule && en.ruleGen == gen {
		rc.hits++
		return en.rule, true
	}
	rc.misses++
	rule, ok := e.global.LookupLive(fid)
	if ok {
		en := rc.slot(fid)
		en.rule = rule
		en.ruleGen = gen
		en.hasRule = true
	}
	return rule, ok
}

// statsDelta accumulates one shard's counter increments across a
// vector in plain (non-atomic) fields; fold publishes each non-zero
// delta into the shared shard with one atomic add per touched counter
// instead of several per packet.
type statsDelta struct {
	packets, initial, subsequent, handshake, final uint64
	fastPath, slowPath, dropped                    uint64
	eventsFired, consolidations                    uint64
}

// add counts one finished packet — the one place a PacketResult is
// turned into counter increments.
func (d *statsDelta) add(res *PacketResult) {
	d.packets++
	switch res.Kind {
	case classifier.KindInitial:
		d.initial++
	case classifier.KindSubsequent:
		d.subsequent++
	case classifier.KindHandshake:
		d.handshake++
	case classifier.KindFinal:
		d.final++
	}
	if res.Path == PathFast {
		d.fastPath++
	} else {
		d.slowPath++
	}
	if res.Verdict == VerdictDrop {
		d.dropped++
	}
	if res.Fast != nil {
		d.eventsFired += uint64(res.Fast.EventsFired)
	}
	if res.Slow != nil && res.Slow.ConsolidateCycles > 0 {
		d.consolidations++
	}
}

// fold publishes a delta into the shared counter shard.
func (s *statsShard) fold(d *statsDelta) {
	s.packets.Add(d.packets)
	if d.initial != 0 {
		s.initial.Add(d.initial)
	}
	if d.subsequent != 0 {
		s.subsequent.Add(d.subsequent)
	}
	if d.handshake != 0 {
		s.handshake.Add(d.handshake)
	}
	if d.final != 0 {
		s.final.Add(d.final)
	}
	if d.fastPath != 0 {
		s.fastPath.Add(d.fastPath)
	}
	if d.slowPath != 0 {
		s.slowPath.Add(d.slowPath)
	}
	if d.dropped != 0 {
		s.dropped.Add(d.dropped)
	}
	if d.eventsFired != 0 {
		s.eventsFired.Add(d.eventsFired)
	}
	if d.consolidations != 0 {
		s.consolidations.Add(d.consolidations)
	}
}

// flowCacheWays is the associativity of the per-worker flow-handle
// cache, matching the rule cache: the flows interleaved within one
// vector.
const flowCacheWays = 4

// flowSlot caches one flow's table handle keyed by 5-tuple, plus the
// batch-local bookkeeping deltas folded into the flow entry at flush:
// the steady-state per-packet flow touch is then a tuple compare, two
// generation/state loads and plain integer adds — no lock, no map, no
// per-packet atomic read-modify-write.
type flowSlot struct {
	// kHi/kLo are the packed flow key (packet.FlowKey) the hot probe
	// compares; tuple is the same key unpacked, kept for re-acquiring
	// the handle when the table generation moves.
	kHi, kLo uint64
	tuple    packet.FiveTuple
	h        flow.Handle
	gen      uint64
	used     bool
	dirty    bool
	// Folded established-data bookkeeping: packet and byte counts,
	// and the logical-clock tick of the flow's most recent packet.
	dPkts    uint64
	dBytes   uint64
	lastTick uint64
}

// flush folds the slot's pending bookkeeping into the flow entry.
func (sl *flowSlot) flush() {
	if !sl.dirty {
		return
	}
	sl.h.FoldTouches(sl.dPkts, sl.dBytes, sl.lastTick)
	sl.dPkts, sl.dBytes, sl.dirty = 0, 0, false
}

// Batch is the per-worker scratch state of the data path: the rule and
// flow-handle caches, preallocated result storage, and the counter and
// telemetry fold buffers. A Batch must not be shared between goroutines
// (each runner worker owns one; ProcessPacket draws one from the
// engine's pool); results returned by ProcessBatch point into the
// Batch's storage and are valid only until the next call on the same
// Batch.
type Batch struct {
	flows  [flowCacheWays]flowSlot
	fclock uint8

	res  []PacketResult
	info []FastPathInfo
	out  []*PacketResult

	// delta holds the vector's counter increments per stats shard; dirty
	// lists the shards touched, so flushStats visits only those.
	delta [statsShardCount]statsDelta
	dirty []uint32

	// flowHits/flowMisses count flow-handle cache outcomes across the
	// batch, folded into the engine counters at flush.
	flowHits   uint64
	flowMisses uint64

	// telVal/telN/telHint fold the fast-path latency histogram: a run
	// of packets with identical modeled work collapses into one RecordN.
	telVal  uint64
	telN    uint64
	telHint uint32

	// cache is last so that growing it moves no other field: the flow
	// slots' placement is measurable (16 bytes further in cost the
	// benchmark's `hot` workload ~1.5 %).
	cache RuleCache
}

// NewBatch returns batch scratch sized for n-packet vectors (0 picks
// DefaultBatchSize). The storage grows on demand if larger vectors
// arrive.
func NewBatch(n int) *Batch {
	if n <= 0 {
		n = DefaultBatchSize
	}
	return &Batch{
		res:   make([]PacketResult, n),
		info:  make([]FastPathInfo, n),
		out:   make([]*PacketResult, 0, n),
		dirty: make([]uint32, 0, statsShardCount),
	}
}

// begin resets the per-vector storage for n packets. The rule and
// flow caches deliberately survive across vectors — that is where the
// amortization for repeated flows comes from.
func (b *Batch) begin(n int) {
	if cap(b.res) < n {
		b.res = make([]PacketResult, n)
		b.info = make([]FastPathInfo, n)
	}
	b.res = b.res[:n]
	b.info = b.info[:n]
	clear(b.res)
	clear(b.info)
	b.out = b.out[:0]
}

// flushFlows folds every flow slot's pending bookkeeping into the
// flow table. It must run before any code that reads or rewrites a
// flow entry through the locked paths (full classification, the slow
// path, teardown) and at end of batch.
func (b *Batch) flushFlows() {
	for i := range b.flows {
		b.flows[i].flush()
	}
}

// flowSlotFor resolves a packet's flow key to a flow-cache slot,
// acquiring (or revalidating) the table handle as needed. The hot
// probe compares the packed two-word key; the FiveTuple struct is only
// built on the acquire paths. The table generation is read before
// every acquire, so a racing removal can only leave the slot
// conservatively stale. It reports ok=false when the flow is not
// tracked — the caller falls back to full classification.
func (b *Batch) flowSlotFor(flows *flow.Table, pkt *packet.Packet, kHi, kLo uint64) (uint8, bool) {
	gen := flows.Gen()
	for i := range b.flows {
		sl := &b.flows[i]
		if !sl.used || sl.kHi != kHi || sl.kLo != kLo {
			continue
		}
		if sl.gen == gen {
			b.flowHits++
			return uint8(i), true
		}
		// The table mutated since the handle was cached: pending
		// deltas belong to the old entry, so fold them through the
		// old handle before re-acquiring.
		sl.flush()
		h, ok := flows.Acquire(sl.tuple)
		if !ok {
			sl.used = false
			return 0, false
		}
		sl.h, sl.gen = h, gen
		b.flowHits++
		return uint8(i), true
	}
	b.flowMisses++
	ft, err := pkt.FiveTuple()
	if err != nil {
		return 0, false
	}
	h, ok := flows.Acquire(ft)
	if !ok {
		return 0, false
	}
	v := b.fclock & (flowCacheWays - 1)
	b.fclock++
	sl := &b.flows[v]
	sl.flush()
	*sl = flowSlot{kHi: kHi, kLo: kLo, tuple: ft, h: h, gen: gen, used: true}
	return v, true
}

// account folds one finished packet into the batch-local deltas and
// telemetry run-length buffers.
func (b *Batch) account(e *Engine, res *PacketResult) {
	shard := uint32(res.FID) & (statsShardCount - 1)
	d := &b.delta[shard]
	if d.packets == 0 {
		b.dirty = append(b.dirty, shard)
	}
	d.add(res)
	if e.tel == nil {
		return
	}
	if res.Path != PathFast {
		// Slow-path packets are rare within a batch and carry per-NF
		// stage detail; record them individually.
		e.tel.accountPacket(res)
		return
	}
	// Fast-path latency: fold runs of identical work values into one
	// histogram record per batch slot.
	if b.telN > 0 && res.WorkCycles == b.telVal {
		b.telN++
		return
	}
	b.flushTel(e)
	b.telVal = res.WorkCycles
	b.telN = 1
	b.telHint = uint32(res.FID)
}

// flushTel records any pending fast-path latency run.
func (b *Batch) flushTel(e *Engine) {
	if b.telN == 0 || e.tel == nil {
		return
	}
	e.tel.fastLat.RecordN(b.telVal, b.telN, b.telHint)
	b.telN = 0
}

// foldCount moves a batch-local count into its shared counter. In
// steady state a vector has only hits, so the miss counters' cache
// lines are not touched.
func foldCount(c *telemetry.Counter, n *uint64) {
	if *n != 0 {
		c.Add(*n)
		*n = 0
	}
}

// flushStats folds the batch-local counter deltas into the shared
// sharded counters, after folding pending flow bookkeeping.
func (e *Engine) flushStats(b *Batch) {
	b.flushFlows()
	b.flushTel(e)
	// Cache hit rates are implementation telemetry, not behavior: they
	// go to the hub, never into the oracle-compared Stats. Without a hub
	// they are dropped, not kept for a later engine to fold in one lump.
	if t := e.tel; t != nil {
		foldCount(t.flowCacheHits, &b.flowHits)
		foldCount(t.flowCacheMisses, &b.flowMisses)
		foldCount(t.ruleCacheHits, &b.cache.hits)
		foldCount(t.ruleCacheMisses, &b.cache.misses)
	} else {
		b.flowHits, b.flowMisses, b.cache.hits, b.cache.misses = 0, 0, 0, 0
	}
	for _, shard := range b.dirty {
		e.stats[shard].fold(&b.delta[shard])
		b.delta[shard] = statsDelta{}
	}
	b.dirty = b.dirty[:0]
}

// ProcessBatch classifies and processes a vector of packets in arrival
// order — the engine's one data path; ProcessPacket is a vector of one.
// A vector amortizes per-packet dispatch: fast-shaped packets classify
// through the Batch's flow-handle cache, consolidated-rule and
// event-table lookups are served from its generation-validated cache,
// fast-path results are written into preallocated storage, and counters
// and the fast-path latency histogram are folded into a few updates
// per vector.
//
// The vector size never changes what a packet observes — the
// differential oracle holds vectors of 1 and of 32 bit-identical.
// Arrival order is preserved across the whole vector (no grouping or
// sorting): NFs keep cross-flow state (rate limiters, DoS counters),
// so reordering could change verdicts. Returned results point into the
// Batch and are valid until its next use; processing stops at the
// first failing packet, whose predecessors stay accounted.
func (e *Engine) ProcessBatch(pkts []*packet.Packet, b *Batch) ([]*PacketResult, error) {
	b.begin(len(pkts))
	out := b.out
	for i, pkt := range pkts {
		res, err := e.process(pkt, &b.info[i], &b.res[i], b)
		if err != nil {
			e.flushStats(b)
			return nil, err
		}
		out = append(out, res)
	}
	b.out = out
	e.flushStats(b)
	return out, nil
}

// process is the per-packet decision ladder: classify, eviction fault,
// one arm per packet kind, account. info and res are the packet's
// (zeroed) slots in b's result storage, used when it takes the fast
// path; slow-path results are allocated by the traversal.
func (e *Engine) process(pkt *packet.Packet, info *FastPathInfo, res *PacketResult, b *Batch) (*PacketResult, error) {
	var (
		fid  flow.FID
		kind classifier.Kind
	)
	// The flow-handle and rule caches belong to SpeedyBox. The baseline
	// engine — every oracle's reference — classifies through the locked
	// Classify alone, independent of the code it polices.
	fastShaped := false
	if e.opts.EnableSpeedyBox {
		fid, fastShaped = e.classifyFast(pkt, b)
	}
	if fastShaped {
		// Established data packet: Subsequent with a live rule, else the
		// flow's initial packet (or a re-record after eviction or
		// staleness) — the decision Classify's hasRule probe makes.
		kind = classifier.KindInitial
		if _, ok := e.lookupRule(fid, &b.cache); ok {
			kind = classifier.KindSubsequent
		} else {
			pkt.Meta.Initial = true
		}
	} else {
		// Unparseable, handshake, FIN/RST, untracked or not-yet-
		// established flow: the locked state machine reads and rewrites
		// flow entries, so pending folded bookkeeping lands first.
		b.flushFlows()
		cls, err := e.Classify(pkt)
		if err != nil {
			return nil, err
		}
		fid, kind = cls.FID, cls.Kind
	}

	// Fault: flow-table eviction pressure — the MAT "ran out of space"
	// for this flow. Consolidated state is evicted (the next packet
	// re-records); flow tracking and NF-internal state survive, exactly
	// as a real table eviction leaves them. It strikes after the kind is
	// decided: a Subsequent packet whose rule was just evicted falls
	// back to the slow path, it does not re-record as Initial.
	if e.faults != nil && e.opts.EnableSpeedyBox &&
		e.faults.Should(fault.KindEvictPressure, fid) {
		e.evictConsolidated(fid)
	}

	var (
		r   *PacketResult
		err error
	)
	switch kind {
	case classifier.KindSubsequent:
		r, err = e.fastPathInto(fid, pkt, info, res, &b.cache)
	case classifier.KindFinal:
		if e.hasRule != nil && e.hasRule(fid) {
			r, err = e.fastPathInto(fid, pkt, info, res, &b.cache)
		} else {
			r, err = e.slowPath(fid, pkt, false)
		}
		if err == nil {
			e.teardown(fid, CauseFinTeardown)
			r.TornDown = true
		}
	case classifier.KindInitial:
		// The slow path drives the original chain, which may observe
		// flow entries: fold pending bookkeeping first.
		b.flushFlows()
		recording := e.TryBeginRecording(fid)
		r, err = e.slowPath(fid, pkt, recording)
		if recording {
			e.EndRecording(fid)
		}
	default: // KindHandshake
		r, err = e.slowPath(fid, pkt, false)
	}
	if err != nil {
		return nil, err
	}
	r.FID = fid
	r.Kind = kind
	b.account(e, r)
	return r, nil
}

// classifyFast classifies one fast-shaped packet — a plain data packet
// (no SYN/FIN/RST) of an established, tracked flow — through the
// Batch's flow-handle cache: a tuple compare, a generation load and a
// state load replace Classify's lock acquisition and map probe.
// Per-flow bookkeeping folds into the flow slot (flushed at batch
// boundaries and before any locked flow-table access); the logical
// clock ticks once per packet, exactly as Classify does, so
// clock-deadline reads during processing (the degradation ladder's
// backoff arithmetic) observe the same values at every vector size.
//
// For every other packet shape it reports ok=false without mutating
// the flow table or consuming a clock tick, and the caller routes the
// packet through the full Classify state machine.
func (e *Engine) classifyFast(pkt *packet.Packet, b *Batch) (flow.FID, bool) {
	if !pkt.Parsed() {
		if err := pkt.Parse(); err != nil {
			return 0, false // full Classify reproduces the error
		}
	}
	if flags, isTCP := pkt.TCPFlags(); isTCP &&
		flags&(packet.TCPFlagSYN|packet.TCPFlagFIN|packet.TCPFlagRST) != 0 {
		return 0, false
	}
	kHi, kLo, ok := pkt.FlowKey()
	if !ok {
		return 0, false
	}
	si, ok := b.flowSlotFor(e.class.Flows(), pkt, kHi, kLo)
	if !ok {
		return 0, false
	}
	sl := &b.flows[si]
	if !sl.h.Established() {
		return 0, false
	}
	sl.dPkts++
	sl.dBytes += uint64(pkt.Len())
	sl.lastTick = e.class.SeqClock().Add(1)
	sl.dirty = true
	fid := sl.h.FID()
	pkt.Meta.FID = uint32(fid)
	pkt.Meta.HasFID = true
	return fid, true
}
