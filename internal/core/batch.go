package core

import (
	"math/bits"
	"sync/atomic"

	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/cost"
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

// statsDelta accumulates a vector's counter increments in plain
// (non-atomic) fields; fold publishes each non-zero one into a shared
// shard with one atomic add per touched counter instead of several per
// packet. plain counts summary-served packets, which fold expands.
type statsDelta struct {
	packets, initial, subsequent, handshake, final uint64
	fastPath, slowPath, dropped                    uint64
	eventsFired, consolidations                    uint64
	plain                                          uint64
}

// add counts one finished packet the summary did not serve: the one
// place such a PacketResult is turned into counter increments.
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
	d.eventsFired += uint64(res.Fast.EventsFired)
	if res.Path == PathSlow && res.Slow.ConsolidateCycles > 0 {
		d.consolidations++
	}
}

// fold publishes a delta into the shared counter shard, touching only
// the counters that moved.
func (s *statsShard) fold(d *statsDelta) {
	add := func(c *atomic.Uint64, n uint64) {
		if n != 0 {
			c.Add(n)
		}
	}
	add(&s.packets, d.packets+d.plain)
	add(&s.initial, d.initial)
	add(&s.subsequent, d.subsequent+d.plain)
	add(&s.handshake, d.handshake)
	add(&s.final, d.final)
	add(&s.fastPath, d.fastPath+d.plain)
	add(&s.slowPath, d.slowPath)
	add(&s.dropped, d.dropped)
	add(&s.eventsFired, d.eventsFired)
	add(&s.consolidations, d.consolidations)
}

// Batch is the per-worker scratch state of the data path: one result and
// one stage record a packet, the staged lookup's probes, the counter and
// telemetry fold buffers, and the slow path's traversal scratch. A Batch
// must not be shared between goroutines (each runner worker owns one;
// ProcessPacket draws one from the engine's pool); the slots ProcessBatch
// returns, and the slow-path info they point at, are valid only until the
// next call on the same Batch.
type Batch struct {
	res []PacketResult

	// stage holds the stage pass's record of each packet of the vector,
	// probes its one staged lookup, heads its dedup index (1 + the latest
	// packet of each bucket).
	stage  []staged
	probes []flow.KeyProbe
	heads  [dedupBuckets]int32

	// delta holds the vector's counter increments, folded by flushStats
	// into the engine's counter shard this Batch was dealt: the shards are
	// only ever summed, so which one takes a packet is free to be the
	// worker's own rather than the FID's.
	delta statsDelta
	shard uint32

	// ticks counts classified packets not yet on the clock (publish);
	// seen is the table's seen stamp as the stage pass loaded it.
	ticks uint64
	seen  uint32

	// flowHits/flowMisses count fast-shaped packets served the handle of
	// an earlier packet of their vector versus those that probed the flow
	// table; they fold into the hub at flush.
	flowHits, flowMisses uint64

	// telVal/telN/telHint fold the fast-path latency histogram: a run
	// of packets with identical modeled work collapses into one RecordN.
	telVal  uint64
	telN    uint64
	telHint uint32

	// slow is the slow path's scratch, behind one pointer so the fields
	// above keep their offsets.
	slow *traversal
}

// traversal is a worker's reusable slow-path scratch: everything a
// chain traversal needs besides the packet's PacketResult slot, so a
// warm Batch runs one without allocating. infos and ledger hold one
// entry or span per slow packet of the current vector — the results
// point at them — and start over with the next vector; the rest is
// rewritten by every traversal.
type traversal struct {
	infos []SlowPathInfo
	used  int
	// ledger backs every SlowPathInfo.PerNF of the vector.
	ledger cost.Ledger
	// ctx is the one instrumentation context, repointed per NF; its
	// recording buffers collect the whole chain's actions and functions.
	ctx Ctx
	// spans[i] is NF i's span of the recording buffers (the zero
	// LocalRule: recorded nothing).
	spans []mat.LocalRule
}

// nextInfo returns a fresh SlowPathInfo for the vector's next slow
// packet. Growth leaves earlier entries, which results may point at,
// where they are.
func (t *traversal) nextInfo() *SlowPathInfo {
	if t.used == len(t.infos) {
		t.infos = append(t.infos, SlowPathInfo{})
	}
	info := &t.infos[t.used]
	t.used++
	*info = SlowPathInfo{DropIndex: -1}
	return info
}

// batchSeq deals counter shards to Batches round-robin.
var batchSeq atomic.Uint32

// NewBatch returns batch scratch sized for n-packet vectors (0 picks
// DefaultBatchSize). The storage grows on demand if larger vectors
// arrive.
func NewBatch(n int) *Batch {
	if n <= 0 {
		n = DefaultBatchSize
	}
	return &Batch{
		res:    make([]PacketResult, n),
		stage:  make([]staged, n),
		probes: make([]flow.KeyProbe, n),
		shard:  batchSeq.Add(1) & (statsShardCount - 1),
		slow:   &traversal{},
	}
}

// begin resets the per-vector storage for n packets, but for the result
// slots, which process writes, and the stage records, which stage writes.
func (b *Batch) begin(n int) {
	if len(b.res) < n {
		b.res = make([]PacketResult, n)
		b.stage = make([]staged, n)
		b.probes = make([]flow.KeyProbe, n)
	}
	b.slow.used = 0
	b.slow.ledger.Reset()
}

// staged is what the stage pass learned about one packet of a vector
// before the ladder runs: its fast shape, its flow key, and where its
// flow is found — the vector's earlier packet with the same key, or a
// slot of the vector's one staged lookup.
type staged struct {
	kHi, kLo uint64
	// prev is the vector's earlier packet with the key.
	prev *staged
	// h is the handle the ladder resolved the packet to (the zero Handle:
	// none); it lives as long as the vector.
	h flow.Handle
	// probe is the key's slot in Batch.probes, on its first packet.
	probe int32
	// chain is 1 + the previous packet in the key's dedup bucket.
	chain  int32
	shaped bool
}

// dedupBuckets is the size of the stage's key-to-packet index.
const dedupBuckets = 64

// dedupBucket spreads a flow key over the stage's dedup buckets.
func dedupBucket(kHi, kLo uint64) uint32 {
	return uint32((kHi ^ bits.RotateLeft64(kLo, 29)) * 0x9e3779b97f4a7c15 >> (64 - 6))
}

// stage runs the fast-shape gate once for every packet of the vector —
// parse, SYN/FIN/RST, flow key — and links each fast-shaped packet to the
// vector's earlier packet with the same key, through a small hash index;
// the first packet of each key is looked up by one staged lookup
// (flow.Table.AcquireKeys). The ladder consumes the result (flowFor) in
// arrival order. Nothing here mutates an entry or the clock.
func (e *Engine) stage(pkts []*packet.Packet, b *Batch) {
	flows := e.class.Flows()
	b.seen = flows.Seen()
	clear(b.heads[:])
	n := 0
	for i, pkt := range pkts {
		st := &b.stage[i]
		st.shaped = false
		if !pkt.Parsed() && pkt.Parse() != nil {
			continue // full Classify reproduces the error
		}
		if flags, isTCP := pkt.TCPFlags(); isTCP &&
			flags&(packet.TCPFlagSYN|packet.TCPFlagFIN|packet.TCPFlagRST) != 0 {
			continue
		}
		kHi, kLo, ok := pkt.FlowKey()
		if !ok {
			continue
		}
		*st = staged{kHi: kHi, kLo: kLo, shaped: true}
		head := &b.heads[dedupBucket(kHi, kLo)]
		for j := *head; j != 0; j = b.stage[j-1].chain {
			if p := &b.stage[j-1]; p.kHi == kHi && p.kLo == kLo {
				st.prev = p
				break
			}
		}
		st.chain, *head = *head, int32(i+1)
		if st.prev == nil {
			b.probes[n].Hi, b.probes[n].Lo = kHi, kLo
			st.probe = int32(n)
			n++
		}
	}
	flows.AcquireKeys(b.probes[:n])
}

// flowFor resolves a staged packet to its flow's handle. The handle the
// vector's earlier packet with the key was resolved to is a hit, served
// while its entry is not Gone (DESIGN §16); otherwise the packet probes
// the table: the staged lookup's handle, if its entry is not Gone, else
// AcquireKey's — the entry has since been unlinked, or the earlier packet
// found nothing and was classified onto the key. It reports ok=false when
// the flow is not tracked — the caller falls back to full classification.
func (b *Batch) flowFor(flows *flow.Table, st *staged) (flow.Handle, bool) {
	if p := st.prev; p != nil && p.h != (flow.Handle{}) && !p.h.Gone() {
		b.flowHits++
		st.h = p.h
		return p.h, true
	}
	b.flowMisses++
	h, ok := flow.Handle{}, false
	if st.prev == nil {
		if h, ok = b.probes[st.probe].Handle(); !ok {
			// Untracked when staged, and the key's first packet of the
			// vector: full Classify, which the caller falls back to,
			// decides as the fast path would for a flow tracked since (by
			// a SYN earlier in the vector, or by another worker).
			return h, false
		}
	}
	if !ok || h.Gone() {
		h, ok = flows.AcquireKey(st.kHi, st.kLo)
	}
	st.h = h
	return h, ok
}

// tally is the hub's half of a finished packet's account, which every
// packet takes under a hub (the counters' half is b.delta).
func (b *Batch) tally(e *Engine, res *PacketResult) {
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

// publish adds the vector's counted ticks to the clock: at its end, and
// before the recording gate or the ladder reads the clock for a packet,
// which so reads its own tick — a vector of one's — never a later
// packet's (§11, "Interleaved ticks").
func (e *Engine) publish(b *Batch) {
	if b.ticks != 0 {
		e.clock.Add(b.ticks)
		b.ticks = 0
	}
}

// flushStats publishes the vector's ticks and folds the batch-local
// counter deltas into the shared sharded counters.
func (e *Engine) flushStats(b *Batch) {
	e.publish(b)
	b.flushTel(e)
	// Cache hit rates are implementation telemetry, not behavior: they
	// go to the hub, never into the oracle-compared Stats. Without a hub
	// they are dropped, not kept for a later engine to fold in one lump.
	if t := e.tel; t != nil {
		foldCount(t.flowCacheHits, &b.flowHits)
		foldCount(t.flowCacheMisses, &b.flowMisses)
	} else {
		b.flowHits, b.flowMisses = 0, 0
	}
	e.stats[b.shard].fold(&b.delta)
	b.delta = statsDelta{}
}

// ProcessBatch classifies and processes a vector of packets in arrival
// order — the engine's one data path; ProcessPacket is a vector of one.
// A stage pass links every fast-shaped packet to its key's earlier
// packet, with one staged lookup for each key's first; then, packet by
// packet, its classification and rule are loads off its flow's entry, its event
// checks guards on the rule; results go to preallocated storage, and the
// clock and counters take a few updates a vector. The vector size never changes
// what a packet observes (the oracle holds vectors of 1 and 32
// bit-identical), and arrival order is kept: NFs keep cross-flow state,
// so reordering could change verdicts. The returned results are the
// Batch's slots, one a packet in order, valid until its next use; the
// slice is capped at its length, so an append by the caller never writes
// into the Batch. Processing stops at the first failing packet, whose
// predecessors stay accounted. The vector holds the read side of its
// Batch's fence shard (Engine.exclusive) from first packet to last.
func (e *Engine) ProcessBatch(pkts []*packet.Packet, b *Batch) ([]PacketResult, error) {
	fence := &e.stats[b.shard].fence
	fence.RLock()
	b.begin(len(pkts))
	if e.opts.EnableSpeedyBox {
		e.stage(pkts, b)
	}
	for i, pkt := range pkts {
		if err := e.process(pkt, &b.stage[i], &b.res[i], b); err != nil {
			e.flushStats(b)
			fence.RUnlock()
			return nil, err
		}
	}
	e.flushStats(b)
	fence.RUnlock()
	return b.res[:len(pkts):len(pkts)], nil
}

// process is the per-packet decision ladder: classify, eviction fault,
// one arm per packet kind, account. st is the packet's stage record and
// res its slot in b, never cleared: each arm writes res whole — a fast
// packet's account in res.Fast, a slow packet's in a SlowPathInfo drawn
// from b's traversal scratch.
func (e *Engine) process(pkt *packet.Packet, st *staged, res *PacketResult, b *Batch) error {
	var (
		fid           flow.FID
		kind          classifier.Kind
		h             flow.Handle
		rule          *mat.GlobalRule
		fixed, header uint64
		plain         bool
	)
	// The staged flow lookup belongs to SpeedyBox. The baseline engine —
	// every oracle's reference — classifies through the full Classify
	// alone, independent of the code it polices.
	fastShaped := false
	if e.opts.EnableSpeedyBox && st.shaped {
		h, fastShaped = e.classifyFast(st, pkt, b)
	}
	if fastShaped {
		// Established data packet: Subsequent with a live rule (or its
		// summary), else the flow's initial packet (or a re-record after
		// eviction or staleness) — the decision Classify asks Engine.serves.
		fid, kind = h.FID(), classifier.KindInitial
		if fixed, header, plain = h.Plain(e.global.Epoch()); !plain {
			rule = e.global.Live(h)
		}
		if rule != nil || plain {
			kind = classifier.KindSubsequent
		} else {
			pkt.Meta.Initial = true
		}
	} else {
		// Unparseable, handshake, FIN/RST, untracked or not-yet-
		// established flow: the full state machine.
		var cls classifier.Result
		if err := e.classify(pkt, st, &cls); err != nil {
			return err
		}
		fid, kind, h = cls.FID, cls.Kind, cls.Handle
	}
	b.ticks++

	// Fault: flow-table eviction pressure — the MAT "ran out of space"
	// for this flow. Consolidated state is evicted (the next packet
	// re-records); flow tracking and NF-internal state survive, exactly
	// as a real table eviction leaves them. It strikes after the kind is
	// decided: a Subsequent packet whose rule was just evicted falls
	// back to the slow path, it does not re-record as Initial.
	if e.faults != nil && e.opts.EnableSpeedyBox &&
		e.faults.Should(fault.KindEvictPressure, fid) {
		e.evictConsolidated(h)
		rule, plain = e.global.Live(h), false // the summary went with the rule
	}

	var err error
	switch {
	case kind == classifier.KindSubsequent && plain:
		// The summary's price and nothing else; one count.
		res.Fast = FastPathInfo{}
		res.Fast.FixedCycles, res.Fast.HeaderCycles = fixed, header
		served(res, fid, kind, VerdictForward, fixed+header)
		b.delta.plain++
		if e.tel != nil {
			b.tally(e, res)
		}
		return nil
	case kind == classifier.KindSubsequent:
		err = e.fastPathInto(h, rule, kind, pkt, res, b)
	case kind == classifier.KindFinal:
		if rule = e.global.Live(h); rule != nil {
			err = e.fastPathInto(h, rule, kind, pkt, res, b)
		} else {
			err = e.slowPath(h, kind, pkt, false, res, b)
		}
		if err == nil {
			e.teardown(e.class.Flows().EditHandle(h), CauseFinTeardown)
			res.TornDown = true
		}
	case kind == classifier.KindInitial:
		// The recording gate and the ladder read the clock.
		e.publish(b)
		recording := e.tryBeginRecording(h)
		err = e.slowPath(h, kind, pkt, recording, res, b)
		if recording {
			h.Unclaim()
		}
	default: // KindHandshake
		err = e.slowPath(h, kind, pkt, false, res, b)
	}
	if err != nil {
		return err
	}
	b.delta.add(res)
	if e.tel != nil {
		b.tally(e, res)
	}
	return nil
}

// classifyFast classifies one fast-shaped packet — a plain data packet
// (no SYN/FIN/RST) of an established, tracked flow, as the stage pass
// found it — through the handle flowFor resolves: a load of the state
// word replaces Classify's hashes and probe, and nothing shared is
// written but a seen stamp a sweep asks for (flow.Handle.Touch). It
// returns the flow's handle; an untracked or not-yet-established flow
// reports ok=false, mutating nothing, for the full Classify.
func (e *Engine) classifyFast(st *staged, pkt *packet.Packet, b *Batch) (flow.Handle, bool) {
	h, ok := b.flowFor(e.class.Flows(), st)
	if !ok || !h.Touch(b.seen) {
		return flow.Handle{}, false
	}
	pkt.Meta.FID = uint32(h.FID())
	pkt.Meta.HasFID = true
	return h, true
}
