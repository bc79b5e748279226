package core

import (
	"testing"

	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
)

// runScalar replays pkts one ProcessPacket at a time — vectors of one
// on the engine's pooled Batch — collecting value copies of the
// results.
func runScalar(t *testing.T, eng *Engine, pkts []*packet.Packet) []PacketResult {
	t.Helper()
	out := make([]PacketResult, 0, len(pkts))
	for i, p := range pkts {
		r, err := eng.ProcessPacket(p)
		if err != nil {
			t.Fatalf("scalar packet %d: %v", i, err)
		}
		out = append(out, *r)
	}
	return out
}

// runBatched replays pkts through ProcessBatch in vec-sized vectors,
// copying results out of the Batch's reused storage before the next
// vector overwrites it.
func runBatched(t *testing.T, eng *Engine, pkts []*packet.Packet, vec int) []PacketResult {
	t.Helper()
	b := NewBatch(vec)
	out := make([]PacketResult, 0, len(pkts))
	for off := 0; off < len(pkts); off += vec {
		end := off + vec
		if end > len(pkts) {
			end = len(pkts)
		}
		rs, err := eng.ProcessBatch(pkts[off:end], b)
		if err != nil {
			t.Fatalf("batch at offset %d: %v", off, err)
		}
		for _, r := range rs {
			out = append(out, *r)
		}
	}
	return out
}

// compareRuns asserts packet-for-packet agreement on everything the
// data path decides: classification kind, path taken, verdict and the
// modeled work.
func compareRuns(t *testing.T, scalar, batched []PacketResult) {
	t.Helper()
	if len(scalar) != len(batched) {
		t.Fatalf("result counts differ: scalar %d, batched %d", len(scalar), len(batched))
	}
	for i := range scalar {
		s, b := &scalar[i], &batched[i]
		if s.FID != b.FID || s.Kind != b.Kind || s.Path != b.Path || s.Verdict != b.Verdict {
			t.Errorf("packet %d: scalar {fid=%v kind=%v path=%v verdict=%v} batched {fid=%v kind=%v path=%v verdict=%v}",
				i, s.FID, s.Kind, s.Path, s.Verdict, b.FID, b.Kind, b.Path, b.Verdict)
		}
		if s.WorkCycles != b.WorkCycles {
			t.Errorf("packet %d: work cycles scalar %d, batched %d", i, s.WorkCycles, b.WorkCycles)
		}
	}
}

// mixedTrace builds an interleave of two TCP flows (full handshakes)
// and two UDP flows, fresh copies each call so scalar and batched
// engines each mutate their own packets.
func mixedTrace(t *testing.T) []*packet.Packet {
	t.Helper()
	var pkts []*packet.Packet
	for _, port := range []uint16{7101, 7102} {
		pkts = append(pkts,
			tcpPkt(t, port, packet.TCPFlagSYN, 0, ""),
			tcpPkt(t, port, packet.TCPFlagACK, 1, ""))
	}
	for i := 0; i < 20; i++ {
		pkts = append(pkts,
			tcpPkt(t, 7101, packet.TCPFlagACK, 2+i, "alpha data"),
			udpPkt(t, 7201, "udp one"),
			tcpPkt(t, 7102, packet.TCPFlagACK, 2+i, "beta data"),
			udpPkt(t, 7202, "udp two"))
	}
	pkts = append(pkts,
		tcpPkt(t, 7101, packet.TCPFlagFIN|packet.TCPFlagACK, 22, ""),
		tcpPkt(t, 7102, packet.TCPFlagFIN|packet.TCPFlagACK, 22, ""))
	return pkts
}

func newBatchTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	eng, err := NewEngine([]NF{
		&fakeModifier{name: "nat", dip: [4]byte{99, 0, 0, 1}},
		&fakeCounter{name: "monitor"},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestProcessBatchMatchesScalar: the same mixed trace — handshakes,
// FINs, initial packets, fast-path runs — as vectors of one through
// ProcessPacket and as vectors of 1, 3, 8 and 32 through ProcessBatch
// must agree on every per-packet decision and on the final aggregate
// counters: the vector size is not observable.
func TestProcessBatchMatchesScalar(t *testing.T) {
	for _, vec := range []int{1, 3, 8, 32} {
		scalarEng := newBatchTestEngine(t, DefaultOptions())
		batchEng := newBatchTestEngine(t, DefaultOptions())
		scalar := runScalar(t, scalarEng, mixedTrace(t))
		batched := runBatched(t, batchEng, mixedTrace(t), vec)
		compareRuns(t, scalar, batched)
		if s, b := scalarEng.Stats(), batchEng.Stats(); s != b {
			t.Errorf("vec=%d: stats diverge\nscalar:  %+v\nbatched: %+v", vec, s, b)
		}
	}
}

// TestProcessBatchBaselineMatchesScalar: the baseline engine stays on
// the original-chain path packet for packet at every vector size.
func TestProcessBatchBaselineMatchesScalar(t *testing.T) {
	scalarEng := newBatchTestEngine(t, BaselineOptions())
	batchEng := newBatchTestEngine(t, BaselineOptions())
	scalar := runScalar(t, scalarEng, mixedTrace(t))
	batched := runBatched(t, batchEng, mixedTrace(t), 8)
	compareRuns(t, scalar, batched)
	for i := range batched {
		if batched[i].Path != PathSlow {
			t.Fatalf("packet %d: baseline engine took %v", i, batched[i].Path)
		}
	}
}

// TestProcessBatchMixedRecordedUnrecorded: one vector holding fast-path
// packets of a consolidated flow interleaved with a brand-new flow. The
// new flow's first packet must record over the slow path and its second
// packet — still in the same vector — must already ride the fast path.
func TestProcessBatchMixedRecordedUnrecorded(t *testing.T) {
	eng := newBatchTestEngine(t, DefaultOptions())
	// Consolidate flow A with one initial packet.
	if _, err := eng.ProcessPacket(udpPkt(t, 8101, "warm")); err != nil {
		t.Fatal(err)
	}
	b := NewBatch(8)
	vec := []*packet.Packet{
		udpPkt(t, 8101, "a1"), // recorded: fast
		udpPkt(t, 8102, "b1"), // unrecorded: initial, slow
		udpPkt(t, 8101, "a2"), // fast
		udpPkt(t, 8102, "b2"), // now consolidated: fast, same vector
	}
	rs, err := eng.ProcessBatch(vec, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind classifier.Kind
		path Path
	}{
		{classifier.KindSubsequent, PathFast},
		{classifier.KindInitial, PathSlow},
		{classifier.KindSubsequent, PathFast},
		{classifier.KindSubsequent, PathFast},
	}
	for i, w := range want {
		if rs[i].Kind != w.kind || rs[i].Path != w.path {
			t.Errorf("packet %d: kind=%v path=%v, want kind=%v path=%v",
				i, rs[i].Kind, rs[i].Path, w.kind, w.path)
		}
	}
}

// TestProcessBatchDropMidBatch: a dropping chain must report the drop
// verdict for every packet of the vector — the consolidated rule drops
// on the fast path from the second packet on — with aggregate drop
// counters matching the scalar run.
func TestProcessBatchDropMidBatch(t *testing.T) {
	mk := func() *Engine {
		eng, err := NewEngine([]NF{&fakeDropper{name: "acl"}}, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	trace := func() []*packet.Packet {
		var pkts []*packet.Packet
		for i := 0; i < 12; i++ {
			pkts = append(pkts, udpPkt(t, 8301, "doomed"))
		}
		return pkts
	}
	scalarEng, batchEng := mk(), mk()
	scalar := runScalar(t, scalarEng, trace())
	batched := runBatched(t, batchEng, trace(), 8)
	compareRuns(t, scalar, batched)
	for i, r := range batched {
		if r.Verdict != VerdictDrop {
			t.Errorf("packet %d: verdict %v, want drop", i, r.Verdict)
		}
	}
	if st := batchEng.Stats(); st.Dropped != 12 {
		t.Errorf("dropped = %d, want 12", st.Dropped)
	}
}

// TestProcessBatchStaleRuleMidBatch: an event firing on one packet of a
// vector rewrites the flow's rule; the very next packet of the same
// vector must see the updated rule even though the worker's cache still
// holds the pre-update pointer — the generation check forces the
// re-lookup.
func TestProcessBatchStaleRuleMidBatch(t *testing.T) {
	evt := &fakeEventNF{name: "lb"}
	mkEng := func(e *fakeEventNF) *Engine {
		eng, err := NewEngine([]NF{e}, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := mkEng(evt)
	// Consolidate, then take one fast-path packet to warm the cache.
	if _, err := eng.ProcessPacket(udpPkt(t, 8401, "warm")); err != nil {
		t.Fatal(err)
	}
	b := NewBatch(4)
	if _, err := eng.ProcessBatch([]*packet.Packet{udpPkt(t, 8401, "cached")}, b); err != nil {
		t.Fatal(err)
	}
	// Arm the event: the next fast-path packet fires it, the Update
	// flips the rule to drop, and the reinstall bumps the MAT
	// generation.
	evt.armed.Store(true)
	rs, err := eng.ProcessBatch([]*packet.Packet{
		udpPkt(t, 8401, "fires event"),
		udpPkt(t, 8401, "must see drop"),
	}, b)
	if err != nil {
		t.Fatal(err)
	}
	// Differential check against a scalar engine driven identically.
	evt2 := &fakeEventNF{name: "lb"}
	eng2 := mkEng(evt2)
	if _, err := eng2.ProcessPacket(udpPkt(t, 8401, "warm")); err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.ProcessPacket(udpPkt(t, 8401, "cached")); err != nil {
		t.Fatal(err)
	}
	evt2.armed.Store(true)
	want := runScalar(t, eng2, []*packet.Packet{
		udpPkt(t, 8401, "fires event"),
		udpPkt(t, 8401, "must see drop"),
	})
	for i := range want {
		if rs[i].Verdict != want[i].Verdict || rs[i].Path != want[i].Path {
			t.Errorf("packet %d: batched {path=%v verdict=%v}, scalar {path=%v verdict=%v}",
				i, rs[i].Path, rs[i].Verdict, want[i].Path, want[i].Verdict)
		}
	}
	if rs[1].Verdict != VerdictDrop {
		t.Errorf("post-event packet verdict = %v, want drop (stale cached rule served?)", rs[1].Verdict)
	}
}

// TestProcessBatchFaultedMatchesScalar: under full eviction pressure
// (every data packet's rule evicted right after classification) the
// engine must degrade identically on vectors of one and of 32 — same
// paths, same fallback counters — with the fault decision taken at the
// same point in the per-packet sequence.
func TestProcessBatchFaultedMatchesScalar(t *testing.T) {
	rates := map[fault.Kind]float64{fault.KindEvictPressure: 1.0}
	mk := func() *Engine {
		eng, err := NewEngine([]NF{
			&fakeModifier{name: "nat", dip: [4]byte{99, 0, 0, 1}},
		}, func() Options {
			o := DefaultOptions()
			o.Faults = fault.New(fault.Config{Seed: 42, Rates: rates})
			return o
		}())
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	trace := func() []*packet.Packet {
		var pkts []*packet.Packet
		for i := 0; i < 24; i++ {
			pkts = append(pkts, udpPkt(t, 8501, "pressured"), udpPkt(t, 8502, "pressured"))
		}
		return pkts
	}
	scalarEng, batchEng := mk(), mk()
	scalar := runScalar(t, scalarEng, trace())
	batched := runBatched(t, batchEng, trace(), 32)
	compareRuns(t, scalar, batched)
	s, b := scalarEng.Stats(), batchEng.Stats()
	if s != b {
		t.Errorf("stats diverge under eviction pressure\nscalar:  %+v\nbatched: %+v", s, b)
	}
	if b.FastPath != 0 {
		t.Errorf("fast-path packets = %d with every rule evicted, want 0", b.FastPath)
	}
}

// TestRuleCacheGenerationValidation exercises the cache directly: a hit
// returns the cached pointer without a map lookup, any MAT mutation
// invalidates it, and Invalidate forgets everything.
func TestRuleCacheGenerationValidation(t *testing.T) {
	eng := newBatchTestEngine(t, DefaultOptions())
	res, err := eng.ProcessPacket(udpPkt(t, 8701, "install"))
	if err != nil {
		t.Fatal(err)
	}
	fid := res.FID
	var rc RuleCache

	r1, ok := eng.lookupRule(fid, &rc)
	if !ok || r1 == nil {
		t.Fatal("no rule after consolidation")
	}
	r2, ok := eng.lookupRule(fid, &rc)
	if !ok || r2 != r1 {
		t.Fatalf("cache hit returned %p, want cached %p", r2, r1)
	}

	// MarkStale bumps the generation; a live lookup must now miss (the
	// rule disagrees with recorded actions) rather than serve the
	// cached pointer.
	if !eng.Global().MarkStale(fid) {
		t.Fatal("MarkStale found no rule")
	}
	if _, ok := eng.lookupRule(fid, &rc); ok {
		t.Fatal("stale rule served from cache after MarkStale")
	}

	rc.Invalidate()
	for i := range rc.entries {
		if rc.entries[i].used {
			t.Fatal("Invalidate left a used entry")
		}
	}
}

// TestRuleCacheEviction: a 4-way cache holding 4 flows must evict the
// round-robin victim when a fifth arrives, and keep serving the
// survivors.
func TestRuleCacheEviction(t *testing.T) {
	eng := newBatchTestEngine(t, DefaultOptions())
	var rc RuleCache
	for i := 0; i < 5; i++ {
		res, err := eng.ProcessPacket(udpPkt(t, uint16(8801+i), "install"))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := eng.lookupRule(res.FID, &rc); !ok {
			t.Fatalf("flow %d: no rule after consolidation", i)
		}
	}
	used := 0
	for i := range rc.entries {
		if rc.entries[i].used {
			used++
		}
	}
	if used != ruleCacheWays {
		t.Fatalf("cache holds %d entries, want %d", used, ruleCacheWays)
	}
}

// tcpLifecycle is one short connection: SYN, handshake ACK, a data
// packet that records and installs the flow's rule, and the FIN that
// removes it.
func tcpLifecycle(t *testing.T, port uint16) []*packet.Packet {
	t.Helper()
	return []*packet.Packet{
		tcpPkt(t, port, packet.TCPFlagSYN, 0, ""),
		tcpPkt(t, port, packet.TCPFlagACK, 1, ""),
		tcpPkt(t, port, packet.TCPFlagACK, 2, "data"),
		tcpPkt(t, port, packet.TCPFlagFIN|packet.TCPFlagACK, 6, ""),
	}
}

// TestFlowChurnMutatesGlobalMATInPlace counts, it does not time: 1 024
// TCP connections set up and torn down beside 32 768 resident UDP
// rules leave exactly the resident rules behind, and cost the table at
// most a compaction or two per shard — not a rebuilt shard per install
// and per removal, which is 2 048 publications.
func TestFlowChurnMutatesGlobalMATInPlace(t *testing.T) {
	const resident, conns = 32768, 1024
	eng := newBatchTestEngine(t, DefaultOptions())
	var pkts []*packet.Packet
	for i := 0; i < resident; i++ {
		pkts = append(pkts, udpPkt(t, uint16(i), "resident"))
	}
	runBatched(t, eng, pkts, 32)
	g := eng.Global()
	if g.Len() != resident {
		t.Fatalf("Len = %d after set-up, want %d", g.Len(), resident)
	}

	before := g.Publishes()
	pkts = pkts[:0]
	for i := 0; i < conns; i++ {
		pkts = append(pkts, tcpLifecycle(t, uint16(1+i))...)
	}
	runBatched(t, eng, pkts, 32)
	if st := eng.Stats(); st.Consolidations != resident+conns {
		t.Fatalf("consolidations = %d, want %d: the connections did not install rules", st.Consolidations, resident+conns)
	}
	if g.Len() != resident || g.StaleLen() != 0 {
		t.Errorf("Len = %d StaleLen = %d after %d connections, want %d and 0", g.Len(), g.StaleLen(), conns, resident)
	}
	if got := g.Publishes() - before; got > 2*mat.ShardCount {
		t.Errorf("%d connections published %d slot arrays, want at most %d", conns, got, 2*mat.ShardCount)
	}
	if g.DeadSlots() > conns {
		t.Errorf("DeadSlots = %d, want at most one per torn-down connection (%d)", g.DeadSlots(), conns)
	}
}

// TestRuleCacheHitCounters: the hub's rule-cache pair shows nearly all
// hits while four flows share a worker's four ways, and shows the cost
// of the table's single generation once another flow churns — every
// install and removal anywhere invalidates every cached rule.
func TestRuleCacheHitCounters(t *testing.T) {
	hub := telemetry.NewHub()
	opts := DefaultOptions()
	opts.Telemetry = hub
	eng := newBatchTestEngine(t, opts)
	ratio := func(run func()) (hits, misses uint64) {
		t.Helper()
		c := hub.Registry.Snapshot().Counters
		h0, m0 := c["speedybox_rule_cache_hits_total"], c["speedybox_rule_cache_misses_total"]
		run()
		c = hub.Registry.Snapshot().Counters
		return c["speedybox_rule_cache_hits_total"] - h0, c["speedybox_rule_cache_misses_total"] - m0
	}
	fourFlows := func(n int) []*packet.Packet {
		var pkts []*packet.Packet
		for i := 0; i < n; i++ {
			pkts = append(pkts, udpPkt(t, uint16(9001+i%4), "steady"))
		}
		return pkts
	}

	const n = 512
	hits, misses := ratio(func() { runBatched(t, eng, fourFlows(n), 32) })
	if hits+misses < n || hits*100 < (hits+misses)*95 {
		t.Errorf("4-flow trace: %d hits, %d misses over %d packets, want >= 95%% hits", hits, misses, n)
	}

	// The same four flows, with one short connection in every vector.
	var pkts []*packet.Packet
	for v := 0; v < n/28; v++ {
		pkts = append(pkts, fourFlows(28)...)
		pkts = append(pkts, tcpLifecycle(t, uint16(100+v))...)
	}
	churnHits, churnMisses := ratio(func() { runBatched(t, eng, pkts, 32) })
	lookups := churnHits + churnMisses
	t.Logf("quiet %d/%d hits, churning %d/%d", hits, hits+misses, churnHits, lookups)
	if churnMisses < uint64(2*(n/28)) || churnHits*100 >= lookups*95 {
		t.Errorf("with a churning flow: %d hits, %d misses, want a visibly lower hit share than %d/%d",
			churnHits, churnMisses, hits, hits+misses)
	}
}
