package core

import (
	"sync/atomic"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/flow"
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
// copying results — path info and PerNF included — out of the Batch's
// reused storage before the next vector overwrites it.
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
			out = append(out, *r.clone())
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
	evt.armed.Store(1)
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
	evt2.armed.Store(1)
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

// neighbourArmer is fakeEventNF whose event word every flow shares: a
// packet from source port trigger sets it, in the middle of a vector.
type neighbourArmer struct {
	fakeEventNF
	trigger uint16
}

func (f *neighbourArmer) Process(ctx *Ctx, pkt *packet.Packet) (Verdict, error) {
	if pkt.SrcPort() == f.trigger {
		f.armed.Store(1)
	}
	return f.fakeEventNF.Process(ctx, pkt)
}

// TestProcessBatchArmMidBatch: a flow's context holds a rule whose guard
// is quiet when a neighbour's slow-path packet, in the same vector, sets
// the guard's word. The flow's very next packet must find the guard
// holding and fire.
func TestProcessBatchArmMidBatch(t *testing.T) {
	nf := &neighbourArmer{fakeEventNF: fakeEventNF{name: "lb"}, trigger: 8452}
	eng, err := NewEngine([]NF{nf}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(4)
	fc := warmCtx(t, eng, b, 8451, 3)
	if r := eng.global.Live(fc.h); r == nil || r.Guards == nil || event.Holds(r.Guards) {
		t.Fatal("warm flow has no rule with a quiet guard")
	}
	rs, err := eng.ProcessBatch([]*packet.Packet{
		udpPkt(t, 8451, "verdict still valid"),
		udpPkt(t, 8452, "neighbour arms"),
		udpPkt(t, 8451, "must fire"),
	}, b)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Verdict != VerdictForward || rs[0].Fast.EventsFired != 0 {
		t.Errorf("packet before the arming: verdict %v, %d fired", rs[0].Verdict, rs[0].Fast.EventsFired)
	}
	if rs[1].Path != PathSlow {
		t.Errorf("the neighbour's first packet took path %v, want the slow path", rs[1].Path)
	}
	if rs[2].Path != PathFast || rs[2].Fast.EventsFired != 1 || rs[2].Verdict != VerdictDrop {
		t.Errorf("packet after the arming: path=%v fired=%d verdict=%v, want the event to fire and drop (stale verdict served?)",
			rs[2].Path, rs[2].Fast.EventsFired, rs[2].Verdict)
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

// warmCtx drives n packets of the UDP flow through b and returns the
// flow's keyed context, which must exist afterwards.
func warmCtx(t *testing.T, eng *Engine, b *Batch, port uint16, n int) *flowCtx {
	t.Helper()
	var fid flow.FID
	for i := 0; i < n; i++ {
		rs, err := eng.ProcessBatch([]*packet.Packet{udpPkt(t, port, "warm")}, b)
		if err != nil {
			t.Fatal(err)
		}
		fid = rs[0].FID
	}
	for i := range b.flows {
		if fc := &b.flows[i]; fc.used && fc.h.FID() == fid {
			return fc
		}
	}
	t.Fatalf("flow %v (port %d) has no context after %d packets", fid, port, n)
	return nil
}

// TestRuleCacheGenerationValidation exercises the flow context's rule
// directly: it is read off the entry the context's handle points at, so
// a neighbour's Install, MarkStale and Remove leave it — and the
// context's one generation — alone, and every mutation of the flow's own
// rule — MarkStale, Remove, AdvanceEpoch — shows on the very next read.
func TestRuleCacheGenerationValidation(t *testing.T) {
	eng := newBatchTestEngine(t, DefaultOptions())
	b := NewBatch(4)
	fc := warmCtx(t, eng, b, 8701, 2)
	lookup := func(wantRule bool, when string) *mat.GlobalRule {
		t.Helper()
		rule := eng.global.Live(fc.h)
		if (rule != nil) != wantRule {
			t.Fatalf("%s: rule=%v, want rule=%v", when, rule != nil, wantRule)
		}
		if live, _ := eng.Global().LookupLive(fc.h.FID()); live != rule {
			t.Fatalf("%s: the context reads %p, the FID index %p", when, rule, live)
		}
		return rule
	}
	r1 := lookup(true, "warm")

	res, err := eng.ProcessPacket(udpPkt(t, 8702, "neighbour"))
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Global().MarkStale(res.FID) || !eng.Global().Remove(res.FID) {
		t.Fatal("the neighbour had no rule to mark and remove")
	}
	if r := lookup(true, "after a neighbour's Install, MarkStale and Remove"); r != r1 || fc.gen != eng.class.Flows().Gen() {
		t.Fatalf("a neighbour's mutations cost the context its rule (%p, was %p) or its generation", r, r1)
	}

	// A read must miss rather than serve a rule the table no longer
	// vouches for; the next packet re-records the flow.
	rerecord := func() {
		t.Helper()
		if got := warmCtx(t, eng, b, 8701, 2); got != fc {
			t.Fatal("re-recording moved the flow to another context")
		}
		lookup(true, "re-recorded")
	}
	if !eng.Global().MarkStale(fc.h.FID()) {
		t.Fatal("MarkStale found no rule")
	}
	lookup(false, "after MarkStale")
	rerecord()
	if !eng.Global().Remove(fc.h.FID()) {
		t.Fatal("Remove found no rule")
	}
	lookup(false, "after Remove")
	rerecord()
	eng.Global().AdvanceEpoch()
	lookup(false, "after AdvanceEpoch")
}

// classifyOne stages a vector of one packet and classifies it through
// b's flow contexts, outside the ladder, returning the context it
// resolved to.
func classifyOne(eng *Engine, b *Batch, pkt *packet.Packet) (*flowCtx, bool) {
	b.begin(1)
	eng.stage([]*packet.Packet{pkt}, b)
	if !b.stage[0].shaped {
		return nil, false
	}
	if _, ok := eng.classifyFast(&b.stage[0], pkt, b); !ok {
		return nil, false
	}
	return b.stage[0].fc, true
}

// TestRuleCacheEviction: four contexts holding four flows; a fifth flow
// takes exactly one of them, and the other three keep theirs.
func TestRuleCacheEviction(t *testing.T) {
	eng := newBatchTestEngine(t, DefaultOptions())
	b := NewBatch(4)
	var fids [flowCacheWays]flow.FID
	for i := range fids {
		fids[i] = warmCtx(t, eng, b, uint16(8801+i), 2).h.FID()
	}
	if _, err := eng.ProcessPacket(udpPkt(t, 8805, "fifth")); err != nil {
		t.Fatal(err)
	}
	fifth, ok := classifyOne(eng, b, udpPkt(t, 8805, "fifth"))
	if !ok {
		t.Fatal("fifth flow not fast-shaped")
	}
	evicted := 0
	for _, fid := range fids {
		held := false
		for j := range b.flows {
			if fc := &b.flows[j]; fc != fifth && fc.used && fc.h.FID() == fid {
				held = true
			}
		}
		if !held {
			evicted++
		}
	}
	if evicted != 1 {
		t.Fatalf("the fifth flow evicted %d contexts, want 1", evicted)
	}
}

// lateEventNF is fakeEventNF with the registration switched off until
// register is set: flows recorded before that have no events.
type lateEventNF struct {
	fakeEventNF
	register atomic.Bool
}

func (f *lateEventNF) Process(ctx *Ctx, pkt *packet.Packet) (Verdict, error) {
	if f.register.Load() {
		return f.fakeEventNF.Process(ctx, pkt)
	}
	ctx.Charge(ctx.Model.Parse + ctx.Model.Classify)
	return VerdictForward, ctx.AddHeaderAction(mat.Forward())
}

// TestRekeyClearsContext: a cached flow is torn down and its 5-tuple
// comes back as a new connection whose recording registers an (armed)
// event. The warm Batch re-acquires the context; it must not serve the
// old connection's guard-free rule, so the new connection's first
// fast-path packet fires the event and drops.
func TestRekeyClearsContext(t *testing.T) {
	nf := &lateEventNF{fakeEventNF: fakeEventNF{name: "lb"}}
	eng, err := NewEngine([]NF{nf}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(4)
	fc := warmCtx(t, eng, b, 8901, 3)
	old := eng.global.Live(fc.h)
	if old == nil || old.Guards != nil {
		t.Fatalf("warm context: rule=%p, want a guard-free rule", old)
	}
	eng.TeardownFlow(fc.h.FID())
	nf.register.Store(true)
	nf.armed.Store(1)
	if _, err := eng.ProcessPacket(udpPkt(t, 8901, "reborn")); err != nil {
		t.Fatal(err)
	}
	rs, err := eng.ProcessBatch([]*packet.Packet{udpPkt(t, 8901, "re-keyed")}, b)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Path != PathFast || rs[0].Verdict != VerdictDrop || rs[0].Fast.EventsFired != 1 {
		t.Fatalf("re-keyed packet: path=%v verdict=%v fired=%d, want the new connection's event to fire and drop",
			rs[0].Path, rs[0].Verdict, rs[0].Fast.EventsFired)
	}
	live, _ := eng.Global().LookupLive(rs[0].FID)
	if r := eng.global.Live(fc.h); r == old || r != live || fc.gen != eng.class.Flows().Gen() {
		t.Fatalf("context after re-key: rule %p (old %p, live %p)", r, old, live)
	}
}

// TestOneBatchTwoEngines: the cluster carries a worker's Batch across
// engine instances. Contexts warmed on engine A — keyed ones and the
// scratch one a full classification builds — hold A's handle, rule and
// verdict under the same tuples and FIDs engine B uses; every stamp is
// from A's generation bands, and the scratch context is rebuilt from B's
// own classification, so B's packets must record on B and execute B's
// rules.
func TestOneBatchTwoEngines(t *testing.T) {
	mk := func(dip byte) *Engine {
		eng, err := NewEngine([]NF{
			&fakeModifier{name: "nat", dip: [4]byte{dip, 0, 0, 1}},
			&fakeCounter{name: "monitor"},
		}, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	trace := func() []*packet.Packet {
		pkts := []*packet.Packet{
			tcpPkt(t, 7301, packet.TCPFlagSYN, 0, ""),
			tcpPkt(t, 7301, packet.TCPFlagACK, 1, ""),
		}
		for i := 0; i < 3; i++ {
			pkts = append(pkts, tcpPkt(t, 7301, packet.TCPFlagACK, 2+i, "data"),
				udpPkt(t, 7401, "one"), udpPkt(t, 7402, "two"))
		}
		// The FIN rides the fast path on the scratch context.
		return append(pkts, tcpPkt(t, 7301, packet.TCPFlagFIN|packet.TCPFlagACK, 5, ""))
	}
	b := NewBatch(32)
	a, bEng := mk(99), mk(98)
	for _, run := range []struct {
		eng *Engine
		dip byte
	}{{a, 99}, {bEng, 98}} {
		pkts := trace()
		rs, err := run.eng.ProcessBatch(pkts, b)
		if err != nil {
			t.Fatal(err)
		}
		fast := 0
		for i, r := range rs {
			if r.Kind == classifier.KindHandshake {
				continue
			}
			if got := pkts[i].DstIP(); got != [4]byte{run.dip, 0, 0, 1} {
				t.Errorf("engine %d packet %d (%v, %v): rewritten to %v", run.dip, i, r.Kind, r.Path, got)
			}
			if r.Path == PathFast {
				fast++
			}
		}
		// Three flows record once each; everything after rides the rule.
		st := run.eng.Stats()
		if st.Initial != 3 || st.Consolidations != 3 || st.FastPath != 7 || fast != 7 {
			t.Errorf("engine %d: %+v (fast results %d), want 3 initial, 3 consolidations, 7 fast", run.dip, st, fast)
		}
	}
	if st := a.Stats(); st.Packets != 12 {
		t.Errorf("engine A saw %d packets after B's replay, want its own 12", st.Packets)
	}
}

// TestWarmPathAllocatesNothing: a warm 32-packet vector over cached
// flows allocates nothing, and neither does the fast path on the
// handle a fully classified packet runs on.
func TestWarmPathAllocatesNothing(t *testing.T) {
	// A state-function-only chain leaves packets byte-identical, so one
	// vector can be replayed.
	eng, err := NewEngine([]NF{&fakeCounter{name: "monitor"}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(32)
	vec := make([]*packet.Packet, 32)
	for i := range vec {
		vec[i] = udpPkt(t, uint16(9101+i%4), "steady")
	}
	run := func() {
		if _, err := eng.ProcessBatch(vec, b); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if n := testing.AllocsPerRun(50, run); n != 0 {
		t.Errorf("warm 32-packet vector: %v allocs, want 0", n)
	}
	h := b.flows[0].h
	var res PacketResult
	classified := func() {
		res = PacketResult{}
		if err := eng.fastPathInto(h, eng.global.Live(h), classifier.KindSubsequent, vec[0], &res, b); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(50, classified); n != 0 || res.Path != PathFast {
		t.Errorf("classified handle: %v allocs, path %v, want 0 on the fast path", n, res.Path)
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
// rules leave exactly the resident rules behind, and cost the one table
// there is — the flow table's two indexes a shard — at most a
// compaction or two each, not a rebuilt array per install and per
// removal. The Global MAT publishes nothing: a rule is a word on its
// flow's entry.
func TestFlowChurnMutatesGlobalMATInPlace(t *testing.T) {
	const resident, conns = 32768, 1024
	eng := newBatchTestEngine(t, DefaultOptions())
	var pkts []*packet.Packet
	for i := 0; i < resident; i++ {
		pkts = append(pkts, udpPkt(t, uint16(i), "resident"))
	}
	runBatched(t, eng, pkts, 32)
	g, flows := eng.Global(), eng.class.Flows()
	if g.Len() != resident {
		t.Fatalf("Len = %d after set-up, want %d", g.Len(), resident)
	}

	before := flows.Rebuilds()
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
	if got := flows.Rebuilds() - before; got > 4*flow.ShardCount || g.Publishes() != 0 {
		t.Errorf("%d connections published %d flow-table arrays (want at most %d) and %d Global MAT ones (want none)",
			conns, got, 4*flow.ShardCount, g.Publishes())
	}
	if c := flows.Counts(); c.Dead > 2*conns || c.Records != 0 || c.Detached != 0 {
		t.Errorf("%+v: want at most two tombstones per torn-down connection (%d), no record — the resident flows' recordings are their rules' — and nothing detached", c, 2*conns)
	}
	if err := eng.CheckRecords(); err != nil {
		t.Error(err)
	}
}

// TestRuleCacheHitCounters: the hub's hit/miss pair counts packets, not
// lookups — one keyed probe per fast-shaped packet — shows nearly all
// hits while four flows share a worker's four contexts, and shows the
// cost of the flow table's single generation once another flow churns:
// every removal sends every cached handle back to the table, which is a
// miss, not a hit. There is no second pair: the rule is read off the
// entry the handle holds, so no install or removal invalidates it.
func TestRuleCacheHitCounters(t *testing.T) {
	hub := telemetry.NewHub()
	opts := DefaultOptions()
	opts.Telemetry = hub
	eng := newBatchTestEngine(t, opts)
	type pair struct{ hits, misses uint64 }
	read := func() pair {
		c := hub.Registry.Snapshot().Counters
		for _, gone := range []string{"speedybox_rule_cache_hits_total", "speedybox_rule_cache_misses_total"} {
			if _, ok := c[gone]; ok {
				t.Fatalf("%s is still registered", gone)
			}
		}
		return pair{c["speedybox_flow_cache_hits_total"], c["speedybox_flow_cache_misses_total"]}
	}
	delta := func(pkts []*packet.Packet) pair {
		t.Helper()
		f0 := read()
		runBatched(t, eng, pkts, 32)
		f1 := read()
		return pair{f1.hits - f0.hits, f1.misses - f0.misses}
	}
	fourFlows := func(n int) []*packet.Packet {
		var pkts []*packet.Packet
		for i := 0; i < n; i++ {
			pkts = append(pkts, udpPkt(t, uint16(9001+i%4), "steady"))
		}
		return pkts
	}

	// Quiet, from cold: every packet is fast-shaped and probes once; all
	// but each flow's recording packet ride the fast path.
	const n = 512
	flows := delta(fourFlows(n))
	if got := flows.hits + flows.misses; got != n {
		t.Errorf("4-flow trace: %d flow probes counted over %d fast-shaped packets", got, n)
	}
	if fast := eng.Stats().FastPath; fast != n-4 || flows.hits*100 < n*95 {
		t.Errorf("4-flow trace: %d fast-path packets (want %d), flows %+v over %d packets (want >= 95%% hits)", fast, n-4, flows, n)
	}

	// The same four flows, with one short connection in every vector:
	// its install and removal cost the steady flows' rules nothing —
	// they stay on the fast path — and each FIN's teardown moves the
	// flow-table generation, so each of the four steady flows re-acquires
	// its handle once per vector.
	const vectors = n / 28
	var pkts []*packet.Packet
	for v := 0; v < vectors; v++ {
		pkts = append(pkts, fourFlows(28)...)
		pkts = append(pkts, tcpLifecycle(t, uint16(100+v))...)
	}
	fastBefore := eng.Stats().FastPath
	churnFlows := delta(pkts)
	t.Logf("quiet flows %+v, churning flows %+v", flows, churnFlows)
	if got := eng.Stats().FastPath - fastBefore; got != 29*vectors {
		t.Errorf("with a churning flow: %d fast-path packets, want the steady flows' %d and each connection's FIN", got, 29*vectors)
	}
	if churnFlows.misses < 4*vectors {
		t.Errorf("with a churning flow: flows %+v over %d vectors, want >= 4 revalidations counted as misses per vector", churnFlows, vectors)
	}
}
