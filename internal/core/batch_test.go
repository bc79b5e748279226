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
// vector, resolved to the same entry by the stage pass, must see the
// updated rule: the rule is read off the entry for every packet.
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

// TestProcessBatchArmMidBatch: a warm flow's rule has a guard that is
// quiet when a neighbour's slow-path packet, in the same vector, sets
// the guard's word. The flow's very next packet must find the guard
// holding and fire.
func TestProcessBatchArmMidBatch(t *testing.T) {
	nf := &neighbourArmer{fakeEventNF: fakeEventNF{name: "lb"}, trigger: 8452}
	eng, err := NewEngine([]NF{nf}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(4)
	h := warmFlow(t, eng, b, 8451, 3)
	if r := eng.global.Live(h); r == nil || r.Guards == nil || event.Holds(r.Guards) {
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

// warmFlow drives n packets of the UDP flow through b and returns the
// flow's handle, which must exist afterwards.
func warmFlow(t *testing.T, eng *Engine, b *Batch, port uint16, n int) flow.Handle {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := eng.ProcessBatch([]*packet.Packet{udpPkt(t, port, "warm")}, b); err != nil {
			t.Fatal(err)
		}
	}
	// The key is read off a packet the chain has not rewritten.
	kHi, kLo, _ := udpPkt(t, port, "warm").FlowKey()
	h, ok := eng.class.Flows().AcquireKey(kHi, kLo)
	if !ok {
		t.Fatalf("flow of port %d is not tracked after %d packets", port, n)
	}
	return h
}

// TestOwnRuleMutationsShowNextVector: the rule a packet is served is read
// off its flow's entry, so a neighbour's Install, MarkStale and Remove
// leave a warm flow's rule and fast path alone, and every mutation of
// the flow's own rule — MarkStale, Remove, AdvanceEpoch — sends its very
// next packet back to the chain.
func TestOwnRuleMutationsShowNextVector(t *testing.T) {
	eng := newBatchTestEngine(t, DefaultOptions())
	b := NewBatch(4)
	h := warmFlow(t, eng, b, 8701, 2)
	send := func(wantPath Path, when string) {
		t.Helper()
		rs, err := eng.ProcessBatch([]*packet.Packet{udpPkt(t, 8701, "next")}, b)
		if err != nil {
			t.Fatal(err)
		}
		if rs[0].Path != wantPath || rs[0].FID != h.FID() {
			t.Fatalf("%s: packet took %v under %v, want %v under %v", when, rs[0].Path, rs[0].FID, wantPath, h.FID())
		}
	}
	r1 := eng.global.Live(h)
	res, err := eng.ProcessPacket(udpPkt(t, 8702, "neighbour"))
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Global().MarkStale(res.FID) || !eng.Global().Remove(res.FID) {
		t.Fatal("the neighbour had no rule to mark and remove")
	}
	send(PathFast, "after a neighbour's Install, MarkStale and Remove")
	if r := eng.global.Live(h); r != r1 {
		t.Fatalf("a neighbour's mutations replaced the flow's rule (%p, was %p)", r, r1)
	}
	// AdvanceEpoch goes last: the engine's chain is of the epoch it
	// retires, so what the flow records afterwards is never served.
	for _, m := range []struct {
		when      string
		mutate    func() bool
		rerecords bool
	}{
		{"after MarkStale", func() bool { return eng.Global().MarkStale(h.FID()) }, true},
		{"after Remove", func() bool { return eng.Global().Remove(h.FID()) }, true},
		{"after AdvanceEpoch", func() bool { eng.Global().AdvanceEpoch(); return true }, false},
	} {
		if !m.mutate() {
			t.Fatalf("%s: found no rule", m.when)
		}
		if r := eng.global.Live(h); r != nil {
			t.Fatalf("%s: the entry still serves rule %p", m.when, r)
		}
		send(PathSlow, m.when)
		if m.rerecords {
			send(PathFast, m.when+", re-recorded")
		}
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

// TestReSetUpTupleServedNextVector: a warm flow is torn down and its
// 5-tuple comes back as a new connection whose recording registers an
// (armed) event. The next vector on the warm Batch must be served the new
// connection's entry and rule, not the old connection's guard-free one,
// so its packet fires the event and drops.
func TestReSetUpTupleServedNextVector(t *testing.T) {
	nf := &lateEventNF{fakeEventNF: fakeEventNF{name: "lb"}}
	eng, err := NewEngine([]NF{nf}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(4)
	h := warmFlow(t, eng, b, 8901, 3)
	old := eng.global.Live(h)
	if old == nil || old.Guards != nil {
		t.Fatalf("warm flow: rule=%p, want a guard-free rule", old)
	}
	eng.TeardownFlow(h.FID())
	nf.register.Store(true)
	nf.armed.Store(1)
	reborn, err := eng.ProcessPacket(udpPkt(t, 8901, "reborn"))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := eng.ProcessBatch([]*packet.Packet{udpPkt(t, 8901, "re-keyed")}, b)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Path != PathFast || rs[0].Verdict != VerdictDrop || rs[0].Fast.EventsFired != 1 || rs[0].FID != reborn.FID {
		t.Fatalf("re-keyed packet: path=%v verdict=%v fired=%d fid=%v, want the new connection's (%v) event to fire and drop",
			rs[0].Path, rs[0].Verdict, rs[0].Fast.EventsFired, rs[0].FID, reborn.FID)
	}
	if !h.Gone() || b.stage[0].h == h {
		t.Fatal("the next vector was served the torn-down connection's entry")
	}
	if live, _ := eng.Global().LookupLive(rs[0].FID); live == nil || live == old || eng.global.Live(b.stage[0].h) != live {
		t.Fatalf("re-keyed flow: served entry's rule %p (old %p, live %p)", eng.global.Live(b.stage[0].h), old, live)
	}
}

// TestOneBatchTwoEngines: the cluster carries a worker's Batch across
// engine instances. After a vector on engine A, the Batch's stage records
// hold A's handles under the same tuples and FIDs engine B uses; B's
// vector is staged and looked up in B's own flow table, so B's packets
// must record on B and execute B's rules.
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
		// The FIN rides the fast path on the handle its classification
		// returns.
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
	h := b.stage[0].h
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

// TestFlowCacheCounters: the hub's hit/miss pair counts fast-shaped
// packets — one count each — as served the handle of an earlier packet
// of their vector (a hit) or probing the flow table (a miss). Four
// interleaved flows read 28 hits and 4 misses a 32-packet vector, cold
// or warm: each flow's first packet of the vector is its one probe, and
// a first packet the full classification set up leaves its handle for
// the next. A churning connection's install and removal cost the steady
// flows nothing. There is no second pair: the rule is read off the
// entry the handle holds, so no install or removal invalidates it.
func TestFlowCacheCounters(t *testing.T) {
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

	// From cold: each flow's first packet is untracked when staged and
	// records through the full Classify, whose handle its second is
	// served.
	if cold := delta(fourFlows(32)); cold != (pair{28, 4}) {
		t.Errorf("cold 4-flow vector: %+v, want 28 hits and 4 misses", cold)
	}
	const vectors = 16
	if warm := delta(fourFlows(32 * vectors)); warm != (pair{28 * vectors, 4 * vectors}) {
		t.Errorf("%d warm 4-flow vectors: %+v, want 28 hits and 4 misses a vector", vectors, warm)
	}
	if fast := eng.Stats().FastPath; fast != 32*(vectors+1)-4 {
		t.Errorf("4-flow trace: %d fast-path packets, want all but each flow's recording packet", fast)
	}

	// The same four flows, with one short connection in every vector: its
	// install and removal cost the steady flows' rules nothing — they stay
	// on the fast path and count as before — and of the connection's
	// packets only the handshake ACK and the data packet are fast-shaped:
	// the ACK a probe (its key was untracked when staged), classified in
	// full, and the data packet served the ACK's handle.
	var pkts []*packet.Packet
	for v := 0; v < vectors; v++ {
		pkts = append(pkts, fourFlows(28)...)
		pkts = append(pkts, tcpLifecycle(t, uint16(100+v))...)
	}
	fastBefore := eng.Stats().FastPath
	if churn := delta(pkts); churn != (pair{25 * vectors, 5 * vectors}) {
		t.Errorf("with a churning flow: %+v over %d vectors, want 25 hits and 5 misses a vector", churn, vectors)
	}
	if got := eng.Stats().FastPath - fastBefore; got != 29*vectors {
		t.Errorf("with a churning flow: %d fast-path packets, want the steady flows' %d and each connection's FIN", got, 29*vectors)
	}
}

// TestHandshakeACKHandsItsHandleOn: a connection's handshake-completing
// ACK and its first data packet share a vector. The ACK is fast-shaped
// but untracked when staged, so the full classification resolves it; the
// data packet is then served the ACK's handle, a hit, under the ACK's
// FID, and records the flow's rule.
func TestHandshakeACKHandsItsHandleOn(t *testing.T) {
	hub := telemetry.NewHub()
	opts := DefaultOptions()
	opts.Telemetry = hub
	eng := newBatchTestEngine(t, opts)
	pkts := tcpLifecycle(t, 4242)[:3] // SYN, ACK, data
	b := NewBatch(len(pkts))
	rs, err := eng.ProcessBatch(pkts, b)
	if err != nil {
		t.Fatal(err)
	}
	ack, data := &b.stage[1], &b.stage[2]
	if !ack.shaped || !data.shaped || data.prev != ack {
		t.Fatalf("ACK shaped %v, data shaped %v, data linked to %p (want the ACK's %p)", ack.shaped, data.shaped, data.prev, ack)
	}
	if ack.h == (flow.Handle{}) || data.h != ack.h || rs[2].FID != rs[1].FID || ack.h.FID() != rs[1].FID {
		t.Fatalf("ACK handle %v (FID %v), data handle %v (FID %v)", ack.h, rs[1].FID, data.h, rs[2].FID)
	}
	c := hub.Registry.Snapshot().Counters
	if hits, misses := c["speedybox_flow_cache_hits_total"], c["speedybox_flow_cache_misses_total"]; hits != 1 || misses != 1 {
		t.Errorf("%d hits and %d misses, want the data packet's hit and the ACK's miss", hits, misses)
	}
	if _, ok := eng.Global().LookupLive(rs[2].FID); !ok {
		t.Error("the data packet recorded no rule")
	}
}

// TestVectorOfManyFlowsEvictsNone: a vector holds more flows than the
// stage's dedup index has buckets, so keys share buckets and chain, and
// no flow loses its place to another. Warm, each flow's first packet of
// the vector is its one probe and its second is served that handle —
// under its own FID, never a bucket neighbour's.
func TestVectorOfManyFlowsEvictsNone(t *testing.T) {
	hub := telemetry.NewHub()
	opts := DefaultOptions()
	opts.Telemetry = hub
	eng := newBatchTestEngine(t, opts)
	const flows = 3 * dedupBuckets / 2
	trace := func() []*packet.Packet {
		pkts := make([]*packet.Packet, 0, 2*flows)
		for rep := 0; rep < 2; rep++ {
			for k := 0; k < flows; k++ {
				pkts = append(pkts, udpPkt(t, uint16(9101+k), "many"))
			}
		}
		return pkts
	}
	counts := func() (hits, misses uint64) {
		c := hub.Registry.Snapshot().Counters
		return c["speedybox_flow_cache_hits_total"], c["speedybox_flow_cache_misses_total"]
	}
	b := NewBatch(2 * flows)
	if _, err := eng.ProcessBatch(trace(), b); err != nil {
		t.Fatal(err)
	}
	h0, m0 := counts()
	fast0 := eng.Stats().FastPath
	rs, err := eng.ProcessBatch(trace(), b)
	if err != nil {
		t.Fatal(err)
	}
	h1, m1 := counts()
	if h1-h0 != flows || m1-m0 != flows {
		t.Errorf("warm vector of %d flows: %d hits and %d misses, want %d of each", flows, h1-h0, m1-m0, flows)
	}
	if fast := eng.Stats().FastPath - fast0; fast != 2*flows {
		t.Errorf("warm vector of %d flows: %d fast-path packets, want all %d", flows, fast, 2*flows)
	}
	buckets := map[uint32]int{}
	fids := map[flow.FID]int{}
	for k := 0; k < flows; k++ {
		first, second := &b.stage[k], &b.stage[flows+k]
		buckets[dedupBucket(first.kHi, first.kLo)]++
		if second.prev != first || second.h != first.h || first.h == (flow.Handle{}) {
			t.Fatalf("flow %d: second packet linked to %p (want %p), handle %v (first's %v)", k, second.prev, first, second.h, first.h)
		}
		if rs[k].Path != PathFast || rs[flows+k].FID != rs[k].FID || first.h.FID() != rs[k].FID {
			t.Fatalf("flow %d: path %v, FIDs %v and %v, handle's %v", k, rs[k].Path, rs[k].FID, rs[flows+k].FID, first.h.FID())
		}
		if j, dup := fids[rs[k].FID]; dup {
			t.Fatalf("flows %d and %d served under one FID %v", j, k, rs[k].FID)
		}
		fids[rs[k].FID] = k
	}
	if len(buckets) == flows {
		t.Fatalf("%d flows fill %d distinct buckets: no key chained behind another", flows, len(buckets))
	}
}
