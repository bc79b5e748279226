package core

import (
	"slices"
	"sync"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// ProcessPacket is ProcessBatch over a vector of one on a pooled Batch.
// These tests pin what the scalar entry point owes its callers on top
// of the vector semantics: nothing stays parked in the pooled Batch,
// and what it returns is the caller's.

// passNF forwards without touching the frame, so one descriptor can be
// replayed.
type passNF struct{}

func (passNF) Name() string { return "pass" }
func (passNF) Process(ctx *Ctx, _ *packet.Packet) (Verdict, error) {
	ctx.Charge(ctx.Model.Parse)
	return VerdictForward, nil
}

// TestProcessPacketFoldsFlowBookkeeping: ExpireIdle and checkpoints
// read the logical clock and the flows' seen stamps straight from the
// engine and its table, so each ProcessPacket must have published its
// tick and stamped its flow before it returns — on the slow path and the
// fast path. A sweep after every packet holds the stamp to it: a flow
// left with the epoch the previous sweep ended, one tick back, would be
// expired.
func TestProcessPacketFoldsFlowBookkeeping(t *testing.T) {
	eng := newBatchTestEngine(t, DefaultOptions())
	for i := 1; i <= 20; i++ {
		res, err := eng.ProcessPacket(udpPkt(t, 9101, "bookkeeping"))
		if err != nil {
			t.Fatal(err)
		}
		if i > 1 && res.Path != PathFast {
			t.Fatalf("packet %d took %v, want the fast path", i, res.Path)
		}
		if now := eng.clock.Load(); now != uint64(i) {
			t.Fatalf("after packet %d the clock reads %d", i, now)
		}
		if n := eng.ExpireIdle(1); n != 0 {
			t.Fatalf("after packet %d a sweep expired its flow: the packet left no seen stamp", i)
		}
	}
	if st := eng.Stats(); st.Packets != 20 || st.FastPath != 19 {
		t.Errorf("stats packets=%d fastpath=%d, want 20/19 folded", st.Packets, st.FastPath)
	}
}

// TestProcessPacketResultIsCallerOwned: a returned result (its Fast
// decomposition held in it) must not alias the pooled Batch's storage —
// 100 further packets of other flows leave it intact.
func TestProcessPacketResultIsCallerOwned(t *testing.T) {
	eng := newBatchTestEngine(t, DefaultOptions())
	if _, err := eng.ProcessPacket(udpPkt(t, 9201, "owned")); err != nil {
		t.Fatal(err)
	}
	kept, err := eng.ProcessPacket(udpPkt(t, 9201, "owned"))
	if err != nil {
		t.Fatal(err)
	}
	if kept.Path != PathFast {
		t.Fatalf("kept result path=%v fast=%+v, want a fast-path result", kept.Path, kept.Fast)
	}
	wantRes := *kept
	for i := 0; i < 100; i++ {
		port := uint16(9300 + i%7)
		r, err := eng.ProcessPacket(udpPkt(t, port, "another flow, another payload length"))
		if err != nil {
			t.Fatal(err)
		}
		if r == kept {
			t.Fatalf("call %d returned storage aliasing an earlier result", i)
		}
	}
	if *kept != wantRes {
		t.Errorf("result changed under later calls:\nnow:  %+v\nwant: %+v", *kept, wantRes)
	}
}

// TestSlowResultLifetime: a slow-path result lives in the Batch like a
// fast-path one. ProcessPacket hands out a deep copy — SlowPathInfo and
// PerNF included — that 64 further calls leave intact; a result kept
// from ProcessBatch is the Batch's slot and the next vector overwrites
// it; the returned slice is capped at its length, so an append by the
// caller never reaches the next slot.
func TestSlowResultLifetime(t *testing.T) {
	eng := newBatchTestEngine(t, BaselineOptions())
	kept, err := eng.ProcessPacket(udpPkt(t, 9251, "owned"))
	if err != nil {
		t.Fatal(err)
	}
	if kept.Path != PathSlow || len(kept.Slow.PerNF) != 2 {
		t.Fatalf("kept result path=%v slow=%+v, want a slow-path result over two NFs", kept.Path, kept.Slow)
	}
	wantRes, wantPerNF := *kept, slices.Clone(kept.Slow.PerNF)
	wantSlow := *kept.Slow
	for i := 0; i < 64; i++ {
		r, err := eng.ProcessPacket(tcpPkt(t, uint16(9260+i%7), packet.TCPFlagSYN, 0, ""))
		if err != nil {
			t.Fatal(err)
		}
		if r == kept || r.Slow == kept.Slow || &r.Slow.PerNF[0] == &kept.Slow.PerNF[0] {
			t.Fatalf("call %d returned storage aliasing an earlier result", i)
		}
	}
	if *kept != wantRes || kept.Slow.DropIndex != wantSlow.DropIndex || !slices.Equal(kept.Slow.PerNF, wantPerNF) {
		t.Errorf("result changed under later calls:\nnow:  %+v %+v\nwant: %+v %+v", *kept, *kept.Slow, wantRes, wantSlow)
	}

	b := NewBatch(1)
	first, err := eng.ProcessBatch([]*packet.Packet{udpPkt(t, 9252, "first")}, b)
	if err != nil {
		t.Fatal(err)
	}
	held, heldFID := &first[0], first[0].FID
	second, err := eng.ProcessBatch([]*packet.Packet{udpPkt(t, 9253, "second")}, b)
	if err != nil {
		t.Fatal(err)
	}
	if cap(first) != len(first) || cap(second) != len(second) {
		t.Errorf("ProcessBatch returned slices of cap %d and %d for one packet each: an append would write into the Batch", cap(first), cap(second))
	}
	if held != &second[0] || held.Slow != second[0].Slow || held.FID == heldFID {
		t.Errorf("a result kept across ProcessBatch calls still reads as the first packet's (%v): the contract is that it is overwritten", held.FID)
	}
}

// TestProcessPacketFastPathAllocs holds the scalar entry point to its
// allocation budget: the caller-owned result (and nothing per packet
// from the pooled Batch).
func TestProcessPacketFastPathAllocs(t *testing.T) {
	eng, err := NewEngine([]NF{passNF{}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pkt := udpPkt(t, 9401, "replayed")
	if _, err := eng.ProcessPacket(pkt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		res, err := eng.ProcessPacket(pkt)
		if err != nil || res.Path != PathFast {
			t.Fatalf("res=%+v err=%v, want a fast-path packet", res, err)
		}
	})
	if allocs > 1 && !raceEnabled {
		t.Errorf("fast-path ProcessPacket allocates %.1f times, budget is 1", allocs)
	}
}

// TestConcurrentProcessPacketOneFlow: eight goroutines on one flow each
// draw their own Batch from the pool; every packet must still be
// counted exactly once, in the engine counters and by the logical
// clock, whose ticks each vector publishes at once. Run under -race.
func TestConcurrentProcessPacketOneFlow(t *testing.T) {
	const workers, each = 8, 300
	eng := newBatchTestEngine(t, DefaultOptions())
	first, err := eng.ProcessPacket(udpPkt(t, 9501, "shared flow"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := eng.ProcessPacket(udpPkt(t, 9501, "shared flow")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	const want = workers*each + 1
	if st := eng.Stats(); st.Packets != want || st.FastPath+st.SlowPath != want {
		t.Errorf("stats packets=%d fast+slow=%d, want %d", st.Packets, st.FastPath+st.SlowPath, want)
	}
	if _, ok := eng.class.Flows().LookupFID(first.FID); !ok {
		t.Errorf("flow %v untracked", first.FID)
	}
	if now := eng.clock.Load(); now != want {
		t.Errorf("logical clock = %d after %d packets", now, want)
	}
}

// retryIndices replays one degraded flow's data packets under a
// persistent install fault and returns the indices of the packets
// whose recording retry reached consolidation. vec 0 is ProcessPacket.
func retryIndices(t *testing.T, vec, n int) (indices []int, attempts uint64) {
	t.Helper()
	eng, inj, _ := faultEngine(t, map[fault.Kind]float64{fault.KindInstallFail: 1})
	const port = 8301
	establish(t, eng, port)
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		pkts[i] = tcpPkt(t, port, packet.TCPFlagACK, 2+i, "data")
	}
	var results []PacketResult
	if vec == 0 {
		results = runScalar(t, eng, pkts)
	} else {
		results = runBatched(t, eng, pkts, vec)
	}
	return retries(results), inj.Decisions(fault.KindInstallFail)
}

// retries returns the indices of the results whose recording retry
// reached consolidation.
func retries(results []PacketResult) (at []int) {
	for i := range results {
		if results[i].Slow != nil && results[i].Slow.ConsolidateCycles > 0 {
			at = append(at, i)
		}
	}
	return at
}

// TestFaultBackoffClockParity pins DESIGN.md §11's rule — every packet
// reads its own tick of the logical clock, never one reserved ahead for
// the rest of its vector — where it is observable: the ladder's
// deadlines are clock ticks, so a degraded flow's retries must land on
// the same packet indices at every vector size.
func TestFaultBackoffClockParity(t *testing.T) {
	const n = 600
	want, attempts := retryIndices(t, 0, n)
	if len(want) < 2 || uint64(len(want)) != attempts {
		t.Fatalf("retries at %v for %d install attempts; the ladder never retried", want, attempts)
	}
	for _, vec := range []int{1, 32} {
		if got, _ := retryIndices(t, vec, n); !slices.Equal(got, want) {
			t.Errorf("vectors of %d retry at packets %v, vectors of one at %v", vec, got, want)
		}
	}
}

// mixedLives interleaves the whole lives of four TCP flows, staggered:
// SYN, the handshake-completing ACK, data — whose first packet is the
// flow's initial packet — and FIN.
func mixedLives(t *testing.T) []*packet.Packet {
	t.Helper()
	const flows, data, stagger = 4, 24, 5
	life := func(port uint16, i int) *packet.Packet {
		switch {
		case i == 0:
			return tcpPkt(t, port, packet.TCPFlagSYN, 0, "")
		case i == 1:
			return tcpPkt(t, port, packet.TCPFlagACK, 1, "")
		case i < 2+data:
			return tcpPkt(t, port, packet.TCPFlagACK, i, "data")
		default:
			return tcpPkt(t, port, packet.TCPFlagFIN|packet.TCPFlagACK, i, "")
		}
	}
	var pkts []*packet.Packet
	for step := 0; step < stagger*flows+data+3; step++ {
		for f := 0; f < flows; f++ {
			if i := step - stagger*f; i >= 0 && i < data+3 {
				pkts = append(pkts, life(uint16(8601+f), i))
			}
		}
	}
	return pkts
}

// firingNF forwards and registers an event whose condition always
// holds: every fast-path packet of its flows fires it and recomputes.
type firingNF struct{}

var firingDecl = FlowStates{Events: []event.Event{{
	Word:   zeroWord,
	Update: func(State, *mat.LocalRule) {},
}}}

func (firingNF) Name() string            { return "lb" }
func (firingNF) FlowStates() *FlowStates { return &firingDecl }
func (firingNF) Process(ctx *Ctx, _ *packet.Packet) (Verdict, error) {
	ctx.Charge(ctx.Model.Parse)
	if err := ctx.AddHeaderAction(mat.Forward()); err != nil {
		return 0, err
	}
	return VerdictForward, ctx.RegisterEvent(0)
}

// TestFaultBackoffClockParityMixed is TestFaultBackoffClockParity over
// mixedLives: a vector holds handshakes, initial packets, retries,
// fast-path fallbacks and teardowns of several flows. Every install
// fails, or events fire on every fast-path packet and half their
// recomputations are lost — the ladder's deadlines are then set from the
// event checks. In vectors of 1, 7 and 32 every result, the ladder's
// retry indices and the clock after every vector must be what vectors of
// one give.
func TestFaultBackoffClockParityMixed(t *testing.T) {
	for _, tc := range []struct {
		name  string
		rates map[fault.Kind]float64
		nfs   []NF
	}{
		{"install-fail", map[fault.Kind]float64{fault.KindInstallFail: 1}, nil},
		{"recompute-drop", map[fault.Kind]float64{fault.KindRecomputeDrop: 0.5},
			[]NF{&fakeModifier{name: "nat", dip: [4]byte{99, 0, 0, 1}}, firingNF{}}},
	} {
		run := func(vec int) (results []PacketResult, clock map[int]uint64, st Stats) {
			eng, _, _ := faultEngine(t, tc.rates, tc.nfs...)
			pkts := mixedLives(t)
			b := NewBatch(vec)
			clock = map[int]uint64{}
			for off := 0; off < len(pkts); off += vec {
				end := min(off+vec, len(pkts))
				rs, err := eng.ProcessBatch(pkts[off:end], b)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rs {
					results = append(results, *r.clone())
				}
				clock[end-1] = eng.clock.Load()
			}
			return results, clock, eng.Stats()
		}
		want, wantClock, wantStats := run(1)
		wantRetries := retries(want)
		if len(wantRetries) < 8 || wantStats.Final != 4 || wantStats.DegradedPackets == 0 || wantClock[len(want)-1] != uint64(len(want)) {
			t.Fatalf("%s: retries at %v, %+v, clock %d after %d packets: the trace exercises nothing",
				tc.name, wantRetries, wantStats, wantClock[len(want)-1], len(want))
		}
		for _, vec := range []int{7, 32} {
			got, gotClock, gotStats := run(vec)
			compareRuns(t, want, got)
			if r := retries(got); !slices.Equal(r, wantRetries) || gotStats != wantStats {
				t.Errorf("%s, vectors of %d: retries at %v, vectors of one at %v; stats %+v, want %+v",
					tc.name, vec, r, wantRetries, gotStats, wantStats)
			}
			for end, now := range gotClock {
				if now != wantClock[end] {
					t.Errorf("%s, vectors of %d: clock %d after packet %d, vectors of one %d", tc.name, vec, now, end, wantClock[end])
				}
			}
		}
	}
}
