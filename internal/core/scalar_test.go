package core

import (
	"slices"
	"sync"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/fault"
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

// TestProcessPacketFoldsFlowBookkeeping: ExpireIdle, ExtractFlow and
// checkpoints read a flow entry's packets, bytes and last-seen tick
// straight from the table, so each ProcessPacket must have folded its
// packet in before it returns — on the slow path and the fast path.
func TestProcessPacketFoldsFlowBookkeeping(t *testing.T) {
	eng := newBatchTestEngine(t, DefaultOptions())
	var bytes uint64
	for i := 1; i <= 20; i++ {
		pkt := udpPkt(t, 9101, "bookkeeping")
		bytes += uint64(pkt.Len())
		res, err := eng.ProcessPacket(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if i > 1 && res.Path != PathFast {
			t.Fatalf("packet %d took %v, want the fast path", i, res.Path)
		}
		entry, ok := eng.class.Flows().LookupFID(res.FID)
		if !ok {
			t.Fatalf("packet %d: flow %v not tracked", i, res.FID)
		}
		if entry.Packets != uint64(i) || entry.Bytes != bytes || entry.LastSeen != eng.class.Now() {
			t.Fatalf("after packet %d: entry packets=%d bytes=%d lastSeen=%d, want %d/%d/%d",
				i, entry.Packets, entry.Bytes, entry.LastSeen, i, bytes, eng.class.Now())
		}
	}
	if st := eng.Stats(); st.Packets != 20 || st.FastPath != 19 {
		t.Errorf("stats packets=%d fastpath=%d, want 20/19 folded", st.Packets, st.FastPath)
	}
}

// TestProcessPacketResultIsCallerOwned: a returned result (and its
// Fast decomposition) must not alias the pooled Batch's storage — 100
// further packets of other flows leave it intact.
func TestProcessPacketResultIsCallerOwned(t *testing.T) {
	eng := newBatchTestEngine(t, DefaultOptions())
	if _, err := eng.ProcessPacket(udpPkt(t, 9201, "owned")); err != nil {
		t.Fatal(err)
	}
	kept, err := eng.ProcessPacket(udpPkt(t, 9201, "owned"))
	if err != nil {
		t.Fatal(err)
	}
	if kept.Path != PathFast || kept.Fast == nil {
		t.Fatalf("kept result path=%v fast=%v, want a fast-path result", kept.Path, kept.Fast)
	}
	wantRes, wantFast := *kept, *kept.Fast
	for i := 0; i < 100; i++ {
		port := uint16(9300 + i%7)
		r, err := eng.ProcessPacket(udpPkt(t, port, "another flow, another payload length"))
		if err != nil {
			t.Fatal(err)
		}
		if r == kept || (r.Fast != nil && r.Fast == kept.Fast) {
			t.Fatalf("call %d returned storage aliasing an earlier result", i)
		}
	}
	if *kept != wantRes || *kept.Fast != wantFast {
		t.Errorf("result changed under later calls:\nnow:  %+v %+v\nwant: %+v %+v", *kept, *kept.Fast, wantRes, wantFast)
	}
}

// TestSlowResultLifetime: a slow-path result lives in the Batch like a
// fast-path one. ProcessPacket hands out a deep copy — SlowPathInfo and
// PerNF included — that 64 further calls leave intact; a result kept
// from ProcessBatch is the Batch's storage and the next vector
// overwrites it.
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
	held, heldFID := first[0], first[0].FID
	second, err := eng.ProcessBatch([]*packet.Packet{udpPkt(t, 9253, "second")}, b)
	if err != nil {
		t.Fatal(err)
	}
	if held != second[0] || held.Slow != second[0].Slow || held.FID == heldFID {
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
	if allocs > 2 {
		t.Errorf("fast-path ProcessPacket allocates %.1f times, budget is 2", allocs)
	}
}

// TestConcurrentProcessPacketOneFlow: eight goroutines on one flow each
// draw their own Batch from the pool; every packet must still be
// counted exactly once, in the engine counters and in the flow entry.
// Run under -race.
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
	if entry, ok := eng.class.Flows().LookupFID(first.FID); !ok || entry.Packets != want {
		t.Errorf("flow entry packets=%d tracked=%v, want %d", entry.Packets, ok, want)
	}
	if now := eng.class.Now(); now != want {
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
	for i := range results {
		if results[i].Slow != nil && results[i].Slow.ConsolidateCycles > 0 {
			indices = append(indices, i)
		}
	}
	return indices, inj.Decisions(fault.KindInstallFail)
}

// TestFaultBackoffClockParity pins DESIGN.md §16's rule — the logical
// clock ticks once per packet, interleaved with processing, never
// reserved ahead for a vector — where it is observable: the ladder's
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
