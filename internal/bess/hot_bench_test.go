package bess

import (
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
)

// hotBatch is the repository benchmark's hot workload without its
// module: 4 UDP flows of 512 packets, interleaved, through three
// forward-only 100-rule IPFilters, in 32-packet vectors through
// Platform.ProcessBatch, the call the benchmark's engine workloads time.
// Every rule is plain, so each packet is served from its flow entry's
// summary and priced by the BESS formula. It returns a pass, after a
// set-up pass in which every flow records and installs its rule, and the
// packets a pass drives.
func hotBatch(tb testing.TB) (pass func(), n int) {
	const flows, perFlow, vec = 4, 512, core.DefaultBatchSize
	p, err := New(Config{Chain: filterChain(tb, 3), Options: core.DefaultOptions()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { p.Close() })
	pkts := make([]*packet.Packet, flows*perFlow)
	for i := range pkts {
		f := i % flows
		pkts[i] = packet.MustBuild(packet.Spec{
			SrcIP: packet.IP4(10, 0, 0, byte(1+f)), DstIP: packet.IP4(10, 1, 0, 1),
			SrcPort: uint16(1024 + f), DstPort: 53, Proto: packet.ProtoUDP, Payload: []byte("hot"),
		})
	}
	bat := platform.NewBatch(vec)
	pass = func() {
		for off := 0; off < len(pkts); off += vec {
			if _, err := p.ProcessBatch(pkts[off:min(off+vec, len(pkts))], bat); err != nil {
				tb.Fatal(err)
			}
		}
	}
	pass()
	if st := p.Stats(); st.Consolidations != flows || st.FastPath != uint64(len(pkts)-flows) {
		tb.Fatalf("set-up pass: %+v, want %d consolidations and every other packet on the fast path", st, flows)
	}
	return pass, len(pkts)
}

// BenchmarkPlatformHotBatch times hotBatch's passes. b.N counts packets,
// so ns/op reads per packet; TestPlatformHotBatchAllocatesNothing holds
// its allocations at 0.
func BenchmarkPlatformHotBatch(b *testing.B) {
	pass, n := hotBatch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += n {
		pass()
	}
}

// TestPlatformHotBatchAllocatesNothing: a warm hot pass — the engine's
// vectors, their measurements and the formula — allocates nothing.
func TestPlatformHotBatchAllocatesNothing(t *testing.T) {
	pass, n := hotBatch(t)
	if allocs := testing.AllocsPerRun(3, pass); allocs != 0 {
		t.Errorf("%v allocs a pass of %d packets, want 0", allocs, n)
	}
}

// TestPlatformProcessAllocatesOne: the per-packet API over the hot chain
// allocates the caller's copy of the result and nothing else: the copy is
// priced where it is, into a pooled measurement returned by value.
// ProcessPacket draws its Batch from a pool too, so the count holds only
// without the race detector.
func TestPlatformProcessAllocatesOne(t *testing.T) {
	p, err := New(Config{Chain: filterChain(t, 3), Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	pkt := packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 1, 0, 1),
		SrcPort: 1024, DstPort: 53, Proto: packet.ProtoUDP, Payload: []byte("hot"),
	})
	var m platform.Measurement
	process := func() {
		if m, err = p.Process(pkt); err != nil {
			t.Fatal(err)
		}
	}
	process()
	allocs := testing.AllocsPerRun(100, process)
	if m.Result.Path != core.PathFast || m.LatencyCycles == 0 {
		t.Fatalf("warm packet: path %v, %d latency cycles; want a priced fast-path packet", m.Result.Path, m.LatencyCycles)
	}
	if allocs > 1 && !raceEnabled {
		t.Errorf("%v allocs a packet, want at most 1", allocs)
	}
}
