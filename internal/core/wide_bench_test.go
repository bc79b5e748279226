package core

import (
	"testing"

	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// forwarder records a forward-only rule: the cheapest consolidated
// action, so a fast-path packet's cost is its flow lookup.
type forwarder struct{ name string }

func (f *forwarder) Name() string { return f.name }

func (f *forwarder) Process(ctx *Ctx, pkt *packet.Packet) (Verdict, error) {
	ctx.Charge(ctx.Model.Parse + ctx.Model.Classify)
	return VerdictForward, ctx.AddHeaderAction(pkt, mat.Forward())
}

// forwardBatch drives established UDP flows through three forwarders in
// 32-packet vectors: a pass is perFlow rounds of one packet of each flow,
// interleaved, every rule plain, so a fast-path packet is served from its
// flow entry's summary (DESIGN §16, "The plain summary"). It returns the
// pass, after a set-up pass in which every flow records and installs its
// rule, and the packets a pass drives.
func forwardBatch(tb testing.TB, flows, perFlow int) (step func(), n int) {
	const vec = DefaultBatchSize
	eng, err := NewEngine([]NF{&forwarder{"fw1"}, &forwarder{"fw2"}, &forwarder{"fw3"}}, DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	pkts := make([]*packet.Packet, flows*perFlow)
	for i := range pkts {
		f := i % flows
		pkts[i] = packet.MustBuild(packet.Spec{
			SrcIP: packet.IP4(10, 0, byte(f>>8), byte(f)), DstIP: packet.IP4(10, 1, 0, 1),
			SrcPort: uint16(1024 + f), DstPort: 53, Proto: packet.ProtoUDP, Payload: []byte("wide"),
		})
	}
	bat := NewBatch(vec)
	pass := func() {
		for off := 0; off < len(pkts); off += vec {
			if _, err := eng.ProcessBatch(pkts[off:min(off+vec, len(pkts))], bat); err != nil {
				tb.Fatal(err)
			}
		}
	}
	pass() // set-up: every flow records and installs its rule
	if st := eng.Stats(); st.Consolidations != uint64(flows) {
		tb.Fatalf("set-up consolidated %d flows, want %d", st.Consolidations, flows)
	}
	tb.Cleanup(func() {
		if st := eng.Stats(); st.FastPath+uint64(flows) < st.Packets {
			tb.Errorf("%d fast-path packets of %d after set-up", st.FastPath, st.Packets-uint64(flows))
		}
	})
	return pass, len(pkts)
}

// wideBatch is the repository benchmark's wide shape without its
// module: 32 768 established flows, one packet each a pass, so every
// packet is its flow's first of its vector, misses most CPU caches, and
// its cost is the flow lookup, the rule and the entry's bookkeeping.
func wideBatch(tb testing.TB) (step func(), n int) { return forwardBatch(tb, 32768, 1) }

// BenchmarkWideBatch times wideBatch's passes. b.N counts packets, so
// allocs/op reads allocations per packet; TestWideBatchAllocatesNothing
// holds them at 0.
func BenchmarkWideBatch(b *testing.B) {
	benchPasses(b, wideBatch)
}

// BenchmarkHotBatch is the repository benchmark's hot shape without its
// module: 4 flows of 512 packets, interleaved, so all but each flow's
// first packet of a vector are served an earlier packet's handle and
// the cost is the per-packet path itself: the handle's resolution, the
// summary's read and the vector's bookkeeping.
// b.N counts packets.
func BenchmarkHotBatch(b *testing.B) {
	benchPasses(b, func(tb testing.TB) (func(), int) { return forwardBatch(tb, 4, 512) })
}

// benchPasses times a fixture's passes, b.N counting packets.
func benchPasses(b *testing.B, fixture func(testing.TB) (func(), int)) {
	step, n := fixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += n {
		step()
	}
}

// TestWideBatchAllocatesNothing: the wide pass's staged lookups run on
// the Batch's scratch, so a warm pass of 32 768 packets allocates
// nothing.
func TestWideBatchAllocatesNothing(t *testing.T) {
	step, n := wideBatch(t)
	if allocs := testing.AllocsPerRun(3, step); allocs != 0 {
		t.Errorf("%v allocs a pass of %d packets, want 0", allocs, n)
	}
}
