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
	return VerdictForward, ctx.AddHeaderAction(mat.Forward())
}

// wideBatch is the repository benchmark's wide shape without its
// module: 32 768 established UDP flows through three forwarders. It
// returns a pass of one packet of each flow in 32-packet vectors, so
// every packet misses the worker's flow contexts and most CPU caches
// and its cost is the flow lookup, the rule and the entry's
// bookkeeping; and the packets a pass drives.
func wideBatch(tb testing.TB) (step func(), n int) {
	const flows, vec = 32768, DefaultBatchSize
	eng, err := NewEngine([]NF{&forwarder{"fw1"}, &forwarder{"fw2"}, &forwarder{"fw3"}}, DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	pkts := make([]*packet.Packet, flows)
	for i := range pkts {
		pkts[i] = packet.MustBuild(packet.Spec{
			SrcIP: packet.IP4(10, 0, byte(i>>8), byte(i)), DstIP: packet.IP4(10, 1, 0, 1),
			SrcPort: uint16(1024 + i), DstPort: 53, Proto: packet.ProtoUDP, Payload: []byte("wide"),
		})
	}
	bat := NewBatch(vec)
	pass := func() {
		for off := 0; off < flows; off += vec {
			if _, err := eng.ProcessBatch(pkts[off:off+vec], bat); err != nil {
				tb.Fatal(err)
			}
		}
	}
	pass() // set-up: every flow records and installs its rule
	if st := eng.Stats(); st.Consolidations != flows {
		tb.Fatalf("set-up consolidated %d flows, want %d", st.Consolidations, flows)
	}
	tb.Cleanup(func() {
		if st := eng.Stats(); st.FastPath+flows < st.Packets {
			tb.Errorf("%d fast-path packets of %d after set-up", st.FastPath, st.Packets-flows)
		}
	})
	return pass, flows
}

// BenchmarkWideBatch times wideBatch's passes. b.N counts packets, so
// allocs/op reads allocations per packet; TestWideBatchAllocatesNothing
// holds them at 0.
func BenchmarkWideBatch(b *testing.B) {
	step, n := wideBatch(b)
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
