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

// BenchmarkWideBatch is the repository benchmark's wide shape without
// its module: 32 768 established UDP flows through three forwarders, one
// packet of each per pass, in 32-packet vectors, so every packet misses
// the worker's flow contexts and most CPU caches and its cost is the flow
// lookup, the rule and the entry's bookkeeping. b.N counts packets: the
// allocation gate reads allocations per packet.
func BenchmarkWideBatch(b *testing.B) {
	const flows, vec = 32768, DefaultBatchSize
	eng, err := NewEngine([]NF{&forwarder{"fw1"}, &forwarder{"fw2"}, &forwarder{"fw3"}}, DefaultOptions())
	if err != nil {
		b.Fatal(err)
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
				b.Fatal(err)
			}
		}
	}
	pass() // set-up: every flow records and installs its rule
	if st := eng.Stats(); st.Consolidations != flows {
		b.Fatalf("set-up consolidated %d flows, want %d", st.Consolidations, flows)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n, off := 0, 0; n < b.N; n += vec {
		if _, err := eng.ProcessBatch(pkts[off:off+vec], bat); err != nil {
			b.Fatal(err)
		}
		if off += vec; off == flows {
			off = 0
		}
	}
	b.StopTimer()
	if st := eng.Stats(); st.FastPath < uint64(b.N) {
		b.Fatalf("%d fast-path packets over %d timed ones", st.FastPath, b.N)
	}
}
