package sfunc

import (
	"fmt"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/packet"
)

// benchBatches returns n read-class batches that each scan the payload
// work times; work 0 is a counter-update-sized handler, where the
// executor's own overhead is what shows.
func benchBatches(n int, work int) []Batch {
	batches := make([]Batch, n)
	for i := range batches {
		batches[i] = NewBatch(&Site{
			NF: fmt.Sprintf("nf%d", i),
			Funcs: []Func{{
				Name: "scan", Class: ClassRead,
				Run: func(_ Args, p *packet.Packet) (uint64, error) {
					var sum byte
					payload := p.Payload()
					for w := 0; w < work; w++ {
						for _, b := range payload {
							sum ^= b
						}
					}
					_ = sum
					return uint64(len(payload)), nil
				},
			}}}, seq(1), 0, nil)
	}
	return batches
}

func benchPacket(b *testing.B) *packet.Packet {
	b.Helper()
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(1, 1, 1, 1), DstIP: packet.IP4(2, 2, 2, 2),
		SrcPort: 1, DstPort: 2, Payload: make([]byte, 512),
	})
}

var benchSink ExecResult

// BenchmarkExecuteParallel vs BenchmarkExecuteSequential compares the
// two executors' wall time over the same read-class batches. Both run
// every batch inline on the calling goroutine — a planned parallel
// stage changes the cycles charged, not where the handlers run — so
// the pair must read alike and allocate nothing; the §V-C2 parallelism
// result itself is a cycle-model figure (harness Fig. 7).
func BenchmarkExecuteParallel(b *testing.B) {
	for _, work := range []int{0, 50} {
		for _, n := range []int{2, 4} {
			b.Run(fmt.Sprintf("work=%d/batches=%d", work, n), func(b *testing.B) {
				batches := benchBatches(n, work)
				plan := Plan(batches)
				pkt := benchPacket(b)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := plan.Execute(batches, pkt, 0)
					if err != nil {
						b.Fatal(err)
					}
					benchSink = res
				}
			})
		}
	}
}

// BenchmarkExecuteSequential is the one-batch-per-stage half of the pair.
func BenchmarkExecuteSequential(b *testing.B) {
	for _, work := range []int{0, 50} {
		for _, n := range []int{2, 4} {
			b.Run(fmt.Sprintf("work=%d/batches=%d", work, n), func(b *testing.B) {
				batches := benchBatches(n, work)
				pkt := benchPacket(b)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := ExecuteSequential(batches, pkt)
					if err != nil {
						b.Fatal(err)
					}
					benchSink = res
				}
			})
		}
	}
}

// BenchmarkPlan measures schedule synthesis, charged once per
// consolidation.
func BenchmarkPlan(b *testing.B) {
	batches := benchBatches(8, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Plan(batches)
	}
}
