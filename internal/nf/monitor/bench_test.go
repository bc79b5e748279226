package monitor

import (
	"fmt"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

// BenchmarkStateFuncPerFlow runs the recorded count function — what the
// fast path executes for every packet of a flow the Monitor saw — round
// robin over that many resident flows. The function is bound to its
// flow's counters, so the time is flat in the flow count and no lock is
// taken; found by FID in a mutex-guarded map, as it was, it grew with
// the map (CHANGES.md, PR 24, has both columns).
func BenchmarkStateFuncPerFlow(b *testing.B) {
	for _, flows := range []int{1, 8192} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			m, err := New("mon")
			if err != nil {
				b.Fatal(err)
			}
			tbl := event.NewTable(flow.NewTable())
			p := packet.MustBuild(packet.Spec{
				SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
				SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP, Payload: make([]byte, 64),
			})
			funcs := make([]sfunc.Batch, flows)
			for f := range funcs {
				ctx := core.NewCtx("mon", core.CtxConfig{FID: flow.FID(f + 1), Events: tbl, Recording: true, Flows: m.FlowStates()})
				if _, err := m.Process(ctx, p); err != nil {
					b.Fatal(err)
				}
				funcs[f] = recorded(ctx, &m.flows)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := funcs[i%flows].RunSequential(p); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if got := m.Totals().Packets; got != uint64(flows+b.N) {
				b.Fatalf("counted %d packets, want %d", got, flows+b.N)
			}
		})
	}
}
