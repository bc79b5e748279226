package maglev

import (
	"fmt"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

func benchBackends(n int) []Backend {
	out := make([]Backend, n)
	for i := range out {
		out[i] = Backend{
			Name: fmt.Sprintf("backend-%03d", i),
			IP:   packet.IP4(192, 168, byte(i>>8), byte(i)),
			Port: 8080,
		}
	}
	return out
}

// BenchmarkPopulate measures lookup-table construction (Maglev §3.4),
// the cost paid on every backend-set change.
func BenchmarkPopulate(b *testing.B) {
	for _, cfg := range []struct {
		backends, m int
	}{
		{10, 653},
		{100, 65537},
	} {
		b.Run(fmt.Sprintf("b=%d_m=%d", cfg.backends, cfg.m), func(b *testing.B) {
			lb, err := New(Config{Name: "lb", Backends: benchBackends(cfg.backends), TableSize: cfg.m})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lb.populateLocked()
			}
		})
	}
}

// BenchmarkAssign measures flow-to-backend mapping with connection
// tracking.
func BenchmarkAssign(b *testing.B) {
	lb, err := New(Config{Name: "lb", Backends: benchBackends(10), TableSize: 653})
	if err != nil {
		b.Fatal(err)
	}
	ft := packet.FiveTuple{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(100, 0, 0, 1),
		SrcPort: 1234, DstPort: 80, Proto: packet.ProtoTCP,
	}
	st := make(core.State, lb.flows.Words)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.SrcPort = uint16(i)
		st[0].Store(0) // a new flow: no pin yet
		lb.assign(st, ft)
	}
}

// BenchmarkFailover measures table rebuild plus one flow reroute — the
// event-path cost.
func BenchmarkFailover(b *testing.B) {
	ft := packet.FiveTuple{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(100, 0, 0, 1),
		SrcPort: 1234, DstPort: 80, Proto: packet.ProtoTCP,
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		lb, err := New(Config{Name: "lb", Backends: benchBackends(10), TableSize: 653})
		if err != nil {
			b.Fatal(err)
		}
		st := make(core.State, lb.flows.Words)
		idx, _, _ := lb.assign(st, ft)
		b.StartTimer()
		if err := lb.FailBackend(idx); err != nil {
			b.Fatal(err)
		}
		if _, ok := lb.reroute(st); !ok {
			b.Fatal("no reroute")
		}
	}
}
