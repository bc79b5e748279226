package platform

import (
	"errors"
	"math"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// scripted prices each packet with the next of its measurements, in
// order, whatever the engine decided.
type scripted struct {
	measures []Measurement
	next     int
}

func (s *scripted) Price(_ *cost.Model, _ []core.PacketResult, ms []Measurement) {
	for i := range ms {
		ms[i] = s.measures[s.next%len(s.measures)]
		s.next++
	}
}

type noopNF struct{}

func (noopNF) Name() string { return "noop" }
func (noopNF) Process(ctx *core.Ctx, pkt *packet.Packet) (core.Verdict, error) {
	return core.VerdictForward, nil
}

// failNF fails every packet, so the engine returns an error.
type failNF struct{}

func (failNF) Name() string { return "fail" }
func (failNF) Process(ctx *core.Ctx, pkt *packet.Packet) (core.Verdict, error) {
	return 0, errors.New("boom")
}

// newFake returns a platform over a real one-NF baseline engine whose
// pricing is scripted.
func newFake(t *testing.T, nf core.NF, measures []Measurement) *Platform {
	t.Helper()
	eng, err := core.NewEngine([]core.NF{nf}, core.BaselineOptions())
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(eng, "fake", "fake", &scripted{measures: measures}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func pkt(t *testing.T) *packet.Packet {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(1, 1, 1, 1), DstIP: packet.IP4(2, 2, 2, 2),
		SrcPort: 1, DstPort: 2,
	})
}

func res(fid flow.FID, verdict core.Verdict) *core.PacketResult {
	return &core.PacketResult{
		FID: fid, Kind: classifier.KindSubsequent,
		Path: core.PathFast, Verdict: verdict,
	}
}

func TestRunAggregation(t *testing.T) {
	measures := []Measurement{
		{Result: res(1, core.VerdictForward), WorkCycles: 100, LatencyCycles: 2000, BottleneckCycles: 4000},
		{Result: res(1, core.VerdictForward), WorkCycles: 200, LatencyCycles: 4000, BottleneckCycles: 4000},
		{Result: res(2, core.VerdictDrop), WorkCycles: 300, LatencyCycles: 6000, BottleneckCycles: 4000},
	}
	p := newFake(t, noopNF{}, measures)
	out, err := Run(p, []*packet.Packet{pkt(t), pkt(t), pkt(t)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Packets != 3 || out.Drops != 1 {
		t.Errorf("packets=%d drops=%d", out.Packets, out.Drops)
	}
	if got := out.MeanWorkCycles(); got != 200 {
		t.Errorf("MeanWorkCycles = %g", got)
	}
	// 2 GHz: mean 4000 cycles = 2 µs.
	if got := out.MeanLatencyMicros(); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("MeanLatencyMicros = %g", got)
	}
	// Bottleneck 4000 cycles at 2 GHz = 0.5 Mpps.
	if got := out.RateMpps(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("RateMpps = %g", got)
	}
	// Flow 1 latency = 2000+4000 cycles = 3 µs; flow 2 = 3 µs.
	times := out.FlowTimesMicros()
	if len(times) != 2 {
		t.Fatalf("flow times = %v", times)
	}
	if math.Abs(times[0]-3.0) > 1e-9 || math.Abs(times[1]-3.0) > 1e-9 {
		t.Errorf("flow times = %v, want [3 3]", times)
	}
}

func TestRunPropagatesError(t *testing.T) {
	p := newFake(t, failNF{}, nil)
	if _, err := Run(p, []*packet.Packet{pkt(t)}); err == nil {
		t.Error("Run swallowed the platform error")
	}
}

func TestRunEmptyTrace(t *testing.T) {
	p := newFake(t, noopNF{}, []Measurement{{Result: res(1, core.VerdictForward)}})
	out, err := Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Packets != 0 || out.MeanWorkCycles() != 0 || out.RateMpps() != 0 {
		t.Errorf("empty run = %+v", out)
	}
}

func TestDisplayName(t *testing.T) {
	if DisplayName("BESS", false) != "BESS" {
		t.Error("baseline name wrong")
	}
	if DisplayName("BESS", true) != "BESS w/ SBox" {
		t.Error("sbox name wrong")
	}
}

// TestAggregateRateMpps: the multi-queue rate is the per-core rate
// times total packets over the deepest queue; a serial run, or one
// whose queues drained nothing, reads the per-core rate.
func TestAggregateRateMpps(t *testing.T) {
	r := NewRunResult(cost.DefaultModel())
	r.Fold([]Measurement{
		{Result: res(1, core.VerdictForward), BottleneckCycles: 4000},
		{Result: res(2, core.VerdictForward), BottleneckCycles: 4000},
	})
	for _, tc := range []struct {
		depths []int
		want   float64
	}{
		{nil, 0.5},
		{[]int{0, 0}, 0.5},
		{[]int{2, 2}, 1.0},
		{[]int{3, 1}, 0.5 * 4 / 3},
	} {
		r.QueueDepths = tc.depths
		if got := r.AggregateRateMpps(); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("queues %v: AggregateRateMpps = %g, want %g", tc.depths, got, tc.want)
		}
	}
}

// TestBudgetBoundsTheChain: a chain over the budget is refused at New,
// and an insert that would exceed it is refused without touching the
// chain.
func TestBudgetBoundsTheChain(t *testing.T) {
	errLong := errors.New("chain too long")
	budget := func(nfs int) error {
		if nfs > 1 {
			return errLong
		}
		return nil
	}
	two, err := core.NewEngine([]core.NF{noopNF{}, failNF{}}, core.BaselineOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(two, "fake", "fake", &scripted{}, budget); !errors.Is(err, errLong) {
		t.Errorf("New over budget: err = %v, want %v", err, errLong)
	}
	one, err := core.NewEngine([]core.NF{noopNF{}}, core.BaselineOptions())
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(one, "fake", "fake", &scripted{}, budget)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Reconfigure(core.ChainPlan{Op: core.OpInsert, Pos: 1, NF: failNF{}}); !errors.Is(err, errLong) {
		t.Errorf("insert over budget: err = %v, want %v", err, errLong)
	}
	if n := p.Engine().ChainLen(); n != 1 {
		t.Errorf("chain length %d after a refused insert, want 1", n)
	}
}

// TestCloseRefusesWork: after Close every entry point returns ErrClosed
// and the engine sees no packet; a second Close does nothing.
func TestCloseRefusesWork(t *testing.T) {
	p := newFake(t, noopNF{}, []Measurement{{Result: res(1, core.VerdictForward)}})
	for i := 0; i < 2; i++ {
		if err := p.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	if _, err := p.Process(pkt(t)); !errors.Is(err, ErrClosed) {
		t.Errorf("Process: err = %v, want %v", err, ErrClosed)
	}
	if _, err := p.ProcessBatch([]*packet.Packet{pkt(t)}, NewBatch(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("ProcessBatch: err = %v, want %v", err, ErrClosed)
	}
	if err := p.Reconfigure(core.ChainPlan{Op: core.OpInsert, Pos: 0, NF: failNF{}}); !errors.Is(err, ErrClosed) {
		t.Errorf("Reconfigure: err = %v, want %v", err, ErrClosed)
	}
	if n := p.Engine().Stats().Packets; n != 0 {
		t.Errorf("engine processed %d packets after Close", n)
	}
}
