package harness

import (
	"fmt"

	"github.com/fastpathnfv/speedybox/internal/bess"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/trace"
)

// MultiQueuePoint is one worker count's measurement. All columns are
// modeled tick counts or rates derived from them — never wall-clock
// time — so a given seed reproduces the table bit-identically on any
// host, loaded or idle.
type MultiQueuePoint struct {
	Workers int
	// TotalCycles is the modeled single-core occupancy of the whole
	// trace: the sum of per-packet bottleneck cycles.
	TotalCycles uint64
	// CriticalCycles is the modeled multi-core critical path: the
	// occupancy of the deepest queue, which every other worker waits
	// out. With perfectly balanced queues it approaches
	// TotalCycles/Workers.
	CriticalCycles uint64
	// RateMppsModel is the cost model's aggregate rate: per-core
	// modeled rate times the effective parallelism of the queue
	// partition. This is the simulator's throughput prediction for an
	// RSS deployment, independent of the host's core count.
	RateMppsModel float64
	// Speedup is the modeled rate relative to the 1-worker run.
	Speedup float64
}

// MultiQueueResult is an extension experiment: the paper's platforms
// pin the chain to one core (BESS) or one core per NF (ONVM); the
// multi-queue runner instead models an RSS NIC spreading flows across
// cores that share the engine's FID-sharded tables. The sweep reports
// how modeled throughput scales with workers on a subsequent-packet-
// dominated trace — the regime where per-packet work is small and
// shared-state contention, if any, dominates.
type MultiQueueResult struct {
	Packets int
	Flows   int
	Points  []MultiQueuePoint
}

// RunMultiQueue executes the worker sweep on a 3-IPFilter chain.
func RunMultiQueue(cfg Config) (*MultiQueueResult, error) {
	cfg = cfg.withDefaults(256)
	tr, err := trace.Generate(trace.Config{Seed: cfg.Seed, Flows: cfg.Flows,
		MeanPackets: 64, UDPFraction: 1.0, Interleave: true})
	if err != nil {
		return nil, err
	}
	res := &MultiQueueResult{Flows: cfg.Flows, Packets: tr.Len()}
	var baseRate float64
	for _, workers := range []int{1, 2, 4, 8} {
		chain, err := filterChain(3)
		if err != nil {
			return nil, err
		}
		p, err := bess.New(bess.Config{Chain: chain, Options: cfg.options(core.DefaultOptions())})
		if err != nil {
			return nil, err
		}
		mq, err := platform.NewMultiQueue(p, workers)
		if err != nil {
			return nil, err
		}
		mq.SetBatchSize(cfg.Batch)
		out, err := mq.Run(tr.Packets())
		if err != nil {
			return nil, err
		}
		_ = p.Close()

		var total uint64
		for _, c := range out.Bottlenecks {
			total += c
		}
		// The deepest queue's share of the total (AggregateRateMpps's
		// parallelism model).
		sum, deepest := 0, 0
		for _, d := range out.QueueDepths {
			sum, deepest = sum+d, max(deepest, d)
		}
		critical := total
		if sum > 0 {
			critical = total * uint64(deepest) / uint64(sum)
		}

		modeled := out.AggregateRateMpps()
		if workers == 1 {
			baseRate = modeled
		}
		pt := MultiQueuePoint{
			Workers:        workers,
			TotalCycles:    total,
			CriticalCycles: critical,
			RateMppsModel:  modeled,
		}
		if baseRate > 0 {
			pt.Speedup = modeled / baseRate
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Format renders the sweep.
func (r *MultiQueueResult) Format() string {
	t := &tableWriter{}
	t.title(fmt.Sprintf("Extension: multi-queue scaling — modeled ticks, %d flows / %d packets (BESS w/ SBox, 3 IPFilters)", r.Flows, r.Packets))
	t.row("workers", "total Mcycles", "critical Mcycles", "model Mpps", "model speedup")
	for _, p := range r.Points {
		t.row(fmt.Sprintf("%d", p.Workers),
			f3(float64(p.TotalCycles)/1e6), f3(float64(p.CriticalCycles)/1e6),
			f3(p.RateMppsModel), fmt.Sprintf("%.2fx", p.Speedup))
	}
	return t.String()
}
