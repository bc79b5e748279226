// Package bess implements the BESS execution-platform model (paper
// §VI-A): the entire service chain runs as a single process on one
// dedicated core, run-to-completion — each packet traverses every
// module before the next packet starts. SpeedyBox on BESS adds a
// packet classifier task and a Global MAT executor module; the service
// graph has two branches, one for initial packets (the original chain)
// and one for subsequent packets (the Global MAT), with parallel
// state-function stages carved out to worker cores.
//
// Latency and throughput derive from the cost model:
//
//   - original path: latency = framework + Σ NF work + module
//     crossings; throughput = freq / latency (one core does it all).
//   - fast path: the main core pays the fast-path fixed work, header
//     application and batch dispatch; parallel SF stages add only
//     their critical path to latency, and throughput is bounded by
//     the busiest core (main or worker).
package bess

import (
	"fmt"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/platform"
)

// Config configures a BESS platform instance.
type Config struct {
	// Chain is the service chain in order.
	Chain []core.NF
	// Options selects baseline vs SpeedyBox and the ablations.
	Options core.Options
}

// Platform is the one platform type; BESS is its pricing.
type Platform = platform.Platform

// New builds a BESS platform. BESS has no chain-length limit: all NFs
// share one process (§VII-B2).
func New(cfg Config) (*Platform, error) {
	eng, err := core.NewEngine(cfg.Chain, cfg.Options)
	if err != nil {
		return nil, fmt.Errorf("bess: %w", err)
	}
	return platform.New(eng, "BESS", "bess", formula{parallel: cfg.Options.ParallelSF}, nil)
}

// formula is the BESS latency/throughput pricing (platform.Pricing);
// parallel is Options.ParallelSF.
type formula struct{ parallel bool }

func (f formula) Price(model *cost.Model, results []core.PacketResult, ms []platform.Measurement) {
	for i := range results {
		res, m := &results[i], &ms[i]
		m.Result, m.WorkCycles = res, res.WorkCycles
		switch res.Path {
		case core.PathSlow:
			lat := model.BESSFramework +
				res.Slow.ClassifierCycles +
				res.NFWork() +
				model.BESSPerModule*uint64(len(res.Slow.PerNF)) +
				res.Slow.ConsolidateCycles
			m.LatencyCycles = lat
			m.BottleneckCycles = lat // run-to-completion: one core pays it all
		case core.PathFast:
			fp := &res.Fast
			mainCore := model.BESSFastFramework + fp.FixedCycles + fp.HeaderCycles +
				fp.DispatchCycles + fp.ReconsolidateCycles
			if f.parallel && fp.BatchCount > 0 {
				// SF stages run on worker cores; latency adds their
				// critical path, throughput is bounded by the busiest
				// core.
				m.LatencyCycles = mainCore + fp.SF.CriticalCycles
				m.BottleneckCycles = max(mainCore, fp.SF.MaxStageCycles)
			} else {
				// Sequential SF execution stays on the main core.
				m.LatencyCycles = mainCore + fp.SF.TotalCycles
				m.BottleneckCycles = m.LatencyCycles
			}
		}
	}
}
