// Package onvm implements the OpenNetVM execution-platform model
// (paper §VI-A): each NF runs on its own dedicated core, the NF cores
// are interconnected by shared-memory rings delivering packet
// descriptors, and the NF manager hosts the packet classifier (at its
// RX thread) and the Global MAT; Local MAT rules travel to the manager
// over inter-core message queues for consolidation.
//
// That topology is modeled, not executed. A packet runs the engine's one
// decision ladder (core.Engine.ProcessBatch), exactly as on BESS, and
// the platform prices the result with the ONVM formula: one ring hop
// per pipeline edge, the busiest core as the throughput bound, and one
// message hop per NF to collect a recording at the manager. So the
// vector size changes neither a packet's result nor its numbers.
package onvm

import (
	"fmt"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/errcode"
	"github.com/fastpathnfv/speedybox/internal/platform"
)

// ErrChainTooLong reports a chain exceeding the ONVM core budget: with
// one dedicated core per NF plus the manager's RX/TX/consolidation
// threads, the paper's 14-core testbed supports at most 5 NFs
// (§VII-B2: "in OpenNetVM, we can only support a maximum chain length
// of 5, limited by the number of cores on our testbed").
var ErrChainTooLong = errcode.Sentinel("onvm.chain_too_long", "onvm: chain exceeds core budget")

// Config configures an OpenNetVM platform instance.
type Config struct {
	// Chain is the service chain in order.
	Chain []core.NF
	// Options selects baseline vs SpeedyBox and ablations.
	Options core.Options
}

// MaxChainLen returns the largest supported chain for a core budget:
// each NF needs a dedicated core and its RX-queue sibling, and four
// cores are reserved for the manager (RX, TX, Global MAT executor,
// message handling). For the paper's 14-core testbed this yields 5.
func MaxChainLen(coreBudget int) int {
	n := (coreBudget - 4) / 2
	if n < 0 {
		return 0
	}
	return n
}

// New builds the platform; the core budget caps the chain, now and on insert.
func New(cfg Config) (*platform.Platform, error) {
	eng, err := core.NewEngine(cfg.Chain, cfg.Options)
	if err != nil {
		return nil, fmt.Errorf("onvm: %w", err)
	}
	model := eng.Model()
	budget := func(n int) error {
		if max := MaxChainLen(model.ONVMCoreBudget); n > max {
			return fmt.Errorf("%w: %d NFs, budget %d cores allows %d",
				ErrChainTooLong, n, model.ONVMCoreBudget, max)
		}
		return nil
	}
	return platform.New(eng, "OpenNetVM", "onvm", formula{parallel: cfg.Options.ParallelSF}, budget)
}

// formula is the ONVM latency, throughput and work pricing
// (platform.Pricing); parallel is Options.ParallelSF.
type formula struct{ parallel bool }

func (f formula) Price(model *cost.Model, results []core.PacketResult, ms []platform.Measurement) {
	for i := range results {
		res, m := &results[i], &ms[i]
		m.Result, m.WorkCycles = res, res.WorkCycles
		switch res.Path {
		case core.PathSlow:
			traversed := len(res.Slow.PerNF)
			if res.Slow.ConsolidateCycles > 0 {
				// Rule collection crosses cores over the message rings.
				m.WorkCycles += model.ONVMMsgHop * uint64(traversed)
			}
			// RX -> NF1 -> ... -> NFk -> TX, one ring hop per edge.
			m.LatencyCycles = model.ONVMRx + res.Slow.ClassifierCycles + model.ONVMTx +
				model.ONVMHop*uint64(traversed+1) + res.NFWork()
			// Pipeline bottleneck: the busiest stage.
			bott := model.ONVMRx + res.Slow.ClassifierCycles
			for _, s := range res.Slow.PerNF {
				if c := model.ONVMStageFramework + s.Cycles; c > bott {
					bott = c
				}
			}
			if model.ONVMTx > bott {
				bott = model.ONVMTx
			}
			m.BottleneckCycles = bott
		case core.PathFast:
			// The classifier runs at the manager's RX thread and the
			// Global MAT executor at the manager itself (§VI-A), so the
			// consolidated header work needs no ring hops. State-function
			// batches execute on their owning NF cores — the NF's internal
			// state lives there — costing one dispatch hop per batch
			// (sequential mode) or per stage (parallel mode, where the
			// dispatches to co-scheduled cores overlap).
			fp := &res.Fast
			mgrWork := fp.FixedCycles + fp.HeaderCycles + fp.DispatchCycles + fp.ReconsolidateCycles
			if f.parallel && fp.BatchCount > 0 {
				m.LatencyCycles = model.ONVMRx + mgrWork +
					uint64(fp.SF.Stages)*model.ONVMHop + fp.SF.CriticalCycles + model.ONVMTx
				m.BottleneckCycles = model.ONVMStageFramework + max(mgrWork, fp.SF.MaxStageCycles)
			} else {
				m.LatencyCycles = model.ONVMRx + mgrWork +
					uint64(fp.BatchCount)*model.ONVMHop + fp.SF.TotalCycles + model.ONVMTx
				m.BottleneckCycles = model.ONVMStageFramework + mgrWork + fp.SF.TotalCycles
			}
		}
	}
}
