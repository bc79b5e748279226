// Package onvm implements the OpenNetVM execution-platform model
// (paper §VI-A): each NF runs on its own dedicated core, the NF cores
// are interconnected by shared-memory rings delivering packet
// descriptors, and the NF manager hosts the packet classifier (at its
// RX thread) and the Global MAT; Local MAT rules travel to the manager
// over inter-core message queues for consolidation.
//
// That topology is modeled, not executed. A packet runs the engine's one
// decision ladder (core.Engine.ProcessBatch), exactly as on BESS, and
// the platform prices the result with the ONVM formulas in measure: one
// ring hop per pipeline edge, the busiest core as the throughput bound,
// and one message hop per NF to collect a recording at the manager. So
// the vector size changes neither a packet's result nor its numbers.
package onvm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/errcode"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
)

// ErrChainTooLong reports a chain exceeding the ONVM core budget: with
// one dedicated core per NF plus the manager's RX/TX/consolidation
// threads, the paper's 14-core testbed supports at most 5 NFs
// (§VII-B2: "in OpenNetVM, we can only support a maximum chain length
// of 5, limited by the number of cores on our testbed").
var ErrChainTooLong = errcode.Sentinel("onvm.chain_too_long", "onvm: chain exceeds core budget")

// ErrPlatformClosed reports an operation attempted after Close. It is
// a sentinel (test with errors.Is) so callers driving live
// reconfiguration can tell an orderly shutdown race from a real
// reconfiguration failure.
var ErrPlatformClosed = errcode.Sentinel("onvm.platform_closed", "onvm: platform closed")

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

// Platform is the OpenNetVM model.
type Platform struct {
	eng  *core.Engine
	name string
	// lat is the end-to-end latency histogram (modeled cycles), nil
	// when the engine has no telemetry hub.
	lat *telemetry.Histogram
	// mu serializes Reconfigure, so the core-budget check and the
	// insert it admits are one step.
	mu     sync.Mutex
	closed atomic.Bool
}

var (
	_ platform.Platform     = (*Platform)(nil)
	_ platform.Reconfigurer = (*Platform)(nil)
)

// New builds the platform, refusing a chain the core budget cannot
// host.
func New(cfg Config) (*Platform, error) {
	eng, err := core.NewEngine(cfg.Chain, cfg.Options)
	if err != nil {
		return nil, fmt.Errorf("onvm: %w", err)
	}
	if err := checkBudget(eng.Model(), len(cfg.Chain)); err != nil {
		return nil, err
	}
	p := &Platform{
		eng:  eng,
		name: platform.DisplayName("OpenNetVM", cfg.Options.EnableSpeedyBox),
	}
	if hub := eng.Telemetry(); hub != nil {
		p.lat = hub.Registry.Histogram(`speedybox_platform_latency_cycles{platform="onvm"}`,
			"Per-packet end-to-end latency (modeled cycles) on the platform topology")
	}
	return p, nil
}

// checkBudget reports ErrChainTooLong when n NFs exceed the model's
// core budget.
func checkBudget(model *cost.Model, n int) error {
	if max := MaxChainLen(model.ONVMCoreBudget); n > max {
		return fmt.Errorf("%w: %d NFs, budget %d cores allows %d",
			ErrChainTooLong, n, model.ONVMCoreBudget, max)
	}
	return nil
}

// Name implements platform.Platform.
func (p *Platform) Name() string { return p.name }

// Engine implements platform.Platform.
func (p *Platform) Engine() *core.Engine { return p.eng }

// Model implements platform.Platform.
func (p *Platform) Model() *cost.Model { return p.eng.Model() }

// Close implements platform.Platform: the engine stops being a home of
// its NFs' per-flow state, and every later call returns
// ErrPlatformClosed.
func (p *Platform) Close() error {
	if !p.closed.Swap(true) {
		p.eng.Close()
	}
	return nil
}

// Reconfigure implements platform.Reconfigurer: an insert must fit the
// core budget, and the engine's snapshot swap is the rest of the
// transition, as on BESS.
func (p *Platform) Reconfigure(plan core.ChainPlan) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return ErrPlatformClosed
	}
	if plan.Op == core.OpInsert {
		if err := checkBudget(p.eng.Model(), p.eng.ChainLen()+1); err != nil {
			return err
		}
	}
	return p.eng.Reconfigure(plan)
}

// Process implements platform.Platform.
func (p *Platform) Process(pkt *packet.Packet) (platform.Measurement, error) {
	if p.closed.Load() {
		return platform.Measurement{}, ErrPlatformClosed
	}
	res, err := p.eng.ProcessPacket(pkt)
	if err != nil {
		return platform.Measurement{}, err
	}
	return p.measure(res), nil
}

// ProcessBatch implements platform.Platform: the engine's ladder over
// the vector, each result priced on the ONVM topology.
func (p *Platform) ProcessBatch(pkts []*packet.Packet, b *platform.Batch) ([]platform.Measurement, error) {
	if p.closed.Load() {
		return nil, ErrPlatformClosed
	}
	results, err := p.eng.ProcessBatch(pkts, b.Core)
	if err != nil {
		return nil, err
	}
	ms := b.Measurements(len(results))
	for i, res := range results {
		ms[i] = p.measure(res)
	}
	return ms, nil
}

// measure applies the ONVM latency, throughput and work formulas.
func (p *Platform) measure(res *core.PacketResult) platform.Measurement {
	model := p.eng.Model()
	m := platform.Measurement{Result: res, WorkCycles: res.WorkCycles}

	switch res.Path {
	case core.PathSlow:
		traversed := len(res.Slow.PerNF)
		if res.Slow.ConsolidateCycles > 0 {
			// Rule collection crosses cores over the message rings.
			m.WorkCycles += model.ONVMMsgHop * uint64(traversed)
		}
		// RX -> NF1 -> ... -> NFk -> TX, one ring hop per edge.
		lat := model.ONVMRx + res.Slow.ClassifierCycles + model.ONVMTx +
			model.ONVMHop*uint64(traversed+1) + res.NFWork()
		m.LatencyCycles = lat
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
		f := res.Fast
		mgrWork := f.FixedCycles + f.HeaderCycles + f.DispatchCycles + f.ReconsolidateCycles
		parallel := p.eng.Options().ParallelSF && f.BatchCount > 0
		if parallel {
			m.LatencyCycles = model.ONVMRx + mgrWork +
				uint64(f.SF.Stages)*model.ONVMHop + f.SF.CriticalCycles + model.ONVMTx
			m.BottleneckCycles = model.ONVMStageFramework + max(mgrWork, f.SF.MaxStageCycles)
		} else {
			m.LatencyCycles = model.ONVMRx + mgrWork +
				uint64(f.BatchCount)*model.ONVMHop + f.SF.TotalCycles + model.ONVMTx
			m.BottleneckCycles = model.ONVMStageFramework + mgrWork + f.SF.TotalCycles
		}
	}
	if p.lat != nil {
		p.lat.Record(m.LatencyCycles, uint32(res.FID))
	}
	return m
}
