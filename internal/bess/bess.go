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
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
)

// Config configures a BESS platform instance.
type Config struct {
	// Chain is the service chain in order.
	Chain []core.NF
	// Options selects baseline vs SpeedyBox and the ablations.
	Options core.Options
}

// Platform is the BESS model.
type Platform struct {
	eng  *core.Engine
	name string
	// lat is the end-to-end latency histogram (modeled cycles), nil
	// when the engine has no telemetry hub.
	lat *telemetry.Histogram
}

var (
	_ platform.Platform     = (*Platform)(nil)
	_ platform.Reconfigurer = (*Platform)(nil)
)

// New builds a BESS platform. BESS has no chain-length limit: all NFs
// share one process (§VII-B2).
func New(cfg Config) (*Platform, error) {
	eng, err := core.NewEngine(cfg.Chain, cfg.Options)
	if err != nil {
		return nil, fmt.Errorf("bess: %w", err)
	}
	p := &Platform{
		eng:  eng,
		name: platform.DisplayName("BESS", cfg.Options.EnableSpeedyBox),
	}
	if hub := eng.Telemetry(); hub != nil {
		p.lat = hub.Registry.Histogram(`speedybox_platform_latency_cycles{platform="bess"}`,
			"Per-packet end-to-end latency (modeled cycles) on the platform topology")
	}
	return p, nil
}

// Name implements platform.Platform.
func (p *Platform) Name() string { return p.name }

// Engine implements platform.Platform.
func (p *Platform) Engine() *core.Engine { return p.eng }

// Model implements platform.Platform.
func (p *Platform) Model() *cost.Model { return p.eng.Model() }

// Close implements platform.Platform. BESS holds no goroutines; the
// engine stops being a home of its NFs' per-flow state, which matters to
// whoever keeps the NF objects (a cluster retiring an instance).
func (p *Platform) Close() error {
	p.eng.Close()
	return nil
}

// Reconfigure implements platform.Reconfigurer. BESS runs the chain to
// completion on one core, so the engine's snapshot swap is the whole
// transition: the next packet's traversal loads the new run-to-completion
// vector, and in-flight batch workers fall back to the slow path when
// their cached rule pointers miss on the bumped generation.
func (p *Platform) Reconfigure(plan core.ChainPlan) error { return p.eng.Reconfigure(plan) }

// Process implements platform.Platform.
func (p *Platform) Process(pkt *packet.Packet) (platform.Measurement, error) {
	res, err := p.eng.ProcessPacket(pkt)
	if err != nil {
		return platform.Measurement{}, err
	}
	m := p.measure(res)
	if p.lat != nil {
		p.lat.Record(m.LatencyCycles, uint32(res.FID))
	}
	return m, nil
}

// ProcessBatch implements platform.Platform: BESS run-to-completion
// over a packet vector. The single core still traverses the whole
// chain per packet, so the latency formulas are Process's unchanged;
// what the vector amortizes is the engine-side dispatch (batched
// classification, cached rule lookups, folded counters).
func (p *Platform) ProcessBatch(pkts []*packet.Packet, b *platform.Batch) ([]platform.Measurement, error) {
	results, err := p.eng.ProcessBatch(pkts, b.Core)
	if err != nil {
		return nil, err
	}
	ms := b.Measurements(len(results))
	for i, res := range results {
		ms[i] = p.measure(res)
		if p.lat != nil {
			p.lat.Record(ms[i].LatencyCycles, uint32(res.FID))
		}
	}
	return ms, nil
}

// measure applies the BESS latency/throughput formulas to one engine
// result (shared by Process and ProcessBatch).
func (p *Platform) measure(res *core.PacketResult) platform.Measurement {
	m := platform.Measurement{Result: res, WorkCycles: res.WorkCycles}
	model := p.eng.Model()

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
		f := res.Fast
		mainCore := model.BESSFastFramework + f.FixedCycles + f.HeaderCycles +
			f.DispatchCycles + f.ReconsolidateCycles
		if p.eng.Options().ParallelSF && f.BatchCount > 0 {
			// SF stages run on worker cores; latency adds their
			// critical path, throughput is bounded by the busiest
			// core.
			m.LatencyCycles = mainCore + f.SF.CriticalCycles
			m.BottleneckCycles = max(mainCore, f.SF.MaxStageCycles)
		} else {
			// Sequential SF execution stays on the main core.
			m.LatencyCycles = mainCore + f.SF.TotalCycles
			m.BottleneckCycles = m.LatencyCycles
		}
	}
	return m
}
