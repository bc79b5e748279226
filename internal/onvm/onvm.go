// Package onvm implements the OpenNetVM execution-platform model
// (paper §VI-A): each NF runs on its own dedicated core (here: its own
// goroutine), interconnected by shared-memory rings delivering packet
// descriptors. The NF manager hosts the Global MAT and the packet
// classifier runs at the manager's RX thread; Local MAT rules travel
// to the manager over inter-core message queues for consolidation.
//
// Unlike the single-core BESS model, the pipeline here is real
// concurrency: classification happens on the caller (the RX thread),
// slow-path packets hop NF-goroutine to NF-goroutine through
// internal/ring buffers, fast-path packets go to the manager
// goroutine, and consolidation requests arrive at the manager on a
// message ring — exactly the topology the paper describes. Throughput
// and latency are still derived from the calibrated cost model (the
// pipeline-bottleneck and per-hop formulas below), since goroutine
// scheduling time has no relation to the modeled testbed.
package onvm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/errcode"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/ring"
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
	// RingCapacity sizes the inter-core rings; defaults to 64.
	RingCapacity int
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

// job is one packet descriptor travelling the pipeline.
type job struct {
	pkt       *packet.Packet
	cls       classifier.Result
	recording bool

	// slow-path accounting, filled by the NF goroutines
	perNF       []cost.StageCost
	verdict     core.Verdict
	dropIndex   int
	consolidate uint64
	err         error
	// fast-path result, filled by the manager
	fastRes *core.PacketResult

	done   chan struct{}
	engine *core.Engine
	// inflight is the platform's in-pipeline descriptor count; finish
	// decrements it so Reconfigure can drain to quiescence.
	inflight *atomic.Int64
}

// finish completes the job exactly once: it releases the flow's
// recording slot if this job held it, then signals completion.
func (j *job) finish() {
	if j.recording && j.engine != nil {
		j.engine.EndRecording(j.cls.Handle)
	}
	if j.inflight != nil {
		j.inflight.Add(-1)
	}
	close(j.done)
}

// Platform is the OpenNetVM model.
type Platform struct {
	eng      *core.Engine
	name     string
	capacity int

	// nfRings[i] feeds NF i of the current chain generation. Guarded by
	// ringMu for readers outside the injection path (telemetry gauges);
	// writers additionally hold injectMu, which orders the swap against
	// every injection.
	nfRings []*ring.Ring[*job]
	ringMu  sync.RWMutex
	mgrRing *ring.Ring[*job] // fast-path + consolidation work; never spliced

	// injectMu admits injections shared; Reconfigure and Close take it
	// exclusively to pause the RX thread while the pipeline drains.
	injectMu sync.RWMutex
	// inflight counts descriptors inside the pipeline (injected, not
	// yet finished); Reconfigure spins it to zero before splicing.
	inflight atomic.Int64

	// lat is the end-to-end latency histogram (modeled cycles), nil
	// when the engine has no telemetry hub.
	lat *telemetry.Histogram

	// gauges is the highest NF-ring index with a registered depth
	// gauge; a reconfiguration growing the chain registers the rest.
	gauges int

	nfWg   sync.WaitGroup // current generation's NF loops
	wg     sync.WaitGroup // manager loop
	closed bool
	mu     sync.Mutex
}

var (
	_ platform.Platform     = (*Platform)(nil)
	_ platform.Reconfigurer = (*Platform)(nil)
)

// New builds the platform and starts its NF and manager goroutines.
func New(cfg Config) (*Platform, error) {
	eng, err := core.NewEngine(cfg.Chain, cfg.Options)
	if err != nil {
		return nil, fmt.Errorf("onvm: %w", err)
	}
	model := eng.Model()
	if max := MaxChainLen(model.ONVMCoreBudget); len(cfg.Chain) > max {
		return nil, fmt.Errorf("%w: %d NFs, budget %d cores allows %d",
			ErrChainTooLong, len(cfg.Chain), model.ONVMCoreBudget, max)
	}
	capacity := cfg.RingCapacity
	if capacity == 0 {
		capacity = 64
	}
	p := &Platform{
		eng:      eng,
		name:     platform.DisplayName("OpenNetVM", cfg.Options.EnableSpeedyBox),
		capacity: capacity,
	}
	p.nfRings = make([]*ring.Ring[*job], len(cfg.Chain))
	for i := range p.nfRings {
		p.nfRings[i] = ring.New[*job](capacity)
	}
	p.mgrRing = ring.New[*job](capacity)

	if hub := eng.Telemetry(); hub != nil {
		p.lat = hub.Registry.Histogram(`speedybox_platform_latency_cycles{platform="onvm"}`,
			"Per-packet end-to-end latency (modeled cycles) on the platform topology")
		p.registerRingGauges(len(p.nfRings))
		mgr := p.mgrRing
		hub.Registry.GaugeFunc(`speedybox_onvm_ring_depth{ring="mgr"}`,
			"Inter-core ring occupancy (packet descriptors)",
			func() float64 { return float64(mgr.Len()) })
	}

	// One goroutine per NF core.
	rings := p.nfRings
	for i := range cfg.Chain {
		p.nfWg.Add(1)
		go p.nfLoop(i, rings)
	}
	// The manager core: Global MAT executor + consolidation handler.
	p.wg.Add(1)
	go p.managerLoop()
	return p, nil
}

// ringDepth reads the current generation's ring i occupancy; after a
// shrinking reconfiguration a gauge for a no-longer-existing stage
// reads zero.
func (p *Platform) ringDepth(i int) float64 {
	p.ringMu.RLock()
	defer p.ringMu.RUnlock()
	if i >= len(p.nfRings) {
		return 0
	}
	return float64(p.nfRings[i].Len())
}

// registerRingGauges registers depth gauges for NF-ring indices up to
// n. Gauges read through ringDepth rather than capturing ring pointers,
// so they follow the rings across chain splices; registration is
// idempotent, so only indices beyond the previous maximum are new.
func (p *Platform) registerRingGauges(n int) {
	hub := p.eng.Telemetry()
	if hub == nil {
		return
	}
	for i := p.gauges; i < n; i++ {
		i := i
		hub.Registry.GaugeFunc(fmt.Sprintf("speedybox_onvm_ring_depth{ring=%q}", fmt.Sprintf("nf%d", i)),
			"Inter-core ring occupancy (packet descriptors)",
			func() float64 { return p.ringDepth(i) })
	}
	if n > p.gauges {
		p.gauges = n
	}
}

// nfLoop is NF i's dedicated core. It drains its RX ring in bursts of
// up to core.DefaultBatchSize descriptors per wakeup (DequeueBatch
// hands over whatever is immediately present, so a lone packet is a
// batch of one — flush-on-idle), processes each job in ring order, and
// forwards the batch with one EnqueueBatch per downstream ring. The
// loop owns its generation's ring slice — a chain splice closes these
// rings and starts fresh loops over the new slice, so a retiring loop
// never observes the swap.
func (p *Platform) nfLoop(i int, rings []*ring.Ring[*job]) {
	defer p.nfWg.Done()
	in := rings[i]
	buf := make([]*job, core.DefaultBatchSize)
	next := make([]*job, 0, core.DefaultBatchSize)
	mgr := make([]*job, 0, core.DefaultBatchSize)
	b := core.NewBatch(1) // this core's slow-path traversal scratch
	for {
		n, err := in.DequeueBatch(buf)
		if err != nil {
			return // ring closed and drained: shutdown
		}
		next, mgr = next[:0], mgr[:0]
		for _, j := range buf[:n] {
			if j.err == nil && j.verdict != core.VerdictDrop {
				v, cycles, err := p.eng.ProcessNF(i, j.cls.Handle, j.pkt, j.recording, b)
				j.perNF = append(j.perNF, cost.StageCost{Name: fmt.Sprintf("nf%d", i), Cycles: cycles})
				switch {
				case err != nil:
					j.err = err
				case v == core.VerdictDrop:
					j.verdict = core.VerdictDrop
					j.dropIndex = i
					if !j.pkt.Dropped() {
						j.pkt.Drop()
					}
				}
			}
			// Route: to the next NF, to the manager for consolidation,
			// or done.
			switch {
			case i != len(rings)-1 && j.err == nil && j.verdict != core.VerdictDrop:
				next = append(next, j)
			case j.recording && j.err == nil:
				// "As soon as the service chain finishes processing the
				// packet, SpeedyBox notifies the Global MAT to
				// consolidate the rules" — via the inter-core message
				// queue.
				mgr = append(mgr, j)
			default:
				j.finish()
			}
		}
		if len(next) > 0 {
			p.enqueueBatch(rings[i+1], next)
		}
		if len(mgr) > 0 {
			p.enqueueBatch(p.mgrRing, mgr)
		}
	}
}

// enqueueBatch forwards a batch of jobs, failing (and finishing) the
// ones a closing ring did not accept.
func (p *Platform) enqueueBatch(r *ring.Ring[*job], jobs []*job) {
	n, err := r.EnqueueBatch(jobs)
	if err != nil {
		for _, j := range jobs[n:] {
			j.err = err
			j.finish()
		}
	}
}

// managerLoop is the NF manager core: it consolidates freshly recorded
// flows and executes the Global MAT fast path on the core's own Batch,
// through the flow handle the RX core's classification put in the job.
// Like the NF
// cores it drains its ring in bursts; each job's result is allocated
// per job because it must outlive the burst (jobs complete
// asynchronously).
func (p *Platform) managerLoop() {
	defer p.wg.Done()
	buf := make([]*job, core.DefaultBatchSize)
	b := core.NewBatch(1)
	for {
		n, err := p.mgrRing.DequeueBatch(buf)
		if err != nil {
			return
		}
		for _, j := range buf[:n] {
			if j.recording && j.fastRes == nil && j.err == nil && j.cls.Kind != classifier.KindSubsequent {
				// Consolidation request from the last NF.
				cycles, err := p.eng.ConsolidateFlow(j.cls.Handle)
				switch {
				case err == nil:
					j.consolidate = cycles
				case errors.Is(err, mat.ErrNotConsolidatable):
					// The flow stays on the (always correct) slow path;
					// swallow, matching the engine's policy.
				default:
					j.err = err
				}
				j.finish()
				continue
			}
			// Fast-path packet.
			res, err := p.eng.FastProcess(j.cls.Handle, j.pkt, b)
			if err != nil {
				j.err = err
			} else {
				j.fastRes = res
			}
			j.finish()
		}
	}
}

// Name implements platform.Platform.
func (p *Platform) Name() string { return p.name }

// Engine implements platform.Platform.
func (p *Platform) Engine() *core.Engine { return p.eng }

// Model implements platform.Platform.
func (p *Platform) Model() *cost.Model { return p.eng.Model() }

// Close shuts the pipeline down and joins all core goroutines.
func (p *Platform) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	// Exclude injections and chain splices while tearing down.
	p.injectMu.Lock()
	defer p.injectMu.Unlock()
	for _, r := range p.nfRings {
		r.Close()
	}
	p.nfWg.Wait()
	p.mgrRing.Close()
	p.wg.Wait()
	p.eng.Close()
	return nil
}

// Reconfigure applies a live chain change (platform.Reconfigurer):
// injection pauses, the in-flight descriptors drain to quiescence, the
// engine publishes the new chain and epoch, and the ring stages are
// spliced to the new layout. The retiring stages' rings are closed
// empty — ring close reports the accepted count, so nothing is silently
// lost — which wakes their idle NF loops for exit; fresh loops start
// over the new rings. The manager ring is never touched, so fast-path
// and consolidation work resumes seamlessly.
//
// Reconfigure is safe against a concurrent Engine.Checkpoint or
// Engine.Restore: all three serialize on the engine's reconfiguration
// lock, so a checkpoint observes the chain either wholly before or
// wholly after the splice, never mid-epoch. (Restore additionally
// requires a quiet data plane, which injectMu provides here.)
func (p *Platform) Reconfigure(plan core.ChainPlan) error {
	p.injectMu.Lock()
	defer p.injectMu.Unlock()
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return ErrPlatformClosed
	}

	// Quiesce: with injectMu held no descriptor enters the pipeline,
	// and the NF and manager loops run the in-flight ones to completion
	// on their own.
	for p.inflight.Load() != 0 {
		runtime.Gosched()
	}

	// The core budget gates growth before the engine commits anything.
	if plan.Op == core.OpInsert {
		model := p.eng.Model()
		if next, max := p.eng.ChainLen()+1, MaxChainLen(model.ONVMCoreBudget); next > max {
			return fmt.Errorf("%w: %d NFs, budget %d cores allows %d",
				ErrChainTooLong, next, model.ONVMCoreBudget, max)
		}
	}
	if err := p.eng.Reconfigure(plan); err != nil {
		return err
	}

	// Retire the old generation: the rings are empty (drained above),
	// so Close just wakes the idle loops.
	for _, r := range p.nfRings {
		r.Close()
	}
	p.nfWg.Wait()

	// Splice the new generation.
	rings := make([]*ring.Ring[*job], p.eng.ChainLen())
	for i := range rings {
		rings[i] = ring.New[*job](p.capacity)
	}
	p.ringMu.Lock()
	p.nfRings = rings
	p.ringMu.Unlock()
	p.registerRingGauges(len(rings))
	for i := range rings {
		p.nfWg.Add(1)
		go p.nfLoop(i, rings)
	}
	return nil
}

// inject classifies a packet and routes its job into the pipeline
// without waiting for completion. It holds injectMu shared for its
// duration, so a concurrent Reconfigure observes either none or all of
// the injection — never a descriptor halfway into a retiring ring.
func (p *Platform) inject(pkt *packet.Packet) (*job, error) {
	p.injectMu.RLock()
	defer p.injectMu.RUnlock()
	cls, err := p.eng.Classify(pkt)
	if err != nil {
		return nil, err
	}
	j := &job{
		pkt:       pkt,
		cls:       cls,
		verdict:   core.VerdictForward,
		dropIndex: -1,
		done:      make(chan struct{}),
		engine:    p.eng,
		inflight:  &p.inflight,
	}
	p.inflight.Add(1)
	opts := p.eng.Options()

	fastEligible := opts.EnableSpeedyBox &&
		(cls.Kind == classifier.KindSubsequent ||
			(cls.Kind == classifier.KindFinal && p.eng.Global().Live(cls.Handle) != nil))
	if fastEligible {
		if err := p.mgrRing.Enqueue(j); err != nil {
			p.inflight.Add(-1)
			return nil, err
		}
		return j, nil
	}
	if cls.Kind == classifier.KindInitial {
		// The engine's one recording gate: a flow still inside its
		// degradation backoff does not retry, and only one in-flight
		// packet may record for a flow; the others traverse the chain
		// without recording, which is always correct.
		j.recording = p.eng.TryBeginRecording(cls.Handle)
	}
	if j.recording {
		p.eng.PrepareRecording(cls.Handle)
	}
	if err := p.nfRings[0].Enqueue(j); err != nil {
		if j.recording {
			p.eng.EndRecording(cls.Handle)
		}
		p.inflight.Add(-1)
		return nil, err
	}
	return j, nil
}

// collect waits for a job, assembles its result and applies teardown
// and accounting.
func (p *Platform) collect(j *job) (platform.Measurement, error) {
	<-j.done
	if j.err != nil {
		return platform.Measurement{}, j.err
	}
	res := p.assembleResult(j)
	if j.cls.Kind == classifier.KindFinal {
		p.eng.TeardownFlow(j.cls.FID)
		res.TornDown = true
	}
	p.eng.Account(res)
	return p.measure(res), nil
}

// Process implements platform.Platform. The caller acts as the RX
// thread: it classifies the packet, injects it into the pipeline and
// waits for completion (consolidation included), which keeps runs
// deterministic — every packet observes all rule installations of its
// predecessors, the strongest-ordering interpretation of the paper's
// workflow. For a free-running pipeline with multiple packets in
// flight, use RunPipelined.
func (p *Platform) Process(pkt *packet.Packet) (platform.Measurement, error) {
	j, err := p.inject(pkt)
	if err != nil {
		return platform.Measurement{}, err
	}
	return p.collect(j)
}

// ProcessBatch implements platform.Platform: the RX thread injects the
// whole vector back-to-back and then waits for every descriptor —
// pipelined within the batch (packets of different flows genuinely
// overlap across the NF cores, and the ring bursts amortize lock
// traffic), lock-step across batches. As with RunPipelined, several
// leading packets of a flow may traverse the slow path before its
// first consolidation lands; each is safe. A vector of one is Process.
func (p *Platform) ProcessBatch(pkts []*packet.Packet, b *platform.Batch) ([]platform.Measurement, error) {
	return p.pipeline(pkts, b.Measurements(len(pkts))[:0])
}

// RunPipelined pushes the whole packet sequence through the pipeline
// free-running — one vector as long as the trace — and returns
// per-packet measurements in arrival order. Compared to the lock-step
// runner:
//
//   - NF-internal state and MAT state stay exactly correct (the NFs
//     are concurrent-safe and recording is single-writer per flow);
//   - several leading packets of a flow may traverse the slow path
//     before the first consolidation lands (each is safe), so the
//     fast-path packet count can be lower than in lock-step mode;
//   - measurements remain deterministic per packet given the path it
//     took, but path assignment depends on scheduling.
func (p *Platform) RunPipelined(pkts []*packet.Packet) ([]platform.Measurement, error) {
	return p.pipeline(pkts, make([]platform.Measurement, 0, len(pkts)))
}

// pipeline injects pkts back-to-back, then collects every injected
// descriptor, appending the measurements to ms in arrival order.
// Injection stops at the first error; already-injected jobs are
// drained before returning, and the injection error wins over a
// collection error.
func (p *Platform) pipeline(pkts []*packet.Packet, ms []platform.Measurement) ([]platform.Measurement, error) {
	jobs := make([]*job, 0, len(pkts))
	var firstErr error
	for _, pkt := range pkts {
		j, err := p.inject(pkt)
		if err != nil {
			firstErr = err
			break
		}
		jobs = append(jobs, j)
	}
	var collectErr error
	for _, j := range jobs {
		m, err := p.collect(j)
		if err != nil {
			if collectErr == nil {
				collectErr = err
			}
			continue
		}
		ms = append(ms, m)
	}
	if firstErr == nil {
		firstErr = collectErr
	}
	return ms, firstErr
}

// assembleResult builds the core.PacketResult from the pipeline job.
func (p *Platform) assembleResult(j *job) *core.PacketResult {
	if j.fastRes != nil {
		j.fastRes.FID = j.cls.FID
		j.fastRes.Kind = j.cls.Kind
		return j.fastRes
	}
	model := p.eng.Model()
	info := &core.SlowPathInfo{
		PerNF:             j.perNF,
		ConsolidateCycles: j.consolidate,
		DropIndex:         j.dropIndex,
	}
	if p.eng.Options().EnableSpeedyBox {
		info.ClassifierCycles = model.HashFID
	}
	res := &core.PacketResult{
		FID:     j.cls.FID,
		Kind:    j.cls.Kind,
		Path:    core.PathSlow,
		Verdict: j.verdict,
		Slow:    info,
	}
	res.WorkCycles = info.ClassifierCycles + res.NFWork() + info.ConsolidateCycles
	if j.consolidate > 0 {
		// Rule collection crosses cores over the message rings.
		res.WorkCycles += model.ONVMMsgHop * uint64(len(j.perNF))
	}
	return res
}

// measure applies the ONVM latency and throughput formulas.
func (p *Platform) measure(res *core.PacketResult) platform.Measurement {
	model := p.eng.Model()
	m := platform.Measurement{Result: res, WorkCycles: res.WorkCycles}

	switch res.Path {
	case core.PathSlow:
		traversed := len(res.Slow.PerNF)
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
