// Package platform is the execution platform of the BESS and OpenNetVM
// models: one wrapper over the engine that prices its results with a
// topology's latency and throughput formula (a Pricing), plus the serial
// and parallel runners (RunBatch, MultiQueue) that drive any Fleet and
// aggregate run-level statistics (latency, flow time, rate).
package platform

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/errcode"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
)

// ErrClosed reports a platform used after Close (test with errors.Is):
// an orderly shutdown race, not a real failure.
var ErrClosed = errcode.Sentinel("platform.closed", "platform: closed")

// Measurement is one packet's platform-level account.
type Measurement struct {
	// Result is the engine's path/verdict/work decomposition: the
	// packet's slot in the engine's Batch, or Process's own copy.
	Result *core.PacketResult
	// WorkCycles is the paper's "CPU cycle per packet" metric,
	// including any platform-specific work additions (e.g. ONVM's
	// inter-core consolidation messages).
	WorkCycles uint64
	// LatencyCycles is the packet's end-to-end processing latency on
	// the platform's topology.
	LatencyCycles uint64
	// BottleneckCycles is the per-packet cost of the platform's
	// most-loaded core, which bounds throughput (rate = freq /
	// mean bottleneck).
	BottleneckCycles uint64
}

// Pricing is one topology's cost formula (paper §VI-A): Price measures
// results[i] into ms[i], every field, under the cost model, in one pass
// over the vector (ms is as long as results); ms[i].Result is
// &results[i], so the results must outlive the measurements.
type Pricing interface {
	Price(model *cost.Model, results []core.PacketResult, ms []Measurement)
}

// Platform is an NFV execution platform hosting one service chain: the
// engine's decision ladder, its results priced on one topology. BESS
// and OpenNetVM differ only in their Pricing and chain-length budget.
type Platform struct {
	eng    *core.Engine
	name   string
	price  Pricing
	budget func(nfs int) error  // refuses a chain too long; nil: no limit
	lat    *telemetry.Histogram // modeled latency; nil without a hub
	mu     sync.Mutex           // makes Reconfigure's budget check and insert one step
	closed atomic.Bool
}

// New wraps eng as the platform DisplayName(base, ...) names, pricing
// its results with price; label tags its latency histogram. A non-nil
// budget is checked now (a refusal closes eng) and on every insert.
func New(eng *core.Engine, base, label string, price Pricing, budget func(nfs int) error) (*Platform, error) {
	if budget != nil {
		if err := budget(eng.ChainLen()); err != nil {
			eng.Close()
			return nil, err
		}
	}
	p := &Platform{eng: eng, name: DisplayName(base, eng.Options().EnableSpeedyBox), price: price, budget: budget}
	if hub := eng.Telemetry(); hub != nil {
		p.lat = hub.Registry.Histogram(`speedybox_platform_latency_cycles{platform="`+label+`"}`,
			"Per-packet end-to-end latency (modeled cycles) on the platform topology")
	}
	return p, nil
}

// Name returns the display name, e.g. "BESS" or "OpenNetVM w/ SBox".
func (p *Platform) Name() string { return p.name }

// Engine exposes the underlying SpeedyBox engine.
func (p *Platform) Engine() *core.Engine { return p.eng }

// Model exposes the cost model.
func (p *Platform) Model() *cost.Model { return p.eng.Model() }

// Close makes the engine stop being a home of its NFs' per-flow state;
// every later call returns ErrClosed, and a second Close does nothing.
func (p *Platform) Close() error {
	if !p.closed.Swap(true) {
		p.eng.Close()
	}
	return nil
}

// Reconfigure applies a chain plan without stopping traffic: an insert
// must fit the budget, and the engine's snapshot swap does the rest
// (vectors in flight miss their cached rules and take the slow path).
func (p *Platform) Reconfigure(plan core.ChainPlan) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return ErrClosed
	}
	if plan.Op == core.OpInsert && p.budget != nil {
		if err := p.budget(p.eng.ChainLen() + 1); err != nil {
			return err
		}
	}
	return p.eng.Reconfigure(plan)
}

// Process runs one packet through the chain.
func (p *Platform) Process(pkt *packet.Packet) (Measurement, error) {
	if p.closed.Load() {
		return Measurement{}, ErrClosed
	}
	res, err := p.eng.ProcessPacket(pkt)
	if err != nil {
		return Measurement{}, err
	}
	// The clone is the caller's; it is priced where it is, into a pooled
	// measurement: a slice handed to the Pricing interface escapes.
	ms := measOne.Get().(*[1]Measurement)
	p.price.Price(p.eng.Model(), unsafe.Slice(res, 1), ms[:])
	p.record(ms[:])
	m := ms[0]
	measOne.Put(ms)
	return m, nil
}

// measOne holds Process's one-packet measurement buffers.
var measOne = sync.Pool{New: func() any { return new([1]Measurement) }}

// ProcessBatch is Process over a vector, in arrival order, on the
// caller's Batch (one per worker goroutine); the measurements point
// into the Batch and are valid until its next use.
func (p *Platform) ProcessBatch(pkts []*packet.Packet, b *Batch) ([]Measurement, error) {
	if p.closed.Load() {
		return nil, ErrClosed
	}
	results, err := p.eng.ProcessBatch(pkts, b.Core)
	if err != nil {
		return nil, err
	}
	b.meas = slices.Grow(b.meas[:0], len(results))[:len(results)]
	p.price.Price(p.eng.Model(), results, b.meas)
	p.record(b.meas)
	return b.meas, nil
}

// record puts a vector's latencies in the hub's histogram, if any.
func (p *Platform) record(ms []Measurement) {
	if p.lat != nil {
		for i := range ms {
			p.lat.Record(ms[i].LatencyCycles, uint32(ms[i].Result.FID))
		}
	}
}

// Batch is per-worker scratch for ProcessBatch: the engine-level batch
// state (stage records, pooled result storage) plus the platform's
// measurement buffer. It must not be shared between goroutines.
type Batch struct {
	// Core is the engine-level batch scratch.
	Core *core.Batch
	meas []Measurement
}

// NewBatch returns batch scratch sized for n-packet vectors (0 picks
// core.DefaultBatchSize).
func NewBatch(n int) *Batch {
	if n <= 0 {
		n = core.DefaultBatchSize
	}
	return &Batch{Core: core.NewBatch(n), meas: make([]Measurement, n)}
}

// DisplayName composes the conventional platform label.
func DisplayName(base string, sbox bool) string {
	if sbox {
		return base + " w/ SBox"
	}
	return base
}

// RunResult aggregates a trace run.
type RunResult struct {
	Packets     int
	Drops       int
	WorkCycles  []uint64
	Latencies   []uint64 // cycles
	Bottlenecks []uint64
	// FlowCycles sums each flow's per-packet latency — the paper's
	// "flow processing time ... the aggregated time spent processing
	// all packets in a flow" (§VII-B3).
	FlowCycles map[flow.FID]uint64
	// QueueDepths is how many packets each multi-queue worker drained;
	// empty for serial runs.
	QueueDepths []int
	Stats       core.Stats
	model       *cost.Model
}

// NewRunResult returns an empty aggregate bound to the cost model.
// Fold and Merge are the only ways measurements enter one.
func NewRunResult(m *cost.Model) *RunResult {
	return &RunResult{FlowCycles: make(map[flow.FID]uint64), model: m}
}

// Fold appends a vector of measurements into the aggregate. Call it
// before the vector's Batch is reused — measurements point into it.
func (r *RunResult) Fold(ms []Measurement) {
	for i := range ms {
		m := &ms[i]
		r.Packets++
		if m.Result.Verdict == core.VerdictDrop {
			r.Drops++
		}
		r.WorkCycles = append(r.WorkCycles, m.WorkCycles)
		r.Latencies = append(r.Latencies, m.LatencyCycles)
		r.Bottlenecks = append(r.Bottlenecks, m.BottleneckCycles)
		r.FlowCycles[m.Result.FID] += m.LatencyCycles
	}
}

// Merge folds another aggregate's measurements into r — how a parallel
// runner joins its workers' private partial results. QueueDepths and
// Stats describe a whole run, not a part; the runner sets them.
func (r *RunResult) Merge(o *RunResult) {
	r.Packets += o.Packets
	r.Drops += o.Drops
	r.WorkCycles = append(r.WorkCycles, o.WorkCycles...)
	r.Latencies = append(r.Latencies, o.Latencies...)
	r.Bottlenecks = append(r.Bottlenecks, o.Bottlenecks...)
	for fid, c := range o.FlowCycles {
		r.FlowCycles[fid] += c
	}
}

// MeanWorkCycles returns the average per-packet work.
func (r *RunResult) MeanWorkCycles() float64 { return meanU64(r.WorkCycles) }

// MeanLatencyMicros returns the average per-packet latency in µs.
func (r *RunResult) MeanLatencyMicros() float64 {
	return r.model.CyclesToMicros(1) * meanU64(r.Latencies)
}

// RateMpps returns the sustained processing rate implied by the mean
// bottleneck-core occupancy.
func (r *RunResult) RateMpps() float64 {
	return r.model.RateMpps(meanU64(r.Bottlenecks))
}

// AggregateRateMpps returns the modeled multi-queue rate: the per-core
// rate times the effective parallelism of the run's queue partition
// (total packets over the deepest queue — with W balanced queues this
// approaches W, and the deepest queue is the multi-core bottleneck).
// For serial runs it equals RateMpps.
func (r *RunResult) AggregateRateMpps() float64 {
	if len(r.QueueDepths) == 0 {
		return r.RateMpps()
	}
	total, deepest := 0, 0
	for _, d := range r.QueueDepths {
		total += d
		if d > deepest {
			deepest = d
		}
	}
	if deepest == 0 {
		return r.RateMpps()
	}
	return r.RateMpps() * float64(total) / float64(deepest)
}

// FlowTimesMicros returns every flow's processing time in µs.
func (r *RunResult) FlowTimesMicros() []float64 {
	out := make([]float64, 0, len(r.FlowCycles))
	for _, c := range r.FlowCycles {
		out = append(out, r.model.CyclesToMicros(c))
	}
	return out
}

func meanU64(xs []uint64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// ErrReroute is returned, bare, by a Drain process step that found its
// target stale (the cluster's view changed between routing and the
// instance lock): Drain routes the same run again.
var ErrReroute = errors.New("platform: route went stale")

// Drain is the arrival-order run loop every runner shares: it cuts pkts
// into maximal runs of at most batch packets that route sends to one
// target (a nil route means a single target, 0), hands each run to
// process — a ProcessBatch on the target's platform — and passes the
// measurements to fold while they are still valid (they point into the
// Batch the next run reuses), with the run's offset in pkts. A batch of
// 1 is the per-packet loop; 0 picks core.DefaultBatchSize, as NewBatch
// does. A nil fold discards the measurements. Arrival order is never
// changed, so NFs with cross-flow state see the packets exactly as a
// serial per-packet loop would feed them.
func Drain(pkts []*packet.Packet, batch int, route func(*packet.Packet) int,
	process func(target int, run []*packet.Packet) ([]Measurement, error),
	fold func(off int, ms []Measurement) error) error {
	if batch <= 0 {
		batch = core.DefaultBatchSize
	}
	for off := 0; off < len(pkts); {
		target, end := 0, min(off+batch, len(pkts))
		if route != nil {
			target = route(pkts[off])
			for n := off + 1; n < end; n++ {
				if route(pkts[n]) != target {
					end = n
					break
				}
			}
		}
		ms, err := process(target, pkts[off:end])
		if err == ErrReroute {
			continue
		}
		if err != nil {
			return fmt.Errorf("batch at packet %d: %w", off, err)
		}
		if fold != nil {
			if err := fold(off, ms); err != nil {
				return err
			}
		}
		off = end
	}
	return nil
}

// Fleet is what a run drives: one platform, a topology of chains, or a
// cluster of instances. ProcessRuns drains pkts in arrival order through
// Drain in vectors of at most batch packets on the caller's Batch,
// routing each run to the member that owns it (how is the fleet's own
// business), and passes each run's measurements to fold while they are
// still valid; Stats sums the members' engine counters.
type Fleet interface {
	ProcessRuns(pkts []*packet.Packet, batch int, b *Batch, fold func(off int, ms []Measurement) error) error
	Stats() core.Stats
	Model() *cost.Model
	Telemetry() *telemetry.Hub
}

// ProcessRuns is Drain over the one engine: no route, every run goes
// through ProcessBatch on b.
func (p *Platform) ProcessRuns(pkts []*packet.Packet, batch int, b *Batch, fold func(off int, ms []Measurement) error) error {
	err := Drain(pkts, batch, nil,
		func(_ int, run []*packet.Packet) ([]Measurement, error) { return p.ProcessBatch(run, b) }, fold)
	if err != nil {
		return fmt.Errorf("platform %s: %w", p.Name(), err)
	}
	return nil
}

// Stats returns the engine's counters.
func (p *Platform) Stats() core.Stats { return p.eng.Stats() }

// Telemetry returns the engine's hub (nil without one).
func (p *Platform) Telemetry() *telemetry.Hub { return p.eng.Telemetry() }

// Run feeds every packet of the trace through the fleet in order, one
// packet per vector, and aggregates the measurements. Packet buffers
// are consumed (the platform mutates or drops them).
func Run(f Fleet, pkts []*packet.Packet) (*RunResult, error) {
	return RunBatch(f, pkts, 1, nil)
}

// RunBatch is the serial runner: Run over batchSize-packet vectors (0
// picks core.DefaultBatchSize), fed through the fleet's ProcessRuns in
// arrival order. When pool is non-nil, every packet is returned to it
// after its measurement is folded in, so pooled trace replay recycles
// descriptors. On an error the result still aggregates every packet
// that completed, alongside the error.
func RunBatch(f Fleet, pkts []*packet.Packet, batchSize int, pool *packet.Pool) (*RunResult, error) {
	res := NewRunResult(f.Model())
	err := f.ProcessRuns(pkts, batchSize, NewBatch(batchSize), func(off int, ms []Measurement) error {
		res.Fold(ms)
		if pool != nil {
			for _, pkt := range pkts[off : off+len(ms)] {
				pool.Put(pkt)
			}
		}
		return nil
	})
	res.Stats = f.Stats()
	return res, err
}

// Partition splits pkts into per-worker queues by each flow's home FID,
// the way RSS hardware hashes the 5-tuple: all packets of a flow land
// in one queue in arrival order, so the flow has a single writer.
// Descriptors are parsed on demand; only frames Parse rejects have no
// flow and go to queue 0, where the platform reports the parse error.
//
// For worker counts up to the engine's shard count, the mapping groups
// whole state shards into contiguous per-worker ranges: the engine
// shards every per-flow structure — flow table, Global MAT, stats,
// degradation ladder — by the FID's low ShardCount bits, and flow-table
// collision probing advances in ShardCount strides, so those bits are
// stable for every FID a flow can end up with. Each shard (and each
// shard's mutexes and cache lines) is then touched by exactly one
// worker for the whole run instead of ping-ponging between cores.
// Worker counts above the shard count cannot own whole shards and fall
// back to plain modulo.
func Partition(pkts []*packet.Packet, workers int) [][]*packet.Packet {
	queues := make([][]*packet.Packet, workers)
	n := uint32(workers)
	for _, pkt := range pkts {
		w := 0
		if pkt.Parsed() || pkt.Parse() == nil {
			hi, lo, _ := pkt.FlowKey()
			home := uint32(flow.HashKey(hi, lo))
			if n <= flow.ShardCount {
				w = int((home & (flow.ShardCount - 1)) * n / flow.ShardCount)
			} else {
				w = int(home % n)
			}
		}
		queues[w] = append(queues[w], pkt)
	}
	return queues
}
