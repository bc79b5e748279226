// Package platform defines the execution-platform abstraction shared
// by the BESS and OpenNetVM models: per-packet measurements combining
// the engine's work accounting with platform-specific latency and
// throughput formulas, plus a trace runner that aggregates run-level
// statistics (per-packet latency, per-flow processing time, rate).
package platform

import (
	"errors"
	"fmt"
	"sync"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// Measurement is one packet's platform-level account.
type Measurement struct {
	// Result is the engine's path/verdict/work decomposition.
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

// Platform is an NFV execution platform hosting one service chain.
type Platform interface {
	// Name returns the platform name ("BESS" or "OpenNetVM"),
	// suffixed with " w/ SBox" when SpeedyBox is enabled.
	Name() string
	// Process runs one packet through the chain.
	Process(pkt *packet.Packet) (Measurement, error)
	// ProcessBatch runs a vector of packets through the chain in
	// arrival order, using the caller-owned Batch scratch (one per
	// worker goroutine). Returned measurements point into the Batch and
	// are valid until its next use. Semantics match calling Process per
	// packet; platforms amortize dispatch, lookups and allocations
	// across the vector.
	ProcessBatch(pkts []*packet.Packet, b *Batch) ([]Measurement, error)
	// Engine exposes the underlying SpeedyBox engine.
	Engine() *core.Engine
	// Model exposes the cost model.
	Model() *cost.Model
	// Close releases platform resources: the engine stops being a home
	// of its NFs' per-flow state.
	Close() error
}

// Reconfigurer is the optional live-reconfiguration capability: a
// platform implementing it applies a chain plan without stopping the
// pipeline (no packet dropped, surviving NF state preserved). Callers
// type-assert:
//
//	if r, ok := p.(platform.Reconfigurer); ok { err = r.Reconfigure(plan) }
//
// Both the BESS and the ONVM model implement it; the interface stays
// separate from Platform so third-party platforms without a live path
// remain valid.
type Reconfigurer interface {
	Reconfigure(plan core.ChainPlan) error
}

// Batch is per-worker scratch for ProcessBatch: the engine-level batch
// state (flow contexts, pooled result storage) plus the platform's
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

// Measurements returns the reusable measurement buffer resized to n
// (for platform implementations).
func (b *Batch) Measurements(n int) []Measurement {
	if cap(b.meas) < n {
		b.meas = make([]Measurement, n)
	}
	b.meas = b.meas[:n]
	return b.meas
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

// Run feeds every packet of the trace through the platform in order,
// one packet per vector, and aggregates the measurements. Packet
// buffers are consumed (the platform mutates or drops them).
func Run(p Platform, pkts []*packet.Packet) (*RunResult, error) {
	return RunBatch(p, pkts, 1, nil)
}

// RunBatch is Run over batchSize-packet vectors (0 picks
// core.DefaultBatchSize): packets are fed through ProcessBatch in
// arrival order. When pool is non-nil, every packet is returned to it
// after its measurement is folded in, so pooled trace replay recycles
// descriptors.
func RunBatch(p Platform, pkts []*packet.Packet, batchSize int, pool *packet.Pool) (*RunResult, error) {
	b := NewBatch(batchSize)
	res := NewRunResult(p.Model())
	err := Drain(pkts, batchSize, nil,
		func(_ int, run []*packet.Packet) ([]Measurement, error) { return p.ProcessBatch(run, b) },
		func(off int, ms []Measurement) error {
			res.Fold(ms)
			if pool != nil {
				for _, pkt := range pkts[off : off+len(ms)] {
					pool.Put(pkt)
				}
			}
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("platform %s: %w", p.Name(), err)
	}
	res.Stats = p.Engine().Stats()
	return res, nil
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

// RunWorkers is the parallel run shell: it partitions pkts across
// workers (Partition), drains every queue concurrently — drain folds
// worker w's measurements into its private partial result — and merges
// the partials after all workers join, so workers never share a counter
// or map during the run. It returns the aggregate of every completed
// packet, with QueueDepths set, plus the first worker error by worker
// index; the caller fills in Stats.
func RunWorkers(pkts []*packet.Packet, workers int, model *cost.Model,
	drain func(w int, queue []*packet.Packet, part *RunResult) error) (*RunResult, error) {
	queues := Partition(pkts, workers)
	parts := make([]RunResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range queues {
		parts[w] = *NewRunResult(model)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = drain(w, queues[w], &parts[w])
		}(w)
	}
	wg.Wait()

	total := &parts[0] // worker 0's partial becomes the aggregate
	total.QueueDepths = make([]int, workers)
	var first error
	for w := range parts {
		total.QueueDepths[w] = len(queues[w])
		if w > 0 {
			total.Merge(&parts[w])
		}
		if first == nil {
			first = errs[w]
		}
	}
	return total, first
}
