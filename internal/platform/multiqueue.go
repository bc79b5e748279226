package platform

import (
	"fmt"

	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
)

// MultiQueue models an RSS-style multi-queue NIC feeding one engine
// from several cores: packets are hash-partitioned by 5-tuple across W
// worker queues (Partition), and each worker drains its queue through
// the platform's ProcessBatch. Because the partition key is the flow
// hash, all packets of a flow land on the same worker, which preserves
// per-flow ordering — the same guarantee hardware RSS gives — while
// disjoint flows proceed in parallel on the engine's FID-sharded state.
type MultiQueue struct {
	p       *Platform
	workers int
	batch   int

	// Multi-chain fair-share mode (SetClasses): each worker splits its
	// queue into per-class subqueues via route and drains them
	// weighted-round-robin through the class platforms.
	classes []ChainClass
	route   func(*packet.Packet) int

	// Per-worker telemetry, nil slices when the wrapped engine has no
	// hub: queueDepth[w] is set at partition time, workerPkts[w] counts
	// packets the worker completed.
	queueDepth []*telemetry.Gauge
	workerPkts []*telemetry.Counter
}

// ChainClass pairs one chain's platform with a scheduling weight for
// fair-share draining in a multi-chain topology.
type ChainClass struct {
	// Platform processes the class's packets (one chain's engine).
	Platform *Platform
	// Weight is the class's relative share, >= 1: per scheduling round
	// a class may process up to Weight×quantum packets before yielding
	// to the next class (quantum = the batch size, min 1). A tenant
	// flooding one chain therefore delays other chains' packets by at
	// most one round of bounded quanta, not by its whole backlog.
	Weight int
}

// NewMultiQueue wraps the platform with a workers-way RSS dispatcher.
func NewMultiQueue(p *Platform, workers int) (*MultiQueue, error) {
	if p == nil {
		return nil, fmt.Errorf("platform: multiqueue: nil platform")
	}
	if workers < 1 {
		return nil, fmt.Errorf("platform: multiqueue: workers must be >= 1, got %d", workers)
	}
	m := &MultiQueue{p: p, workers: workers, batch: 1}
	if hub := p.Engine().Telemetry(); hub != nil {
		m.queueDepth = make([]*telemetry.Gauge, workers)
		m.workerPkts = make([]*telemetry.Counter, workers)
		for w := 0; w < workers; w++ {
			m.queueDepth[w] = hub.Registry.Gauge(
				fmt.Sprintf(`speedybox_mq_queue_depth{worker="%d"}`, w),
				"Packets partitioned to the worker's queue in the current run")
			m.workerPkts[w] = hub.Registry.Counter(
				fmt.Sprintf(`speedybox_mq_worker_packets_total{worker="%d"}`, w),
				"Packets completed by the worker")
		}
	}
	return m, nil
}

// Workers returns the configured queue count.
func (m *MultiQueue) Workers() int { return m.workers }

// SetBatchSize sets the vector size: each worker owns a Batch (rule
// cache, pooled results) and feeds its queue through the platform's
// ProcessBatch in n-packet vectors. n <= 1 is a vector of one, which is
// also NewMultiQueue's default. Call before Run, not during one.
func (m *MultiQueue) SetBatchSize(n int) { m.batch = max(n, 1) }

// BatchSize returns the configured vector size (at least 1).
func (m *MultiQueue) BatchSize() int { return m.batch }

// Platform returns the wrapped platform.
func (m *MultiQueue) Platform() *Platform { return m.p }

// SetClasses switches the dispatcher to multi-chain fair-share mode:
// route maps each packet to a class index (out-of-range falls back to
// class 0, whose platform also reports parse errors), and every worker
// drains its per-class subqueues weighted-round-robin through the
// class platforms instead of the wrapped one. Flow-hash partitioning
// is unchanged — a flow still lands on exactly one worker, and because
// routing is flow-stable, on exactly one class there — so per-flow
// ordering survives; only cross-chain interleaving changes, which no
// chain can observe. An empty classes slice returns to single-chain
// mode. Call before Run, not during one.
func (m *MultiQueue) SetClasses(classes []ChainClass, route func(*packet.Packet) int) error {
	if len(classes) == 0 {
		m.classes, m.route = nil, nil
		return nil
	}
	if route == nil {
		return fmt.Errorf("platform: multiqueue: classes without a route function")
	}
	for i, c := range classes {
		if c.Platform == nil {
			return fmt.Errorf("platform: multiqueue: class %d has a nil platform", i)
		}
		if c.Weight < 1 {
			return fmt.Errorf("platform: multiqueue: class %d weight must be >= 1, got %d", i, c.Weight)
		}
	}
	m.classes = classes
	m.route = route
	return nil
}

// drainClasses feeds one worker's queue through the class platforms in
// weighted-round-robin order: per round, class c processes up to
// Weight×quantum of its own backlog in vectors of at most the batch
// size, then yields. Packets keep their arrival order within a class
// (per-flow order), while classes interleave at quantum granularity —
// the fair-share guarantee. It is the one drain policy besides Drain's
// arrival order.
func (m *MultiQueue) drainClasses(w int, q []*packet.Packet, part *RunResult) error {
	nc := len(m.classes)
	sub := make([][]*packet.Packet, nc)
	for _, pkt := range q {
		c := m.route(pkt)
		if c < 0 || c >= nc {
			c = 0
		}
		sub[c] = append(sub[c], pkt)
	}
	batches := make([]*Batch, nc)
	off := make([]int, nc)
	for remaining := len(q); remaining > 0; {
		for c := 0; c < nc; c++ {
			budget := m.classes[c].Weight * m.batch
			for budget > 0 && off[c] < len(sub[c]) {
				end := min(off[c]+min(budget, m.batch), len(sub[c]))
				span := sub[c][off[c]:end]
				if batches[c] == nil {
					batches[c] = NewBatch(m.batch)
				}
				ms, err := m.classes[c].Platform.ProcessBatch(span, batches[c])
				if err != nil {
					return fmt.Errorf("platform %s: queue %d class %d batch at packet %d: %w",
						m.classes[c].Platform.Name(), w, c, off[c], err)
				}
				part.Fold(ms)
				if m.workerPkts != nil {
					m.workerPkts[w].Add(uint64(len(span)))
				}
				budget -= len(span)
				off[c] = end
				remaining -= len(span)
			}
		}
	}
	return nil
}

// drain is one worker's share of a Run: its queue through the wrapped
// platform in arrival order, or through the class platforms in
// fair-share mode, reusing a worker-owned Batch (flow contexts and
// result storage persist across vectors of the same queue — by the RSS
// partition, exactly the packets of the worker's own flows).
func (m *MultiQueue) drain(w int, q []*packet.Packet, part *RunResult) error {
	if m.queueDepth != nil {
		m.queueDepth[w].Set(int64(len(q)))
	}
	if m.classes != nil {
		return m.drainClasses(w, q, part)
	}
	b := NewBatch(m.batch)
	err := Drain(q, m.batch, nil,
		func(_ int, run []*packet.Packet) ([]Measurement, error) { return m.p.ProcessBatch(run, b) },
		func(_ int, ms []Measurement) error {
			part.Fold(ms)
			if m.workerPkts != nil {
				m.workerPkts[w].Add(uint64(len(ms)))
			}
			return nil
		})
	if err != nil {
		return fmt.Errorf("platform %s: queue %d: %w", m.p.Name(), w, err)
	}
	return nil
}

// Run partitions the trace across the workers and processes the queues
// concurrently (RunWorkers), aggregating the same measurements as the
// serial Run. Packet buffers are consumed (the platform mutates or
// drops them). On a worker error the result still aggregates every
// completed packet, alongside the first error by worker index.
func (m *MultiQueue) Run(pkts []*packet.Packet) (*RunResult, error) {
	res, err := RunWorkers(pkts, m.workers, m.p.Model(), m.drain)
	if m.classes == nil {
		res.Stats = m.p.Engine().Stats()
	}
	for _, c := range m.classes {
		res.Stats.Add(c.Platform.Engine().Stats())
	}
	return res, err
}
