package platform

import (
	"fmt"
	"sync"

	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
)

// MultiQueue is the parallel runner. It models an RSS-style multi-queue
// NIC feeding a fleet from several cores: packets are hash-partitioned
// by 5-tuple across W worker queues (Partition), and each worker drains
// its queue through the fleet's ProcessRuns, exactly as the serial
// RunBatch drains the whole trace. Because the partition key is the
// flow hash, all packets of a flow land on the same worker, which
// preserves per-flow ordering — the same guarantee hardware RSS gives —
// while disjoint flows proceed in parallel on the engines' FID-sharded
// state.
type MultiQueue struct {
	f       Fleet
	workers int
	batch   int

	// Per-worker telemetry, nil slices when the fleet has no hub:
	// queueDepth[w] is set at partition time, workerPkts[w] counts
	// packets the worker completed.
	queueDepth []*telemetry.Gauge
	workerPkts []*telemetry.Counter
}

// NewMultiQueue wraps the fleet with a workers-way RSS dispatcher.
func NewMultiQueue(f Fleet, workers int) (*MultiQueue, error) {
	if f == nil {
		return nil, fmt.Errorf("platform: multiqueue: nil fleet")
	}
	if workers < 1 {
		return nil, fmt.Errorf("platform: multiqueue: workers must be >= 1, got %d", workers)
	}
	m := &MultiQueue{f: f, workers: workers, batch: 1}
	if hub := f.Telemetry(); hub != nil {
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

// SetBatchSize sets the vector size: each worker owns a Batch (stage
// records, pooled results) and feeds its queue through the fleet in
// n-packet vectors. n <= 1 is a vector of one, which is also
// NewMultiQueue's default. Call before Run, not during one.
func (m *MultiQueue) SetBatchSize(n int) { m.batch = max(n, 1) }

// BatchSize returns the configured vector size (at least 1).
func (m *MultiQueue) BatchSize() int { return m.batch }

// drain is one worker's share of a Run: its queue through the fleet in
// arrival order on a worker-owned Batch (its scratch is reused vector
// after vector; no flow handle outlives the vector that resolved it),
// folded into the worker's private partial result.
func (m *MultiQueue) drain(w int, q []*packet.Packet, part *RunResult) error {
	if m.queueDepth != nil {
		m.queueDepth[w].Set(int64(len(q)))
	}
	err := m.f.ProcessRuns(q, m.batch, NewBatch(m.batch), func(_ int, ms []Measurement) error {
		part.Fold(ms)
		if m.workerPkts != nil {
			m.workerPkts[w].Add(uint64(len(ms)))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("queue %d: %w", w, err)
	}
	return nil
}

// Run partitions the trace across the workers, drains every queue
// concurrently and merges the workers' partial results after all of
// them join, so workers never share a counter or map during the run;
// it returns only after every queue has drained, with the same
// accounting as the serial RunBatch. Packet buffers are consumed (the
// platform mutates or drops them). On a worker error the result still
// aggregates every completed packet, alongside the first error by
// worker index.
func (m *MultiQueue) Run(pkts []*packet.Packet) (*RunResult, error) {
	queues := Partition(pkts, m.workers)
	parts := make([]RunResult, m.workers)
	errs := make([]error, m.workers)
	var wg sync.WaitGroup
	for w := range queues {
		parts[w] = *NewRunResult(m.f.Model())
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = m.drain(w, queues[w], &parts[w])
		}(w)
	}
	wg.Wait()

	total := &parts[0] // worker 0's partial becomes the aggregate
	total.QueueDepths = make([]int, m.workers)
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
	total.Stats = m.f.Stats()
	return total, first
}
