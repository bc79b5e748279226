package platform

import (
	"errors"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/trace"
)

// trivial prices a packet at its work plus 100 cycles, so multi-queue
// runs over a real engine exercise the full classify/record/consolidate
// path.
type trivial struct{}

func (trivial) Price(_ *cost.Model, results []core.PacketResult, ms []Measurement) {
	for i := range results {
		res := &results[i]
		ms[i] = Measurement{Result: res, WorkCycles: res.WorkCycles,
			LatencyCycles: res.WorkCycles + 100, BottleneckCycles: res.WorkCycles + 100}
	}
}

// dropNF deterministically drops one quarter of the flows by FID, so
// serial and multi-queue runs must agree on the drop count.
type dropNF struct{}

func (dropNF) Name() string { return "drop" }
func (dropNF) Process(ctx *core.Ctx, pkt *packet.Packet) (core.Verdict, error) {
	if ctx.FID%4 == 0 {
		return core.VerdictDrop, nil
	}
	return core.VerdictForward, nil
}

// orderNF records the arrival order of packet buffers per 5-tuple.
type orderNF struct {
	mu   sync.Mutex
	seen map[packet.FiveTuple][]*packet.Packet
}

func (o *orderNF) Name() string { return "order" }
func (o *orderNF) Process(ctx *core.Ctx, pkt *packet.Packet) (core.Verdict, error) {
	ft, err := pkt.FiveTuple()
	if err != nil {
		return 0, err
	}
	o.mu.Lock()
	o.seen[ft] = append(o.seen[ft], pkt)
	o.mu.Unlock()
	return core.VerdictForward, nil
}

func testTrace(t *testing.T) []*packet.Packet {
	t.Helper()
	tr, err := trace.Generate(trace.Config{Seed: 7, Flows: 48, Interleave: true})
	if err != nil {
		t.Fatal(err)
	}
	return tr.Packets()
}

func newEngPlatform(t *testing.T, chain []core.NF, opts core.Options) *Platform {
	t.Helper()
	eng, err := core.NewEngine(chain, opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(eng, "eng", "eng", trivial{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewMultiQueueValidation(t *testing.T) {
	if _, err := NewMultiQueue(nil, 4); err == nil {
		t.Error("nil platform accepted")
	}
	p := newEngPlatform(t, []core.NF{noopNF{}}, core.DefaultOptions())
	if _, err := NewMultiQueue(p, 0); err == nil {
		t.Error("zero workers accepted")
	}
	mq, err := NewMultiQueue(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mq.Workers() != 4 || mq.BatchSize() != 1 {
		t.Errorf("Workers=%d BatchSize=%d, want 4 and 1", mq.Workers(), mq.BatchSize())
	}
}

// TestMultiQueueMatchesSerial checks that a 4-worker run over the same
// trace produces the same aggregate accounting as the serial runner:
// identical packet/drop counts, identical engine statistics (flows are
// independent, so per-flow path decisions cannot depend on the
// cross-flow interleaving), and identical work-cycle totals.
func TestMultiQueueMatchesSerial(t *testing.T) {
	serialP := newEngPlatform(t, []core.NF{dropNF{}}, core.DefaultOptions())
	serial, err := Run(serialP, testTrace(t))
	if err != nil {
		t.Fatal(err)
	}

	mqP := newEngPlatform(t, []core.NF{dropNF{}}, core.DefaultOptions())
	mq, err := NewMultiQueue(mqP, 4)
	if err != nil {
		t.Fatal(err)
	}
	par, err := mq.Run(testTrace(t))
	if err != nil {
		t.Fatal(err)
	}

	if par.Packets != serial.Packets || par.Drops != serial.Drops {
		t.Errorf("multiqueue packets=%d drops=%d, serial packets=%d drops=%d",
			par.Packets, par.Drops, serial.Packets, serial.Drops)
	}
	if par.Stats != serial.Stats {
		t.Errorf("stats diverged:\nmq:     %+v\nserial: %+v", par.Stats, serial.Stats)
	}
	var mqWork, serWork uint64
	for _, c := range par.WorkCycles {
		mqWork += c
	}
	for _, c := range serial.WorkCycles {
		serWork += c
	}
	if mqWork != serWork {
		t.Errorf("work cycles: multiqueue %d, serial %d", mqWork, serWork)
	}
	if len(par.FlowCycles) != len(serial.FlowCycles) {
		t.Fatalf("flow count: multiqueue %d, serial %d", len(par.FlowCycles), len(serial.FlowCycles))
	}
	for fid, c := range serial.FlowCycles {
		if par.FlowCycles[fid] != c {
			t.Errorf("flow %v cycles: multiqueue %d, serial %d", fid, par.FlowCycles[fid], c)
		}
	}
	if math.IsNaN(par.MeanLatencyMicros()) || par.RateMpps() <= 0 {
		t.Errorf("latency=%g rate=%g", par.MeanLatencyMicros(), par.RateMpps())
	}
}

// TestMultiQueuePreservesFlowOrder checks the RSS guarantee: all
// packets of one flow land on one worker, so each flow's packets reach
// the chain in trace order even though flows run concurrently. The
// engine runs in baseline mode so every packet traverses the recording
// NF (with SpeedyBox on, subsequent packets bypass the chain).
func TestMultiQueuePreservesFlowOrder(t *testing.T) {
	pkts := testTrace(t)
	want := make(map[packet.FiveTuple][]*packet.Packet)
	for _, pkt := range pkts {
		ft, err := pkt.FiveTuple()
		if err != nil {
			t.Fatal(err)
		}
		want[ft] = append(want[ft], pkt)
	}

	rec := &orderNF{seen: make(map[packet.FiveTuple][]*packet.Packet)}
	mq, err := NewMultiQueue(newEngPlatform(t, []core.NF{rec}, core.BaselineOptions()), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mq.Run(pkts); err != nil {
		t.Fatal(err)
	}

	if len(rec.seen) != len(want) {
		t.Fatalf("saw %d flows, want %d", len(rec.seen), len(want))
	}
	for ft, wantOrder := range want {
		gotOrder := rec.seen[ft]
		if len(gotOrder) != len(wantOrder) {
			t.Fatalf("flow %v: saw %d packets, want %d", ft, len(gotOrder), len(wantOrder))
		}
		for i := range wantOrder {
			if gotOrder[i] != wantOrder[i] {
				t.Fatalf("flow %v: packet %d out of order", ft, i)
			}
		}
	}
}

func TestMultiQueuePropagatesError(t *testing.T) {
	mq, err := NewMultiQueue(newFake(t, failNF{}, nil), 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mq.Run([]*packet.Packet{pkt(t)})
	if err == nil {
		t.Error("multiqueue swallowed the platform error")
	}
	if res == nil || res.Packets != 0 || len(res.QueueDepths) != 2 {
		t.Errorf("partial result = %+v, want an empty aggregate with both queue depths", res)
	}
}

// unparsedTwin returns fresh, never-parsed descriptors over copies of
// the packets' frames — what a NIC ring hands the runner.
func unparsedTwin(pkts []*packet.Packet) []*packet.Packet {
	out := make([]*packet.Packet, len(pkts))
	for i, p := range pkts {
		out[i] = packet.New(append([]byte(nil), p.Data()...))
	}
	return out
}

// TestPartitionParsesOnDemand: a descriptor that has not been parsed yet
// is not unparseable. An unparsed trace must spread over the worker
// queues exactly as its parsed twin does, and produce the same run.
func TestPartitionParsesOnDemand(t *testing.T) {
	run := func(pkts []*packet.Packet) *RunResult {
		mq, err := NewMultiQueue(newEngPlatform(t, []core.NF{dropNF{}}, core.DefaultOptions()), 4)
		if err != nil {
			t.Fatal(err)
		}
		mq.SetBatchSize(8)
		res, err := mq.Run(pkts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	parsed := run(testTrace(t))
	twin := unparsedTwin(testTrace(t))
	if twin[0].Parsed() {
		t.Fatal("twin descriptors are already parsed; the test is vacuous")
	}
	unparsed := run(twin)
	if !slices.Equal(unparsed.QueueDepths, parsed.QueueDepths) {
		t.Errorf("queue depths: unparsed %v, parsed %v", unparsed.QueueDepths, parsed.QueueDepths)
	}
	busy := 0
	for _, d := range parsed.QueueDepths {
		if d > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("queue depths %v: the trace never left queue 0", parsed.QueueDepths)
	}
	if unparsed.Packets != parsed.Packets || unparsed.Drops != parsed.Drops || unparsed.Stats != parsed.Stats {
		t.Errorf("runs diverged:\nunparsed: packets=%d drops=%d %+v\nparsed:   packets=%d drops=%d %+v",
			unparsed.Packets, unparsed.Drops, unparsed.Stats, parsed.Packets, parsed.Drops, parsed.Stats)
	}
}

// TestMalformedFrameSurfacesFromQueueZero: a frame Parse rejects has no
// flow, so it goes to queue 0, whose worker reports the parse error —
// alongside the aggregate of everything that did complete.
func TestMalformedFrameSurfacesFromQueueZero(t *testing.T) {
	good := unparsedTwin(testTrace(t))
	pkts := append(good, packet.New([]byte{0xde, 0xad, 0xbe, 0xef}))
	mq, err := NewMultiQueue(newEngPlatform(t, []core.NF{noopNF{}}, core.DefaultOptions()), 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mq.Run(pkts)
	if !errors.Is(err, packet.ErrTruncated) {
		t.Fatalf("err = %v, want the frame's ErrTruncated", err)
	}
	if !strings.Contains(err.Error(), "queue 0") {
		t.Errorf("err = %v, want it attributed to queue 0", err)
	}
	if res == nil || res.Packets != len(good) {
		t.Fatalf("partial result = %+v, want the %d good packets aggregated", res, len(good))
	}
	total := 0
	for _, d := range res.QueueDepths {
		total += d
	}
	if total != len(pkts) {
		t.Errorf("queue depths %v sum to %d, want %d", res.QueueDepths, total, len(pkts))
	}
}

// TestMultiQueueBatchedMatchesSerial is TestMultiQueueMatchesSerial
// across vector sizes: SetBatchSize must change only how many packets
// move per ProcessBatch call, never the aggregate accounting.
func TestMultiQueueBatchedMatchesSerial(t *testing.T) {
	serialP := newEngPlatform(t, []core.NF{dropNF{}}, core.DefaultOptions())
	serial, err := Run(serialP, testTrace(t))
	if err != nil {
		t.Fatal(err)
	}

	for _, batch := range []int{1, 8, 32} {
		mqP := newEngPlatform(t, []core.NF{dropNF{}}, core.DefaultOptions())
		mq, err := NewMultiQueue(mqP, 4)
		if err != nil {
			t.Fatal(err)
		}
		mq.SetBatchSize(batch)
		if got := mq.BatchSize(); got != batch {
			t.Fatalf("BatchSize = %d, want %d", got, batch)
		}
		par, err := mq.Run(testTrace(t))
		if err != nil {
			t.Fatal(err)
		}
		if par.Packets != serial.Packets || par.Drops != serial.Drops {
			t.Errorf("batch=%d: packets=%d drops=%d, serial packets=%d drops=%d",
				batch, par.Packets, par.Drops, serial.Packets, serial.Drops)
		}
		if par.Stats != serial.Stats {
			t.Errorf("batch=%d: stats diverged:\nmq:     %+v\nserial: %+v", batch, par.Stats, serial.Stats)
		}
		var mqWork, serWork uint64
		for _, c := range par.WorkCycles {
			mqWork += c
		}
		for _, c := range serial.WorkCycles {
			serWork += c
		}
		if mqWork != serWork {
			t.Errorf("batch=%d: work cycles %d, serial %d", batch, mqWork, serWork)
		}
	}
}

// TestRunBatchMatchesRun drives the runner in vectors of 32 over the
// same trace as in vectors of one (Run) and compares every aggregate,
// with and without a descriptor pool.
func TestRunBatchMatchesRun(t *testing.T) {
	serialP := newEngPlatform(t, []core.NF{dropNF{}}, core.DefaultOptions())
	serial, err := Run(serialP, testTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, withPool := range []bool{false, true} {
		batchP := newEngPlatform(t, []core.NF{dropNF{}}, core.DefaultOptions())
		var pool *packet.Pool
		pkts := testTrace(t)
		if withPool {
			pool = packet.NewPool()
			pooled := make([]*packet.Packet, 0, len(pkts))
			for _, p := range pkts {
				pooled = append(pooled, pool.Clone(p))
			}
			pkts = pooled
		}
		got, err := RunBatch(batchP, pkts, 32, pool)
		if err != nil {
			t.Fatal(err)
		}
		if got.Packets != serial.Packets || got.Drops != serial.Drops {
			t.Errorf("pool=%v: packets=%d drops=%d, serial packets=%d drops=%d",
				withPool, got.Packets, got.Drops, serial.Packets, serial.Drops)
		}
		if got.Stats != serial.Stats {
			t.Errorf("pool=%v: stats diverged:\nbatch:  %+v\nserial: %+v", withPool, got.Stats, serial.Stats)
		}
	}
}
