package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/fastpathnfv/speedybox/internal/bess"
	"github.com/fastpathnfv/speedybox/internal/cluster"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// The traced run and the daemon cut their time into slices, and each of
// their timing metrics is its best slice's value: this host shares its
// cores, interference only ever adds time, and a slice is long enough
// to hold what the program itself does periodically. The daemon's
// slices are a tenth of its run, because its packet counter moves in
// steps of a pump window (~80 ms of run after ~10 ms of cloning) and a
// short slice would mostly measure where in that cycle it began. The timed
// run of a library workload is folded by quietPass instead.
const (
	librarySlices = 40
	daemonSlices  = 10
)

// target is a primed system under test behind one of the library entry
// points. call is the timed step; outcome is read afterwards, outside
// the timed region.
type target interface {
	name() string
	call(pkts []*packet.Packet) error
	// outcome reports the last call's completed packets, drops and
	// modeled work cycles.
	outcome() (done, drops int, cycles uint64)
	engines() []*core.Engine
	close() error
}

type engineTarget struct {
	p   *bess.Platform
	bat *platform.Batch
	ms  []platform.Measurement
}

func (t *engineTarget) name() string { return "bess.process_batch" }

func (t *engineTarget) call(pkts []*packet.Packet) (err error) {
	t.ms, err = t.p.ProcessBatch(pkts, t.bat)
	return err
}

func (t *engineTarget) outcome() (done, drops int, cycles uint64) {
	for i := range t.ms {
		if t.ms[i].Result.Verdict == core.VerdictDrop {
			drops++
		}
		cycles += t.ms[i].WorkCycles
	}
	return len(t.ms), drops, cycles
}

func (t *engineTarget) engines() []*core.Engine { return []*core.Engine{t.p.Engine()} }
func (t *engineTarget) close() error            { return t.p.Close() }

type runnerTarget struct {
	p   *bess.Platform
	mq  *platform.MultiQueue
	res *platform.RunResult
}

func (t *runnerTarget) name() string { return "platform.mq_run" }

func (t *runnerTarget) call(pkts []*packet.Packet) (err error) {
	t.res, err = t.mq.Run(pkts)
	return err
}

func (t *runnerTarget) outcome() (done, drops int, cycles uint64) {
	return t.res.Packets, t.res.Drops, sum(t.res.WorkCycles)
}

func (t *runnerTarget) engines() []*core.Engine { return []*core.Engine{t.p.Engine()} }
func (t *runnerTarget) close() error            { return t.p.Close() }

type clusterTarget struct {
	cl  *cluster.Cluster
	res *platform.RunResult
}

func (t *clusterTarget) name() string { return "cluster.run" }

func (t *clusterTarget) call(pkts []*packet.Packet) (err error) {
	t.res, err = t.cl.Run(pkts, workers, vecSize)
	return err
}

func (t *clusterTarget) outcome() (done, drops int, cycles uint64) {
	return t.res.Packets, t.res.Drops, sum(t.res.WorkCycles)
}

func sum(xs []uint64) (total uint64) {
	for _, x := range xs {
		total += x
	}
	return total
}

func (t *clusterTarget) engines() []*core.Engine {
	es := make([]*core.Engine, t.cl.Len())
	for i := range es {
		es[i] = t.cl.Engine(i)
	}
	return es
}

func (t *clusterTarget) close() error { return t.cl.Close() }

// newBESS builds a BESS platform over a fresh chain.
func newBESS(spec string, opts core.Options, withWAL bool) (*bess.Platform, error) {
	chain, err := buildChain(spec)
	if err != nil {
		return nil, err
	}
	p, err := bess.New(bess.Config{Chain: chain, Options: opts})
	if err != nil {
		return nil, fmt.Errorf("build bess platform: %w", err)
	}
	if withWAL {
		p.Engine().AttachWAL(wal.NewWriter(wal.Options{}))
	}
	return p, nil
}

// workloadTarget is the builder of the workload's own system under
// test, unprimed. hub is nil except in traced runs.
func workloadTarget(w *workload, hub *telemetry.Hub) func() (target, error) {
	return func() (target, error) {
		opts := core.DefaultOptions()
		opts.Telemetry = hub
		if w.entry == entryCluster {
			chain, err := buildChain(w.spec)
			if err != nil {
				return nil, err
			}
			cl, err := cluster.New(cluster.Config{Chain: chain, Options: opts, Instances: workers, Hub: hub})
			if err != nil {
				return nil, fmt.Errorf("build cluster: %w", err)
			}
			return &clusterTarget{cl: cl}, nil
		}
		p, err := newBESS(w.spec, opts, w.wal)
		if err != nil {
			return nil, err
		}
		if w.entry == entryEngine {
			return &engineTarget{p: p, bat: platform.NewBatch(vecSize)}, nil
		}
		mq, err := platform.NewMultiQueue(p, workers)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("build multi-queue runner: %w", err)
		}
		mq.SetBatchSize(vecSize)
		return &runnerTarget{p: p, mq: mq}, nil
	}
}

// driver replays a workload's frames through its target: the closed
// loop of one caller that waits for verdicts, as a run-to-completion
// poll loop does.
type driver struct {
	w      *workload
	t      target
	prime  [][]byte // nil when the first pass of pass primes
	pass   [][]byte
	pkts   []*packet.Packet
	unit   int // packets per call: a vector, or the whole window
	rec    *recorder
	tally  tally
	expect expectation
	// drops and cycles are the last replayed pass's drop count and
	// modeled work cycles.
	drops  int
	cycles uint64
}

// expectation is what every timed pass must reproduce; it comes from
// the output check's reference run.
type expectation struct {
	drops    int // reference chain's drops over one pass
	resident int // flows and rules left after a pass; 0 is unchecked
}

// tally counts checked operations. An operation is one packet whose
// outcome was compared against what the reference predicts.
type tally struct {
	ops, failed int
}

// slice holds one slice's raw samples.
type slice struct {
	pktNs   []float32 // per call: wall time / packets
	callNs  []float32 // per call: whole wall time
	packets int
	timed   time.Duration
}

// add records one call of n packets that took dt. A nil slice is an
// untimed pass.
func (s *slice) add(dt time.Duration, n int) {
	if s == nil {
		return
	}
	s.pktNs = append(s.pktNs, float32(float64(dt)/float64(n)))
	s.callNs = append(s.callNs, float32(dt))
	s.packets += n
	s.timed += dt
}

// setup generates the workload's frames, builds its system under test
// and primes it: everything a user waits for before the first fast-path
// packet. Its wall time is setup_s.
func setup(w *workload, seed int64, build func() (target, error)) (*driver, error) {
	prime, pass, err := w.frames(seed)
	if err != nil {
		return nil, err
	}
	t, err := build()
	if err != nil {
		return nil, err
	}
	d := &driver{w: w, t: t, prime: prime, pass: pass, unit: vecSize}
	if _, vectors := t.(*engineTarget); !vectors {
		d.unit = len(pass)
	}
	d.pkts = descriptors(max(len(prime), len(pass)))
	if d.prime != nil {
		err = d.replay(d.prime, nil)
	}
	if err == nil {
		err = d.replay(d.pass, nil)
	}
	if err != nil {
		t.close()
		return nil, err
	}
	return d, nil
}

// engineDriver sets up a BESS platform of the workload's chain, driven
// in vectors whatever entry point the workload itself uses. Only a
// SpeedyBox engine journals, so a baseline one gets no WAL.
func engineDriver(w *workload, seed int64, opts core.Options) (*driver, error) {
	return setup(w, seed, func() (target, error) {
		p, err := newBESS(w.spec, opts, w.wal && opts.EnableSpeedyBox)
		if err != nil {
			return nil, err
		}
		return &engineTarget{p: p, bat: platform.NewBatch(vecSize)}, nil
	})
}

// replay is one pass of frames through the target. With a slice it
// records one sample per call.
func (d *driver) replay(frames [][]byte, s *slice) error {
	d.rec.nextPass()
	entryName := d.t.name()
	d.rec.begin("rx")
	rx(d.pkts[:len(frames)], frames)
	d.rec.end()
	done, drops := 0, 0
	d.cycles = 0
	for off := 0; off < len(frames); off += d.unit {
		vec := d.pkts[off:min(off+d.unit, len(frames))]
		t0 := time.Now()
		d.rec.begin("call")
		d.rec.begin("packet.parse")
		err := parse(vec)
		d.rec.end()
		if err == nil {
			d.rec.begin(entryName)
			err = d.t.call(vec)
			d.rec.end()
		}
		d.rec.end()
		dt := time.Since(t0)

		if err != nil {
			d.tally.ops += len(frames) - off
			d.tally.failed += len(frames) - off
			return fmt.Errorf("%s: %s at packet %d: %w", d.w.name, entryName, off, err)
		}
		n, dr, cyc := d.t.outcome()
		done += n
		drops += dr
		d.cycles += cyc
		s.add(dt, len(vec))
	}
	d.drops = drops
	if s == nil {
		return nil
	}
	// Timed passes are checked by count: packets lost by the entry
	// point, and drops the reference chain did not make.
	d.tally.ops += len(frames)
	d.tally.failed += min(len(frames), len(frames)-done+abs(drops-d.expect.drops))
	if want := d.expect.resident; want != 0 {
		for _, e := range d.t.engines() {
			if e.FlowLen() != want || e.Global().Len() != want {
				d.tally.failed += len(frames)
				break
			}
		}
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// timedPass is one pass of the workload's frames, sampled into s.
func (d *driver) timedPass(s *slice) error { return d.replay(d.pass, s) }

// measure repeats pass for the given wall time, cut into slices of at
// least the given length. A slice ends with the pass during which its
// time ran out, so a workload whose passes are long gets fewer, longer
// slices.
func measure(total, sliceLen time.Duration, pass func(*slice) error) ([]slice, error) {
	var out []slice
	for begin := time.Now(); time.Since(begin) < total; {
		var s slice
		for start := time.Now(); time.Since(start) < sliceLen; {
			if err := pass(&s); err != nil {
				return nil, err
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// timings are the timing metrics of a run.
type timings struct {
	mpps, pktNsP50, callNsP99 float64
	packets, samples, slices  int
}

// fold takes each timing metric from its best slice. The traced run
// and the daemon, whose calls are not the same work pass after pass,
// are folded this way.
func fold(ss []slice) timings {
	t := timings{pktNsP50: math.Inf(1), callNsP99: math.Inf(1), slices: len(ss)}
	for i := range ss {
		s := &ss[i]
		if s.packets == 0 {
			continue
		}
		t.mpps = max(t.mpps, float64(s.packets)/s.timed.Seconds()/1e6)
		t.pktNsP50 = min(t.pktNsP50, percentile(s.pktNs, 0.5))
		t.callNsP99 = min(t.callNsP99, percentile(s.callNs, 0.99))
		t.packets += s.packets
		t.samples += len(s.pktNs)
	}
	return t
}

// quietPass folds a timed run of a library workload into the time of
// one pass on an undisturbed core. Every pass replays the same frames
// in the same calls against the same state, so the k-th call of every
// pass is the same work, and its time is the least any pass took over
// it: what the host adds, it adds to some passes and not to others,
// in bursts a few calls long (README.md, "what the host does"). A
// pass's time is the sum over its calls, mpps its packets over that
// time, pkt_ns_p50 the median call's time per packet. frames and unit
// are the pass's packets and the packets per call.
func quietPass(ss []slice, frames, unit int) timings {
	calls := (frames + unit - 1) / unit
	best := make([]float32, calls)
	for k := range best {
		best[k] = float32(math.Inf(1))
	}
	var t timings
	for i := range ss {
		for k, ns := range ss[i].callNs {
			best[k%calls] = min(best[k%calls], ns)
		}
		t.packets += ss[i].packets
		t.samples += len(ss[i].callNs)
	}
	t.slices = t.samples / calls // whole passes
	pass := 0.0
	perPkt := make([]float64, calls)
	for k, ns := range best {
		pass += float64(ns)
		perPkt[k] = float64(ns) / float64(min(unit, frames-k*unit))
	}
	t.mpps = float64(frames) / pass * 1e3
	t.pktNsP50 = percentile(perPkt, 0.5)
	return t
}

// readings are the timing metrics every timed run reports.
func (t timings) readings() readings {
	out := newReadings()
	out.set("mpps", t.mpps, t.slices)
	out.set("pkt_ns_p50", t.pktNsP50, t.samples)
	return out
}

// heapMB is the live heap after a forced collection: HeapAlloc, the
// bytes of reachable objects. HeapInuse adds the unused parts of
// partly filled spans, which on this code wander by 8-15% from run to
// run while the live bytes repeat to 1%.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// checker runs the same frames through the system under test's chain
// with SpeedyBox on and through a BaselineOptions() platform of the
// same spec, and fails every packet whose verdict or output bytes
// differ: chain-output equivalence, the condition every speed number
// here is subject to.
type checker struct {
	sbox, ref    *engineTarget
	pktsA, pktsB []*packet.Packet
	tally        tally
}

func newChecker(w *workload) (*checker, error) {
	sbox, err := newBESS(w.spec, core.DefaultOptions(), w.wal)
	if err != nil {
		return nil, err
	}
	ref, err := newBESS(w.spec, core.BaselineOptions(), false)
	if err != nil {
		sbox.Close()
		return nil, err
	}
	return &checker{
		sbox: &engineTarget{p: sbox, bat: platform.NewBatch(vecSize)},
		ref:  &engineTarget{p: ref, bat: platform.NewBatch(vecSize)},
	}, nil
}

func (c *checker) close() {
	c.sbox.close()
	c.ref.close()
}

// run compares one pass of frames and returns the reference's drops.
func (c *checker) run(frames [][]byte) (refDrops int) {
	if len(c.pktsA) < len(frames) {
		c.pktsA, c.pktsB = descriptors(len(frames)), descriptors(len(frames))
	}
	for off := 0; off < len(frames); off += vecSize {
		end := min(off+vecSize, len(frames))
		a, b := c.pktsA[off:end], c.pktsB[off:end]
		rx(a, frames[off:end])
		rx(b, frames[off:end])
		c.tally.ops += len(a)
		errA, errB := parse(a), parse(b)
		if errA == nil {
			errA = c.sbox.call(a)
		}
		if errB == nil {
			errB = c.ref.call(b)
		}
		if errA != nil || errB != nil {
			c.tally.failed += len(a)
			continue
		}
		for i := range a {
			va, vb := c.sbox.ms[i].Result.Verdict, c.ref.ms[i].Result.Verdict
			if vb == core.VerdictDrop {
				refDrops++
			}
			if va != vb || (va == core.VerdictForward && !bytes.Equal(a[i].Data(), b[i].Data())) {
				c.tally.failed++
			}
		}
	}
	return refDrops
}

// checkOutputs is the output check of an engine workload: the record
// pass and the fast-path pass, both compared. It returns what timed
// passes must reproduce.
func checkOutputs(w *workload, prime, pass [][]byte) (tally, expectation, error) {
	c, err := newChecker(w)
	if err != nil {
		return tally{}, expectation{}, err
	}
	defer c.close()
	var exp expectation
	if prime != nil {
		c.run(prime)
		exp.resident = c.sbox.p.Engine().FlowLen()
	}
	c.run(pass)
	exp.drops = c.run(pass)
	if prime != nil {
		e := c.sbox.p.Engine()
		if e.FlowLen() != exp.resident || e.Global().Len() != exp.resident {
			c.tally.failed += len(pass)
		}
	}
	return c.tally, exp, nil
}
