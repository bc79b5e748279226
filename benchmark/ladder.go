package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/fastpathnfv/speedybox/internal/bess"
	"github.com/fastpathnfv/speedybox/internal/chainspec"
	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/cluster"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
	"github.com/fastpathnfv/speedybox/internal/topo"
	"github.com/fastpathnfv/speedybox/internal/trace"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

const (
	// A rung repeats until it has run this often and for this share of
	// the run's length (80 ms of a 20 s run); its value is the median
	// repetition, in ns per packet.
	rungReps  = 3
	rungShare = 250
	// sideOps sizes the rungs that time a write path beside the
	// resident set: fresh flows set up, rules installed, records
	// appended.
	sideOps = 2048
	// maxLive caps the packets a rung runs over, which bounds the
	// traced run's length.
	maxLive = 65536
)

// ladder times the public functions of each layer, one rung per
// function, over every packet of the workload's live flows: the frames
// whose flows are resident with a consolidated rule once the last pass
// has ended. "Live" rungs read the primed engine's own tables; "own"
// rungs build an instance of the layer and populate it with the same
// tuples or rules.
type ladder struct {
	w    *workload
	seed int64
	p    *bess.Platform
	e    *core.Engine
	base *driver // a primed BaselineOptions() platform of the same chain

	budget time.Duration // what a rung's repetitions add up to, at least

	frames [][]byte
	pkts   []*packet.Packet
	fids   []flow.FID
	tuples []packet.FiveTuple
	rules  []*mat.GlobalRule

	out readings
	err error
}

// prep is what a rung needs done to the descriptors, untimed, before
// each repetition.
type prep int

const (
	prepNone   prep = iota
	prepRx          // reloaded, unparsed
	prepParsed      // reloaded and parsed
)

func newLadder(sub *subject, out readings) (*ladder, error) {
	w := sub.w
	l := &ladder{w: w, seed: sub.seed, p: sub.live, e: sub.live.Engine(), base: sub.base,
		budget: sub.dur / rungShare, out: out}
	resident := make(map[packet.FiveTuple]flow.FID)
	for _, en := range l.e.FlowEntries() {
		resident[en.Tuple] = en.FID
	}
	probe := new(packet.Packet)
	for _, f := range sub.candidates {
		if len(l.frames) == maxLive {
			break
		}
		probe.SetFrame(f)
		if probe.Parse() != nil {
			continue
		}
		if flags, tcp := probe.TCPFlags(); tcp && flags&(packet.TCPFlagSYN|packet.TCPFlagFIN|packet.TCPFlagRST) != 0 {
			continue
		}
		ft, err := probe.FiveTuple()
		if err != nil {
			continue
		}
		fid, ok := resident[ft]
		if !ok {
			continue
		}
		rule, ok := l.e.Global().LookupLive(fid)
		if !ok {
			continue
		}
		l.frames = append(l.frames, f)
		l.fids = append(l.fids, fid)
		l.tuples = append(l.tuples, ft)
		l.rules = append(l.rules, rule)
	}
	if len(l.frames) == 0 {
		return nil, fmt.Errorf("%s: no live flow to time the ladder on", w.name)
	}
	l.pkts = descriptors(len(l.frames))
	return l, nil
}

func (l *ladder) fail(err error) {
	if err != nil && l.err == nil {
		l.err = err
	}
}

// time runs body over ops operations and returns ns per operation and
// the operations timed.
func (l *ladder) time(pr prep, ops int, body func()) (ns float64, n int) {
	var per []float64
	var spent time.Duration
	for len(per) < rungReps || (spent < l.budget && len(per) < 64) {
		if pr != prepNone {
			rx(l.pkts, l.frames)
		}
		if pr == prepParsed {
			l.fail(parse(l.pkts))
		}
		t0 := time.Now()
		body()
		dt := time.Since(t0)
		spent += dt
		per = append(per, float64(dt)/float64(ops))
	}
	return median(per), len(per) * ops
}

// put times body over ops operations and records the result as name.
func (l *ladder) put(name string, pr prep, ops int, body func()) float64 {
	ns, n := l.time(pr, ops, body)
	l.out.set(name, ns, n)
	return ns
}

// rung times body over the live packets and records the result.
func (l *ladder) rung(name string, pr prep, body func()) {
	l.put(name, pr, len(l.pkts), body)
}

// sink keeps results of pure functions alive so the compiler cannot
// drop the calls.
var sink uint64

// vectors calls fn on each 32-packet vector of the live packets.
func (l *ladder) vectors(fn func(vec []*packet.Packet) error) {
	for off := 0; off < len(l.pkts); off += vecSize {
		if err := fn(l.pkts[off:min(off+vecSize, len(l.pkts))]); err != nil {
			l.fail(err)
			return
		}
	}
}

// run times every rung. It runs after the last pass, on the same
// primed state and frames. What a group of rungs or its preparation
// allocated is collected before the next group starts, not by a cycle
// running beside a timed body.
func (l *ladder) run() error {
	for _, group := range []func(){
		l.packetRungs, l.flowRungs, l.matRungs, l.eventAndStateRungs, l.engineRungs, l.hubRung,
		l.runnerRungs, l.clusterRungs, l.topoRungs, l.walRungs, l.cloneRung, l.costAndBaseline,
	} {
		runtime.GC()
		group()
	}
	return l.err
}

func (l *ladder) packetRungs() {
	l.rung("packet.setframe_ns", prepNone, func() { rx(l.pkts, l.frames) })
	l.rung("packet.parse_ns", prepRx, func() { l.fail(parse(l.pkts)) })
}

// flowRungs times the flow table and classifier on instances of their
// own, populated through the classifier with the live tuples so that
// every flow is established as it is in the engine.
func (l *ladder) flowRungs() {
	l.rung("flow.hash_ns", prepParsed, func() {
		for _, p := range l.pkts {
			hi, lo, _ := p.FlowKey()
			sink += uint64(flow.HashKey(hi, lo))
		}
	})

	tbl := flow.NewTable()
	cls := classifier.New(tbl)
	rx(l.pkts, l.frames)
	for _, p := range l.pkts {
		_, err := cls.Classify(p, nil)
		l.fail(err)
	}
	runtime.GC()
	l.rung("flow.acquire_ns", prepNone, func() {
		for _, ft := range l.tuples {
			if _, ok := tbl.Acquire(ft); !ok {
				l.fail(fmt.Errorf("flow.acquire: tuple %v not tracked", ft))
				return
			}
		}
	})
	l.rung("classifier.classify_data_ns", prepParsed, func() {
		for _, p := range l.pkts {
			if _, ok := cls.ClassifyData(p); !ok {
				l.fail(fmt.Errorf("classifier.classify_data: packet left the fast shape"))
				return
			}
		}
	})

	// Insert and remove beside the resident set: tuples from a range
	// no generated flow uses.
	fresh := make([]packet.FiveTuple, sideOps)
	for i := range fresh {
		fresh[i] = packet.FiveTuple{
			SrcIP: packet.IP4(172, 16, byte(i>>8), byte(i)), DstIP: packet.IP4(172, 17, 0, 1),
			SrcPort: 4000, DstPort: 80, Proto: packet.ProtoUDP,
		}
	}
	added := make([]flow.FID, len(fresh))
	l.put("flow.insert_remove_ns", prepNone, len(fresh), func() {
		for i, ft := range fresh {
			en, err := tbl.Insert(ft)
			if err != nil {
				l.fail(err)
				return
			}
			added[i] = en.FID
		}
		for _, fid := range added {
			tbl.Remove(fid)
		}
	})

	// Handshake classification has no live counterpart (handshake
	// packets leave no flow behind), so it gets TCP lifecycles of its
	// own with the data packets taken out: SYN, ACK, FIN per flow.
	frames, err := generate(l.seed+2<<32, trace.AdversarialConfig{Config: trace.Config{
		Flows: sideOps, MeanPackets: 1, SigmaPackets: 0.01, UDPFraction: 1e-12, Interleave: true}})
	if err != nil {
		l.fail(err)
		return
	}
	var shake []*packet.Packet
	for _, f := range frames {
		p := packet.New(f)
		l.fail(p.Parse())
		if len(p.Payload()) == 0 {
			shake = append(shake, p)
		}
	}
	hcls := classifier.New(flow.NewTable())
	l.put("classifier.classify_handshake_ns", prepNone, len(shake), func() {
		for _, p := range shake {
			r, err := hcls.Classify(p, nil)
			if err != nil {
				l.fail(err)
				return
			}
			if r.Kind == classifier.KindFinal {
				hcls.Teardown(r.FID)
			}
		}
	})
}

func (l *ladder) matRungs() {
	g := l.e.Global()
	l.rung("mat.lookup_live_ns", prepNone, func() {
		for _, fid := range l.fids {
			if _, ok := g.LookupLive(fid); !ok {
				l.fail(fmt.Errorf("mat.lookup_live: rule of %v gone", fid))
				return
			}
		}
	})
	l.rung("mat.exec_header_ns", prepParsed, func() {
		for i, p := range l.pkts {
			_, err := l.rules[i].ExecHeader(p)
			l.fail(err)
		}
	})
	l.rung("mat.apply_header_ns", prepParsed, func() {
		for i, p := range l.pkts {
			_, err := l.rules[i].ApplyHeader(p)
			l.fail(err)
		}
	})

	// Install and remove beside the live rules, under FIDs no flow
	// holds; the table is left as it was found.
	used := make(map[flow.FID]bool)
	g.ForEach(func(r *mat.GlobalRule) { used[r.FID] = true })
	side := make([]*mat.GlobalRule, 0, sideOps)
	for fid := flow.FID(flow.MaxFID); len(side) < sideOps; fid-- {
		if !used[fid] {
			r := *l.rules[len(side)%len(l.rules)]
			r.FID = fid
			side = append(side, &r)
		}
	}
	var install, remove []float64
	for rep := 0; rep < rungReps; rep++ {
		t0 := time.Now()
		for _, r := range side {
			g.Install(r)
		}
		t1 := time.Now()
		for _, r := range side {
			g.Remove(r.FID)
		}
		install = append(install, float64(t1.Sub(t0))/sideOps)
		remove = append(remove, float64(time.Since(t1))/sideOps)
	}
	l.out.set("mat.install_ns", median(install), rungReps*sideOps)
	l.out.set("mat.remove_ns", median(remove), rungReps*sideOps)
	l.out.v["mat.rules"] = float64(g.Len())
}

func (l *ladder) eventAndStateRungs() {
	ev := l.e.Events()
	l.rung("event.probe_ns", prepNone, func() {
		for _, fid := range l.fids {
			fired, _ := ev.Probe(fid)
			sink += uint64(len(fired))
		}
	})
	// As the engine does, rules without state functions cost nothing
	// here; the time is still spread over every packet.
	l.rung("sfunc.execute_ns", prepParsed, func() {
		for i, p := range l.pkts {
			if r := l.rules[i]; len(r.Batches) > 0 {
				_, err := r.Plan.Execute(r.Batches, p, 0)
				l.fail(err)
			}
		}
	})
	l.rung("sfunc.sequential_ns", prepParsed, func() {
		for i, p := range l.pkts {
			if r := l.rules[i]; len(r.Batches) > 0 {
				_, err := sfunc.ExecuteSequential(r.Batches, p)
				l.fail(err)
			}
		}
	})
	stages := 0
	for _, r := range l.rules {
		stages += r.Plan.ParallelStages()
	}
	l.out.v["sfunc.parallel_stages"] = float64(stages) / float64(len(l.rules))
}

// engineBatch is the body of the Engine.ProcessBatch rung over the live
// packets of any primed engine; parse is inside, as the engine does it.
func (l *ladder) engineBatch(e *core.Engine) func() {
	cb := core.NewBatch(vecSize)
	return func() {
		l.vectors(func(vec []*packet.Packet) error {
			_, err := e.ProcessBatch(vec, cb)
			return err
		})
	}
}

func (l *ladder) engineRungs() {
	batch := l.put("core.engine_batch_ns", prepRx, len(l.pkts), l.engineBatch(l.e))
	l.rung("core.engine_scalar_ns", prepRx, func() {
		for _, p := range l.pkts {
			_, err := l.e.ProcessPacket(p)
			l.fail(err)
		}
	})
	// What the rungs above do not explain: per-packet accounting and
	// result bookkeeping when positive, the per-worker caches' saving
	// when negative. The sum is exact by construction.
	l.out.v["core.unattributed_ns"] = batch - (l.out.v["packet.parse_ns"] + l.out.v["classifier.classify_data_ns"] +
		l.out.v["mat.lookup_live_ns"] + l.out.v["event.probe_ns"] + l.out.v["sfunc.execute_ns"] + l.out.v["mat.exec_header_ns"])

	bat := platform.NewBatch(vecSize)
	l.rung("bess.process_batch_ns", prepRx, func() {
		l.vectors(func(vec []*packet.Packet) error {
			_, err := l.p.ProcessBatch(vec, bat)
			return err
		})
	})
	l.out.v["bess.overhead_ns"] = l.out.v["bess.process_batch_ns"] - batch

	// Flow set-up beside the resident set: the first packet of fresh
	// UDP flows — insert, record, consolidate, install — torn down
	// again, untimed, after each repetition.
	frames, err := generate(l.seed+3<<32, trace.AdversarialConfig{Config: trace.Config{
		Flows: sideOps, MeanPackets: 1, SigmaPackets: 0.01, UDPFraction: 1,
		SrcBase: packet.IP4(10, 200, 0, 0), Interleave: true}})
	if err != nil {
		l.fail(err)
		return
	}
	fresh := descriptors(len(frames))
	cb := core.NewBatch(vecSize)
	var per []float64
	for rep := 0; rep < rungReps; rep++ {
		rx(fresh, frames)
		t0 := time.Now()
		for off := 0; off < len(fresh); off += vecSize {
			_, err := l.e.ProcessBatch(fresh[off:min(off+vecSize, len(fresh))], cb)
			l.fail(err)
		}
		per = append(per, float64(time.Since(t0))/float64(len(fresh))/1e3)
		for _, p := range fresh {
			l.e.TeardownFlow(flow.FID(p.Meta.FID))
		}
	}
	l.out.set("core.flow_setup_us", median(per), rungReps*len(fresh))
}

// hubRung times the engine with and without a telemetry hub. Two
// engines differ in where their tables happen to lie in memory, which
// at tens of thousands of flows moves the rung by more than a hub does;
// so the comparison is made where the hub's cost is the largest share
// and layout plays no part, on the hot workload's chain and frames,
// whatever workload is being traced.
func (l *ladder) hubRung() {
	hot, err := lookupWorkload("hot")
	if err != nil {
		l.fail(err)
		return
	}
	var drivers [2]*driver
	for i, hub := range []*telemetry.Hub{telemetry.NewHub(), nil} {
		opts := core.DefaultOptions()
		opts.Telemetry = hub
		if drivers[i], err = engineDriver(hot, l.seed, opts); err != nil {
			l.fail(err)
			return
		}
		defer drivers[i].t.close()
	}
	// Both engines were primed with the same frames, so one set of
	// descriptors serves both.
	h := &ladder{frames: drivers[0].pass, pkts: drivers[0].pkts, budget: l.budget / pairRounds}
	l.out.v["telemetry.hub_overhead_ns"] = h.pairedDelta(prepRx,
		h.engineBatch(drivers[0].t.engines()[0]), h.engineBatch(drivers[1].t.engines()[0]))
	l.fail(h.err)
}

// pairRounds is how often a rung that is the difference of two timings
// alternates between them.
const pairRounds = 5

// pairedDelta times bodies a and b alternately over the ladder's
// packets and returns the median of a − b over the rounds: the two
// sides of each difference are taken milliseconds apart, so what the
// host does meanwhile cancels.
func (l *ladder) pairedDelta(pr prep, a, b func()) float64 {
	var deltas []float64
	for i := 0; i < pairRounds; i++ {
		nsA, _ := l.time(pr, len(l.pkts), a)
		nsB, _ := l.time(pr, len(l.pkts), b)
		deltas = append(deltas, nsA-nsB)
	}
	return median(deltas)
}

// runnerRungs times the runners over the primed platform: the serial
// one, and the multi-queue one in the daemon's configuration, with one
// worker, and with the library's default scalar drain.
func (l *ladder) runnerRungs() {
	l.rung("platform.run_batch_ns", prepParsed, func() {
		_, err := platform.RunBatch(l.p, l.pkts, vecSize, nil)
		l.fail(err)
	})
	mq := func(nworkers, batch int) (*platform.MultiQueue, error) {
		m, err := platform.NewMultiQueue(l.p, nworkers)
		if err == nil && batch > 0 {
			m.SetBatchSize(batch)
		}
		return m, err
	}
	w1, err1 := mq(1, vecSize)
	w2, err2 := mq(workers, vecSize)
	scalar, err3 := mq(workers, 0)
	if err := errors.Join(err1, err2, err3); err != nil {
		l.fail(err)
		return
	}
	run := func(m *platform.MultiQueue) func() {
		return func() {
			_, err := m.Run(l.pkts)
			l.fail(err)
		}
	}
	l.rung("platform.mq_run_ns_w1", prepParsed, run(w1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reps := 0
	l.rung("platform.mq_run_ns_w2", prepParsed, func() {
		reps++
		run(w2)()
	})
	runtime.ReadMemStats(&after)
	// The descriptors' own buffers are reused, so what was allocated
	// during the repetitions is the runner's.
	done := float64(reps * len(l.pkts))
	l.out.v["platform.run_allocs_per_pkt"] = float64(after.Mallocs-before.Mallocs) / done
	l.out.v["platform.run_bytes_per_pkt"] = float64(after.TotalAlloc-before.TotalAlloc) / done
	l.rung("platform.mq_scalar_run_ns", prepParsed, run(scalar))
	l.out.v["platform.mq_speedup_w2"] = l.out.v["platform.mq_run_ns_w1"] / l.out.v["platform.mq_run_ns_w2"]

	// Partition balance, with and without parsing first: Run sends
	// descriptors it cannot read a tuple from to queue 0.
	rx(l.pkts, l.frames)
	unparsed, err := w2.Run(l.pkts)
	if err != nil {
		l.fail(err)
		return
	}
	l.out.v["platform.queue_skew_unparsed"] = skew(unparsed.QueueDepths)
	rx(l.pkts, l.frames)
	l.fail(parse(l.pkts))
	parsed, err := w2.Run(l.pkts)
	if err != nil {
		l.fail(err)
		return
	}
	l.out.v["platform.queue_skew"] = skew(parsed.QueueDepths)
}

// clusterRungs times a 2-instance cluster of the workload's chain,
// primed with the same frames.
func (l *ladder) clusterRungs() {
	chain, err := buildChain(l.w.spec)
	if err != nil {
		l.fail(err)
		return
	}
	cl, err := cluster.New(cluster.Config{Chain: chain, Options: core.DefaultOptions(), Instances: workers})
	if err != nil {
		l.fail(err)
		return
	}
	defer cl.Close()
	bat := platform.NewBatch(vecSize)
	rx(l.pkts, l.frames)
	if _, err := cl.RunBatch(l.pkts, vecSize, bat); err != nil {
		l.fail(err)
		return
	}
	runtime.GC()
	l.rung("cluster.process_ns", prepParsed, func() {
		for _, p := range l.pkts {
			_, err := cl.Process(p)
			l.fail(err)
		}
	})
	l.rung("cluster.run_batch_ns", prepParsed, func() {
		_, err := cl.RunBatch(l.pkts, vecSize, bat)
		l.fail(err)
	})
	l.out.v["cluster.steer_tax_ns"] = l.out.v["cluster.run_batch_ns"] - l.out.v["platform.run_batch_ns"]

	rx(l.pkts, l.frames)
	l.fail(parse(l.pkts))
	runs := 0
	l.fail(cl.ProcessRuns(l.pkts, vecSize, bat, func(int, []platform.Measurement) error {
		runs++
		return nil
	}))
	l.out.v["cluster.run_len_mean"] = float64(len(l.pkts)) / float64(max(runs, 1))
	var flows []int
	for _, in := range cl.Instances() {
		flows = append(flows, in.Flows)
	}
	l.out.v["cluster.instance_skew"] = skew(flows)
}

// topoRungs times a two-chain topology of 3 IPFilters each, split by
// destination port, on two services' packets shuffled together, against
// one such chain on the same packets. It does not depend on the
// workload: topologies are only staged, never deployed, so they have no
// end-to-end metric to be part of.
func (l *ladder) topoRungs() {
	filters := []chainspec.NFSpec{
		{Type: "ipfilter", ACLSize: 100}, {Type: "ipfilter", ACLSize: 100}, {Type: "ipfilter", ACLSize: 100}}
	tp, err := topo.Build(&topo.Spec{
		Name:   "bench",
		Chains: []topo.ChainSpec{{Name: "a", NFs: filters}, {Name: "b", NFs: filters}},
		Policies: []topo.PolicySpec{
			{Chain: "a", Tenant: 1, DstPortMin: 80}, {Chain: "b", Tenant: 2, DstPortMin: 9000}},
		Tenants: []topo.TenantSpec{{ID: 1}, {ID: 2}},
	}, topo.BuildConfig{Options: core.DefaultOptions()})
	if err != nil {
		l.fail(err)
		return
	}
	defer tp.Close()
	single, err := newBESS(filtersSpecJSON, core.DefaultOptions(), false)
	if err != nil {
		l.fail(err)
		return
	}
	defer single.Close()

	var services [2][][]byte
	for i, port := range []uint16{80, 9000} {
		services[i], err = generate(l.seed+int64(4+i)<<32, trace.AdversarialConfig{Config: trace.Config{
			Flows: 256, MeanPackets: 16, SigmaPackets: 0.01, UDPFraction: 1, DstPort: port, Interleave: true}})
		if err != nil {
			l.fail(err)
			return
		}
	}
	rng := rand.New(rand.NewSource(l.seed))
	var frames [][]byte
	for len(services[0])+len(services[1]) > 0 {
		i := rng.Intn(2)
		if len(services[i]) == 0 {
			i = 1 - i
		}
		frames = append(frames, services[i][0])
		services[i] = services[i][1:]
	}
	t := &ladder{frames: frames, pkts: descriptors(len(frames)), budget: l.budget, out: l.out}
	rx(t.pkts, t.frames)
	_, err = tp.RunBatch(t.pkts, vecSize)
	rx(t.pkts, t.frames)
	if err == nil {
		_, err = platform.RunBatch(single, t.pkts, vecSize, nil)
	}
	if err != nil {
		l.fail(err)
		return
	}
	t.rung("topo.route_ns", prepParsed, func() {
		for _, p := range t.pkts {
			sink += uint64(tp.Route(p))
		}
	})
	viaTopo := func() {
		_, err := tp.RunBatch(t.pkts, vecSize)
		t.fail(err)
	}
	viaSingle := func() {
		_, err := platform.RunBatch(single, t.pkts, vecSize, nil)
		t.fail(err)
	}
	t.rung("topo.run_batch_ns", prepParsed, viaTopo)
	t.budget /= pairRounds
	l.out.v["topo.tax_ns"] = t.pairedDelta(prepParsed, viaTopo, viaSingle)
	l.fail(t.err)
}

// walRungs reports what the live journal holds and times appends of
// install records on a writer of its own.
func (l *ladder) walRungs() {
	// Nil when the workload runs without a WAL; a nil Writer reads as
	// empty. The log is never truncated, so this grows with the run.
	l.out.v["wal.log_mb"] = float64(l.e.WAL().Size()) / (1 << 20)

	img, _ := wal.ImageOf(l.rules[0])
	own := wal.NewWriter(wal.Options{})
	l.put("wal.append_ns", prepNone, sideOps, func() {
		for i := 0; i < sideOps; i++ {
			own.Append(wal.Record{Type: wal.RecRuleInstall, FID: l.fids[i%len(l.fids)],
				Epoch: l.e.Epoch(), Aux: wal.AuxRestorable, Rule: img})
		}
	})
}

// cloneRung times Trace.Packets, the deep copy the daemon's pump makes
// of its trace for every window.
func (l *ladder) cloneRung() {
	tr, err := synthesize(l.seed, l.w.pass)
	if err != nil {
		l.fail(err)
		return
	}
	l.put("trace.clone_ns", prepNone, tr.Len(), func() { sink += uint64(len(tr.Packets())) })
}

// costAndBaseline replays the workload's passes through the primed
// platform and through the BaselineOptions() one: the paper's clock,
// and the unconsolidated chain's wall clock on the same frames.
func (l *ladder) costAndBaseline() {
	sbox := &driver{w: l.w, t: &engineTarget{p: l.p, bat: platform.NewBatch(vecSize)},
		pass: l.base.pass, pkts: l.base.pkts, unit: vecSize}

	// Model cycles are a count, not a time: they must repeat exactly,
	// and are never to be read as wall time.
	if err := sbox.replay(sbox.pass, nil); err != nil {
		l.fail(err)
		return
	}
	l.out.v["cost.model_cycles_per_pkt"] = float64(sbox.cycles) / float64(len(sbox.pass))

	var ns [2]float64
	for i, d := range []*driver{sbox, l.base} {
		var s slice
		for start := time.Now(); time.Since(start) < 10*l.budget; {
			if err := d.timedPass(&s); err != nil {
				l.fail(err)
				return
			}
		}
		ns[i] = percentile(s.pktNs, 0.5)
	}
	l.out.v["core.baseline_pkt_ns"] = ns[1]
	l.out.v["core.speedup_vs_chain"] = ns[1] / ns[0]
}
