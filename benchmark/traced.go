package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/fastpathnfv/speedybox/internal/bess"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
)

// subject is a primed workload as the traced run sees it.
type subject struct {
	w        *workload
	seed     int64
	dur      time.Duration // the run's length, which the ladder's budget scales with
	sliceLen time.Duration
	hub      *telemetry.Hub
	engines  []*core.Engine
	// pass replays the workload once; record switches its spans on.
	pass   func(*slice) error
	record func(*recorder)
	// live is the platform the ladder reads live tables from, and
	// candidates the frames whose flows may be resident on it.
	live       *bess.Platform
	candidates [][]byte
	// base is a primed BaselineOptions() platform of the same chain:
	// the reference the passes' drop counts are checked against, and
	// the unconsolidated chain the ladder compares with.
	base  *driver
	close func()
}

// runTraced is the traced run: the workload's passes again with the
// span recorder and a telemetry hub attached, then the ladder. Every
// per-layer metric is emitted for every workload; the server.* ones
// are zero except on daemon, the only workload with a server.
func runTraced(w *workload, seed int64, dur time.Duration, outDir string) (readings, tally, error) {
	out := newReadings()
	for _, m := range perLayer {
		if strings.HasPrefix(m.Name, "server.") {
			out.v[m.Name] = 0
		}
	}
	hub := telemetry.NewHub()
	var (
		sub *subject
		t   *tally
		err error
	)
	if w.entry == entryDaemon {
		sub, t, err = daemonSubject(w, seed, dur, hub, out)
	} else {
		sub, t, err = librarySubject(w, seed, hub)
	}
	if err != nil {
		return readings{}, tally{}, err
	}
	defer sub.close()
	sub.dur, sub.sliceLen = dur, dur/librarySlices

	for _, e := range sub.engines {
		out.v["mat.publishes_per_setup"] += float64(e.Global().Publishes())
		out.v["wal.records_per_setup"] += float64(e.WAL().Seq())
		out.v["wal.bytes_per_setup"] += float64(e.WAL().Size())
	}

	// An untraced reference first, so the tracing overhead is a ratio
	// of two measurements made by one process on one primed state.
	runtime.GC()
	ref, err := measure(dur/5, sub.sliceLen, sub.pass)
	if err != nil {
		return readings{}, tally{}, err
	}

	if w.entry == entryDaemon {
		// What the real pump's window costs beyond the clone and the
		// run it is made of — gate, counters, the admin server beside
		// it: mean against mean, as server.window_ms is one.
		var timed time.Duration
		windows := 0
		for i := range ref {
			timed += ref[i].timed
			windows += len(ref[i].callNs)
		}
		out.v["server.pump_overhead_ms"] = out.v["server.window_ms"] - timed.Seconds()*1e3/float64(windows)
	}

	rec := newRecorder()
	sub.record(rec)
	statsBefore, cacheBefore, syncsBefore := sub.stats(), sub.flowCache(), sub.walSyncs()
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	ss, err := measure(dur*2/5, sub.sliceLen, sub.pass)
	if err != nil {
		return readings{}, tally{}, err
	}
	runtime.ReadMemStats(&memAfter)
	sub.record(nil)
	statsAfter, cacheAfter := sub.stats(), sub.flowCache()

	tm := fold(ss)
	pkts := float64(tm.packets)
	out.set("bench.pkt_ns_p50", tm.pktNsP50, tm.samples)
	out.set("bench.call_ns_p99", tm.callNsP99, tm.samples)
	out.v["bench.trace_overhead"] = tm.pktNsP50 / fold(ref).pktNsP50
	out.v["runtime.gc_cycles"] = float64(memAfter.NumGC - memBefore.NumGC)
	out.v["runtime.gc_pause_ms"] = float64(memAfter.PauseTotalNs-memBefore.PauseTotalNs) / 1e6
	out.v["runtime.heap_growth_mb"] = (float64(memAfter.HeapInuse) - float64(memBefore.HeapInuse)) / (1 << 20)
	out.v["runtime.allocs_per_pkt"] = float64(memAfter.Mallocs-memBefore.Mallocs) / pkts

	st := statsAfter
	out.v["core.fastpath_share"] = float64(st.FastPath-statsBefore.FastPath) / float64(st.Packets-statsBefore.Packets)
	out.v["core.slowpath_fallbacks"] = float64(st.SlowPathFallbacks - statsBefore.SlowPathFallbacks)
	out.v["core.consolidations_per_kpkt"] = float64(st.Consolidations-statsBefore.Consolidations) / pkts * 1e3
	out.v["event.fired_per_kpkt"] = float64(st.EventsFired-statsBefore.EventsFired) / pkts * 1e3
	out.v["wal.syncs_per_kpkt"] = float64(sub.walSyncs()-syncsBefore) / pkts * 1e3
	hits, misses := cacheAfter[0]-cacheBefore[0], cacheAfter[1]-cacheBefore[1]
	out.v["core.flow_cache_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	for _, e := range sub.engines {
		out.v["flow.resident"] += float64(e.FlowLen())
	}

	l, err := newLadder(sub, out)
	if err != nil {
		return readings{}, tally{}, err
	}
	if err := l.run(); err != nil {
		return readings{}, tally{}, fmt.Errorf("%s: ladder: %w", w.name, err)
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return readings{}, tally{}, err
	}
	if err := rec.flush(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
		return readings{}, tally{}, err
	}
	return out, *t, nil
}

func (s *subject) stats() core.Stats {
	var st core.Stats
	for _, e := range s.engines {
		st.Add(e.Stats())
	}
	return st
}

// walSyncs sums the engines' journal syncs; an engine without a WAL has
// a nil Writer, which reads as empty.
func (s *subject) walSyncs() (n uint64) {
	for _, e := range s.engines {
		n += e.WAL().Syncs()
	}
	return n
}

// flowCache sums the hub's flow-handle cache hit and miss counters over
// every engine label.
func (s *subject) flowCache() (hm [2]uint64) {
	for name, v := range s.hub.Registry.Snapshot().Counters {
		switch {
		case strings.HasPrefix(name, "speedybox_flow_cache_hits_total"):
			hm[0] += v
		case strings.HasPrefix(name, "speedybox_flow_cache_misses_total"):
			hm[1] += v
		}
	}
	return hm
}

// librarySubject sets a library workload up with the hub attached.
// The byte-for-byte output check belongs to the timed run; here the
// passes are checked by count against a baseline platform's drops.
func librarySubject(w *workload, seed int64, hub *telemetry.Hub) (*subject, *tally, error) {
	base, err := engineDriver(w, seed, core.BaselineOptions())
	if err != nil {
		return nil, nil, err
	}
	d, err := setup(w, seed, workloadTarget(w, hub))
	if err != nil {
		base.t.close()
		return nil, nil, err
	}
	d.expect.drops = base.drops
	if w.resident != nil {
		d.expect.resident = d.t.engines()[0].FlowLen()
	}
	sub := &subject{w: w, seed: seed, hub: hub, engines: d.t.engines(), base: base,
		pass: d.timedPass, record: func(r *recorder) { d.rec = r },
		candidates: append(append([][]byte(nil), d.prime...), d.pass...)}
	sub.close = func() { d.t.close(); base.t.close() }
	switch t := d.t.(type) {
	case *engineTarget:
		sub.live = t.p
	case *runnerTarget:
		sub.live = t.p
	case *clusterTarget:
		// A cluster has no single live engine: the ladder gets a BESS
		// platform of its own, primed with the same frames.
		opts := core.DefaultOptions()
		opts.Telemetry = telemetry.NewHub()
		own, err := engineDriver(w, seed, opts)
		if err != nil {
			sub.close()
			return nil, nil, err
		}
		sub.live = own.t.(*engineTarget).p
		sub.close = func() { d.t.close(); base.t.close(); own.t.close() }
	}
	return sub, &d.tally, nil
}

// daemonSubject measures the server layer on a real daemon, from
// outside, then rebuilds server.New's data plane by hand — BESS, hub,
// WAL, MultiQueue — and replays the pump's windows through it with
// spans around the clone and the run.
func daemonSubject(w *workload, seed int64, dur time.Duration, hub *telemetry.Hub, out readings) (*subject, *tally, error) {
	dm, err := startDaemon(w, seed, 0)
	if err != nil {
		return nil, nil, err
	}
	time.Sleep(dur / 8)
	ob, err := dm.observe(dur / 4)
	var final status
	if err == nil {
		final, err = dm.settle()
	}
	if stopErr := dm.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, nil, err
	}
	t := final.verdict()
	secs := ob.elapsed.Seconds()
	out.v["server.window_ms"] = secs * 1e3 / float64(max(ob.last.Pump.Windows-ob.first.Pump.Windows, 1))
	out.v["server.fastpath_share"] = float64(ob.last.Stats.FastPath-ob.first.Stats.FastPath) /
		float64(max(ob.last.Stats.Packets-ob.first.Stats.Packets, 1))
	out.set("server.status_ms", median(ob.statusMs), len(ob.statusMs))
	out.v["server.wal_mb_per_s"] = float64(ob.last.WAL.Size-ob.first.WAL.Size) / (1 << 20) / secs
	var perWorker []int
	for i := range ob.last.Workers {
		perWorker = append(perWorker, int(ob.last.Workers[i].Packets-ob.first.Workers[i].Packets))
	}
	out.v["server.worker_skew"] = skew(perWorker)

	base, err := engineDriver(w, seed, core.BaselineOptions())
	if err != nil {
		return nil, nil, err
	}
	opts := core.DefaultOptions()
	opts.Telemetry = hub
	p, err := newBESS(w.spec, opts, w.wal)
	if err != nil {
		base.t.close()
		return nil, nil, err
	}
	closeAll := func() { p.Close(); base.t.close() }
	mq, err := platform.NewMultiQueue(p, workers)
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	mq.SetBatchSize(vecSize)
	tr, err := synthesize(seed, w.pass)
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	var rec *recorder
	window := func(s *slice) error {
		rec.nextPass()
		t0 := time.Now()
		rec.begin("server.window")
		rec.begin("trace.clone")
		pkts := tr.Packets()
		rec.end()
		rec.begin("platform.mq_run")
		res, err := mq.Run(pkts)
		rec.end()
		rec.end()
		dt := time.Since(t0)
		if err != nil {
			return fmt.Errorf("daemon: replay window: %w", err)
		}
		t.ops += len(pkts)
		t.failed += len(pkts) - res.Packets
		s.add(dt, len(pkts))
		return nil
	}
	if err := window(nil); err != nil {
		closeAll()
		return nil, nil, err
	}
	frames := make([][]byte, 0, tr.Len())
	for _, pk := range tr.Packets() {
		frames = append(frames, pk.Data())
	}
	return &subject{w: w, seed: seed, hub: hub, engines: []*core.Engine{p.Engine()}, base: base,
		pass: window, record: func(r *recorder) { rec = r },
		live: p, candidates: frames, close: closeAll}, &t, nil
}
