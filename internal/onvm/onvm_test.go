package onvm

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/bess"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/nf/ipfilter"
	"github.com/fastpathnfv/speedybox/internal/nf/monitor"
	"github.com/fastpathnfv/speedybox/internal/nf/snort"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/trace"
)

func filterChain(t *testing.T, n int) []core.NF {
	t.Helper()
	chain := make([]core.NF, n)
	for i := 0; i < n; i++ {
		f, err := ipfilter.New(ipfilter.Config{
			Name:  "fw" + string(rune('0'+i)),
			Rules: ipfilter.PadRules(nil, 100),
		})
		if err != nil {
			t.Fatal(err)
		}
		chain[i] = f
	}
	return chain
}

func smallTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := trace.Generate(trace.Config{Seed: 21, Flows: 20, Interleave: true})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestMaxChainLen(t *testing.T) {
	// The paper's 14-core testbed supports 5 NFs (§VII-B2).
	if got := MaxChainLen(14); got != 5 {
		t.Errorf("MaxChainLen(14) = %d, want 5", got)
	}
	if got := MaxChainLen(3); got != 0 {
		t.Errorf("MaxChainLen(3) = %d", got)
	}
}

func TestChainTooLongRejected(t *testing.T) {
	_, err := New(Config{Chain: filterChain(t, 6), Options: core.DefaultOptions()})
	if !errors.Is(err, ErrChainTooLong) {
		t.Errorf("6-NF ONVM chain: err = %v, want ErrChainTooLong", err)
	}
	p, err := New(Config{Chain: filterChain(t, 5), Options: core.DefaultOptions()})
	if err != nil {
		t.Fatalf("5-NF chain rejected: %v", err)
	}
	_ = p.Close()
}

func TestNames(t *testing.T) {
	p, err := New(Config{Chain: filterChain(t, 1), Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Name() != "OpenNetVM w/ SBox" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestPipelineRunOnTrace(t *testing.T) {
	p, err := New(Config{Chain: filterChain(t, 3), Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tr := smallTrace(t)
	res, err := platform.Run(p, tr.Packets())
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != tr.Len() {
		t.Errorf("processed %d of %d", res.Packets, tr.Len())
	}
	if res.Stats.FastPath == 0 || res.Stats.Consolidations == 0 {
		t.Errorf("stats = %+v: fast path or consolidation never happened", res.Stats)
	}
}

// TestCrossPlatformOutputEquivalence: the same trace through BESS and
// ONVM (both with SpeedyBox) must leave every packet with the same
// bytes, drop, path and verdict, the engines with the same counters and
// rules, the NFs with the same state, and a fault injector with the same
// decisions: the platform only changes how a result is priced, never
// what it is. Each input runs in vectors of 1 and of 32, with no faults
// and with each of three kinds at rate 0.2; one input is a 40-packet
// burst of one UDP flow, whose packets share a vector.
func TestCrossPlatformOutputEquivalence(t *testing.T) {
	traces := []struct {
		name string
		cfg  trace.Config
	}{
		{"interleaved", trace.Config{Seed: 21, Flows: 20, Interleave: true}},
		{"alerts", trace.Config{Seed: 31, Flows: 60, AlertFraction: 0.2, Interleave: true}},
		{"one-flow-burst", trace.Config{Seed: 2, Flows: 1, UDPFraction: 1.0, MeanPackets: 40}},
	}
	faults := [][]fault.Kind{nil, {fault.KindNFError}, {fault.KindEvictPressure}, {fault.KindInstallFail}}
	for _, tc := range traces {
		tr, err := trace.Generate(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, kinds := range faults {
			for _, vec := range []int{1, 32} {
				t.Run(fmt.Sprintf("%s/faults=%v/vec=%d", tc.name, kinds, vec), func(t *testing.T) {
					crossPlatformRun(t, tr, kinds, vec)
				})
			}
		}
	}
}

// platformRun is one platform's side of crossPlatformRun.
type platformRun struct {
	p   *platform.Platform
	inj *fault.Injector
	ids *snort.Snort
	mon *monitor.Monitor
	b   *platform.Batch
}

// crossPlatformRun runs tr through BESS and ONVM over an IDS and a
// monitor, in vec-packet vectors, with each of kinds injected at rate
// 0.2, and compares the two after every vector and at the end.
func crossPlatformRun(t *testing.T, tr *trace.Trace, kinds []fault.Kind, vec int) {
	build := func(onvm bool) *platformRun {
		ids, err := snort.New("ids", snort.DefaultRules())
		if err != nil {
			t.Fatal(err)
		}
		mon, err := monitor.New("mon")
		if err != nil {
			t.Fatal(err)
		}
		r := &platformRun{ids: ids, mon: mon, b: platform.NewBatch(vec)}
		opts := core.DefaultOptions()
		if len(kinds) > 0 {
			rates := map[fault.Kind]float64{}
			for _, k := range kinds {
				rates[k] = 0.2
			}
			r.inj = fault.New(fault.Config{Seed: 9, Rates: rates})
			opts.Faults = r.inj
		}
		chain := []core.NF{ids, mon}
		if onvm {
			r.p, err = New(Config{Chain: chain, Options: opts})
		} else {
			r.p, err = bess.New(bess.Config{Chain: chain, Options: opts})
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.p.Close() })
		return r
	}
	bp, op := build(false), build(true)
	bessPkts, onvmPkts := tr.Packets(), tr.Packets()
	fids := map[flow.FID]bool{}
	for off := 0; off < len(bessPkts); off += vec {
		end := min(off+vec, len(bessPkts))
		bm, err := bp.p.ProcessBatch(bessPkts[off:end], bp.b)
		if err != nil {
			t.Fatal(err)
		}
		om, err := op.p.ProcessBatch(onvmPkts[off:end], op.b)
		if err != nil {
			t.Fatal(err)
		}
		for k := range bm {
			i, b, o := off+k, bm[k].Result, om[k].Result
			if bessPkts[i].Dropped() != onvmPkts[i].Dropped() || !bytes.Equal(bessPkts[i].Data(), onvmPkts[i].Data()) {
				t.Fatalf("packet %d: platforms disagree on the packet (drop %v vs %v)", i, bessPkts[i].Dropped(), onvmPkts[i].Dropped())
			}
			if b.FID != o.FID || b.Kind != o.Kind || b.Path != o.Path || b.Verdict != o.Verdict {
				t.Fatalf("packet %d: BESS %v %v %v %v, ONVM %v %v %v %v",
					i, b.FID, b.Kind, b.Path, b.Verdict, o.FID, o.Kind, o.Path, o.Verdict)
			}
			fids[b.FID] = true
		}
	}
	be, oe := bp.p.Engine(), op.p.Engine()
	if bs, os := be.Stats(), oe.Stats(); bs != os {
		t.Errorf("stats differ:\nBESS %+v\nONVM %+v", bs, os)
	}
	for _, kind := range kinds {
		if bd, od := bp.inj.Decisions(kind), op.inj.Decisions(kind); bd != od || bd == 0 {
			t.Errorf("%v decisions: BESS %d, ONVM %d; want equal and non-zero", kind, bd, od)
		}
		if bi, oi := bp.inj.Injected(kind), op.inj.Injected(kind); bi != oi {
			t.Errorf("%v faults fired: BESS %d, ONVM %d", kind, bi, oi)
		}
	}
	// The same rules: one per consolidated flow, recorded once.
	if bl, ol := be.Global().Len(), oe.Global().Len(); bl != ol {
		t.Errorf("rules: BESS %d, ONVM %d", bl, ol)
	}
	for fid := range fids {
		br, bok := be.Global().Lookup(fid)
		or, ook := oe.Global().Lookup(fid)
		if bok != ook || (bok && br.String() != or.String()) {
			t.Errorf("%v: rules differ:\nBESS %v %v\nONVM %v %v", fid, bok, br, ook, or)
		}
	}
	if bt, ot := bp.mon.Totals(), op.mon.Totals(); bt != ot {
		t.Errorf("monitor totals: BESS %+v, ONVM %+v", bt, ot)
	}
	if !reflect.DeepEqual(bp.ids.Logs(), op.ids.Logs()) {
		t.Errorf("IDS logs differ: BESS %d entries, ONVM %d", len(bp.ids.Logs()), len(op.ids.Logs()))
	}
	if err := oe.CheckRecords(); err != nil {
		t.Error(err)
	}
}

func TestONVMBaselineVsSboxEquivalence(t *testing.T) {
	tr := smallTrace(t)
	run := func(opts core.Options) ([]bool, [][]byte, monitor.Counters) {
		mon, err := monitor.New("mon")
		if err != nil {
			t.Fatal(err)
		}
		fw, err := ipfilter.New(ipfilter.Config{Name: "fw", Rules: ipfilter.PadRules(nil, 50)})
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(Config{Chain: []core.NF{mon, fw}, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		pkts := tr.Packets()
		drops := make([]bool, len(pkts))
		outs := make([][]byte, len(pkts))
		for i, pkt := range pkts {
			if _, err := p.Process(pkt); err != nil {
				t.Fatal(err)
			}
			drops[i] = pkt.Dropped()
			outs[i] = append([]byte(nil), pkt.Data()...)
		}
		return drops, outs, mon.Totals()
	}
	bd, bo, bc := run(core.BaselineOptions())
	sd, so, sc := run(core.DefaultOptions())
	for i := range bd {
		if bd[i] != sd[i] || !bytes.Equal(bo[i], so[i]) {
			t.Fatalf("packet %d differs between ONVM baseline and SBox", i)
		}
	}
	if bc != sc {
		t.Errorf("monitor totals differ: %+v vs %+v", bc, sc)
	}
}

func TestPipelinedRateFlatVsChainLength(t *testing.T) {
	// Figure 8's ONVM shape: the pipelined model's rate is set by the
	// bottleneck stage, so it stays nearly flat as the chain grows.
	rate := func(n int) float64 {
		p, err := New(Config{Chain: filterChain(t, n), Options: core.BaselineOptions()})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		res, err := platform.Run(p, smallTrace(t).Packets())
		if err != nil {
			t.Fatal(err)
		}
		return res.RateMpps()
	}
	r1, r5 := rate(1), rate(5)
	if r5 < r1*0.8 {
		t.Errorf("ONVM rate dropped from %.3f to %.3f Mpps across chain lengths; pipeline should hold it flat", r1, r5)
	}
}

func TestONVMLatencyGrowsWithChainButSBoxFlat(t *testing.T) {
	lat := func(n int, opts core.Options) float64 {
		p, err := New(Config{Chain: filterChain(t, n), Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		res, err := platform.Run(p, smallTrace(t).Packets())
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanLatencyMicros()
	}
	if l1, l5 := lat(1, core.BaselineOptions()), lat(5, core.BaselineOptions()); l5 < l1*1.5 {
		t.Errorf("baseline latency %f -> %f did not grow with chain length", l1, l5)
	}
	l1, l5 := lat(1, core.DefaultOptions()), lat(5, core.DefaultOptions())
	if l5 > l1*1.5 {
		t.Errorf("SBox latency %f -> %f grew with chain length; fast path should be length-independent", l1, l5)
	}
}

// TestRaceSafetyUnderLoad runs the platform from one goroutine per RSS
// queue, each on its own Batch, under the race detector: every packet is
// accounted once.
func TestRaceSafetyUnderLoad(t *testing.T) {
	p, err := New(Config{Chain: filterChain(t, 4), Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tr, err := trace.Generate(trace.Config{Seed: 99, Flows: 60, Interleave: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, q := range platform.Partition(tr.Packets(), 4) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := platform.RunBatch(p, q, 32, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := p.Engine().Stats().Packets; got != uint64(tr.Len()) {
		t.Errorf("accounted %d of %d packets", got, tr.Len())
	}
}

// TestProcessBatchAllocatesNothing: a warm 32-packet vector of
// established flows allocates nothing on ONVM, as on BESS.
func TestProcessBatchAllocatesNothing(t *testing.T) {
	mon, err := monitor.New("mon")
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Chain: append([]core.NF{mon}, filterChain(t, 2)...), Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// The chain leaves packets byte-identical, so one vector replays.
	vec := make([]*packet.Packet, 32)
	for i := range vec {
		vec[i] = udpPkt(t, uint16(9101+i%4))
	}
	b := platform.NewBatch(32)
	run := func() {
		if _, err := p.ProcessBatch(vec, b); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if n := testing.AllocsPerRun(50, run); n != 0 {
		t.Errorf("warm 32-packet vector: %v allocs, want 0", n)
	}
	ms, err := p.ProcessBatch(vec, b)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ms {
		if m.Result.Path != core.PathFast {
			t.Fatalf("packet %d: path %v, want the fast path", i, m.Result.Path)
		}
	}
}
