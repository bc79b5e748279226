package bess

import (
	"bytes"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/nf/ipfilter"
	"github.com/fastpathnfv/speedybox/internal/nf/monitor"
	"github.com/fastpathnfv/speedybox/internal/nf/snort"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/trace"
)

func filterChain(t testing.TB, n int) []core.NF {
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

func TestNames(t *testing.T) {
	base, err := New(Config{Chain: filterChain(t, 1), Options: core.BaselineOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	if base.Name() != "BESS" {
		t.Errorf("Name = %q", base.Name())
	}
	sbox, err := New(Config{Chain: filterChain(t, 1), Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer sbox.Close()
	if sbox.Name() != "BESS w/ SBox" {
		t.Errorf("Name = %q", sbox.Name())
	}
}

func TestLongChainsSupported(t *testing.T) {
	// BESS runs the whole chain in one process: no length limit
	// (§VII-B2).
	p, err := New(Config{Chain: filterChain(t, 9), Options: core.DefaultOptions()})
	if err != nil {
		t.Fatalf("9-NF BESS chain rejected: %v", err)
	}
	defer p.Close()
}

func TestRunOnTrace(t *testing.T) {
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
		t.Errorf("processed %d, trace has %d", res.Packets, tr.Len())
	}
	st := res.Stats
	if st.FastPath == 0 {
		t.Error("no packets took the fast path")
	}
	if st.Consolidations == 0 {
		t.Error("no consolidations happened")
	}
	if len(res.FlowCycles) == 0 {
		t.Error("no flow processing times recorded")
	}
	if res.RateMpps() <= 0 || res.MeanLatencyMicros() <= 0 {
		t.Error("degenerate rate/latency")
	}
}

func TestSpeedyBoxReducesSubsequentWork(t *testing.T) {
	// Figure 4's core shape on a 3-NF chain: with SpeedyBox,
	// subsequent packets cost fewer work cycles and less latency.
	run := func(opts core.Options) *platform.RunResult {
		p, err := New(Config{Chain: filterChain(t, 3), Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		res, err := platform.Run(p, smallTrace(t).Packets())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(core.BaselineOptions())
	sbox := run(core.DefaultOptions())
	if sbox.MeanWorkCycles() >= base.MeanWorkCycles() {
		t.Errorf("SBox mean work %f >= baseline %f", sbox.MeanWorkCycles(), base.MeanWorkCycles())
	}
	if sbox.MeanLatencyMicros() >= base.MeanLatencyMicros() {
		t.Errorf("SBox mean latency %f >= baseline %f", sbox.MeanLatencyMicros(), base.MeanLatencyMicros())
	}
}

func TestOutputEquivalenceOnTrace(t *testing.T) {
	// Invariant 1 at platform scale: byte-identical outputs and
	// identical drop decisions between baseline and SpeedyBox.
	mkChain := func() []core.NF {
		ids, err := snort.New("ids", snort.DefaultRules())
		if err != nil {
			t.Fatal(err)
		}
		mon, err := monitor.New("mon")
		if err != nil {
			t.Fatal(err)
		}
		fw, err := ipfilter.New(ipfilter.Config{Name: "fw", Rules: ipfilter.PadRules(nil, 50)})
		if err != nil {
			t.Fatal(err)
		}
		return []core.NF{fw, ids, mon}
	}
	tr := smallTrace(t)

	process := func(opts core.Options) []*packet.Packet {
		p, err := New(Config{Chain: mkChain(), Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		pkts := tr.Packets()
		for _, pkt := range pkts {
			if _, err := p.Process(pkt); err != nil {
				t.Fatal(err)
			}
		}
		return pkts
	}
	baseOut := process(core.BaselineOptions())
	sboxOut := process(core.DefaultOptions())
	for i := range baseOut {
		if baseOut[i].Dropped() != sboxOut[i].Dropped() {
			t.Fatalf("packet %d: drop decisions differ", i)
		}
		if !bytes.Equal(baseOut[i].Data(), sboxOut[i].Data()) {
			t.Fatalf("packet %d: outputs differ", i)
		}
	}
}

func TestSnortLogEquivalenceOnTrace(t *testing.T) {
	// §VII-C: Snort logs must be identical with and without SBox.
	tr, err := trace.Generate(trace.Config{Seed: 77, Flows: 50, AlertFraction: 0.3, LogFraction: 0.3, Interleave: true})
	if err != nil {
		t.Fatal(err)
	}
	runLogs := func(opts core.Options) []snort.LogEntry {
		ids, err := snort.New("ids", snort.DefaultRules())
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(Config{Chain: []core.NF{ids}, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if _, err := platform.Run(p, tr.Packets()); err != nil {
			t.Fatal(err)
		}
		return ids.Logs()
	}
	base := runLogs(core.BaselineOptions())
	sbox := runLogs(core.DefaultOptions())
	if len(base) == 0 {
		t.Fatal("trace produced no IDS logs; test is vacuous")
	}
	if len(base) != len(sbox) {
		t.Fatalf("log counts differ: %d vs %d", len(base), len(sbox))
	}
	for i := range base {
		if base[i].RuleID != sbox[i].RuleID || base[i].Type != sbox[i].Type {
			t.Errorf("log %d differs: %+v vs %+v", i, base[i], sbox[i])
		}
	}
}

func TestMonitorCounterEquivalence(t *testing.T) {
	// §VII-C3: per-flow counters identical with and without SBox.
	tr := smallTrace(t)
	runTotals := func(opts core.Options) monitor.Counters {
		mon, err := monitor.New("mon")
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(Config{Chain: []core.NF{mon}, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if _, err := platform.Run(p, tr.Packets()); err != nil {
			t.Fatal(err)
		}
		return mon.Totals()
	}
	base := runTotals(core.BaselineOptions())
	sbox := runTotals(core.DefaultOptions())
	if base != sbox {
		t.Errorf("monitor totals differ: %+v vs %+v", base, sbox)
	}
}

func TestEarlyDropSavesCycles(t *testing.T) {
	// Table III: {forward, forward, drop} chain; SpeedyBox drops
	// subsequent packets at the head.
	mkChain := func() []core.NF {
		var chain []core.NF
		for i := 0; i < 2; i++ {
			f, err := ipfilter.New(ipfilter.Config{Name: "fw" + string(rune('0'+i)), Rules: ipfilter.PadRules(nil, 100)})
			if err != nil {
				t.Fatal(err)
			}
			chain = append(chain, f)
		}
		deny, err := ipfilter.New(ipfilter.Config{Name: "fw2", Rules: ipfilter.PadRules(nil, 100), DefaultDeny: true})
		if err != nil {
			t.Fatal(err)
		}
		return append(chain, deny)
	}
	run := func(opts core.Options) float64 {
		p, err := New(Config{Chain: mkChain(), Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		res, err := platform.Run(p, smallTrace(t).Packets())
		if err != nil {
			t.Fatal(err)
		}
		if res.Drops != res.Packets {
			t.Fatalf("dropped %d of %d; all should drop", res.Drops, res.Packets)
		}
		return res.MeanWorkCycles()
	}
	base := run(core.BaselineOptions())
	sbox := run(core.DefaultOptions())
	saving := (base - sbox) / base
	if saving < 0.35 {
		t.Errorf("early drop saves %.1f%%, want substantial savings (paper: ~65%%)", saving*100)
	}
}
