package speedybox_test

import (
	"testing"

	speedybox "github.com/fastpathnfv/speedybox"
	"github.com/fastpathnfv/speedybox/internal/stats"
)

// TestSoakChain1AtScale pushes a large trace (2000 flows, tens of
// thousands of packets) through the paper's Chain 1 on both platforms
// with SpeedyBox enabled: no errors, no state leaks after the TCP
// flows complete, and the fast path dominates.
func TestSoakChain1AtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	tr, err := speedybox.GenerateTrace(speedybox.TraceConfig{
		Seed: 1234, Flows: 2000, Interleave: true,
		UDPFraction: 0.0001, // all TCP: every flow tears down via FIN
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("soak trace: %d flows, %d packets", 2000, tr.Len())

	for _, mk := range []struct {
		name  string
		build func([]speedybox.NF, speedybox.Options) (*speedybox.Platform, error)
	}{
		{"BESS", speedybox.NewBESS},
		{"ONVM", speedybox.NewONVM},
	} {
		t.Run(mk.name, func(t *testing.T) {
			p, err := mk.build(chain1(t), speedybox.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			res, err := speedybox.Run(p, tr.Packets())
			if err != nil {
				t.Fatal(err)
			}
			if res.Packets != tr.Len() {
				t.Fatalf("processed %d of %d", res.Packets, tr.Len())
			}
			// Fast path must dominate on long flows.
			if frac := float64(res.Stats.FastPath) / float64(res.Packets); frac < 0.5 {
				t.Errorf("fast-path fraction = %.2f, want > 0.5", frac)
			}
			// All TCP flows FIN'd: every table must be empty again.
			eng := p.Engine()
			if err := eng.CheckRecords(); err != nil {
				t.Error(err)
			}
			if r, e, f := eng.Global().Len(), eng.Global().Guarded(), eng.FlowLen(); r != 0 || e != 0 || f != 0 {
				t.Errorf("after soak: %d rules, %d flows with events, %d flow records leaked", r, e, f)
			}
			// Flow-time distribution stays sane at scale.
			ft := res.FlowTimesMicros()
			p50 := stats.Percentile(ft, 50)
			if p50 < 5 || p50 > 500 {
				t.Errorf("soak p50 flow time = %.1fµs, implausible", p50)
			}
		})
	}
}

// TestSoakONVMBatched pushes the same scale through ONVM in 32-packet
// vectors: every packet accounted, and the tables empty once the flows
// end.
func TestSoakONVMBatched(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	tr, err := speedybox.GenerateTrace(speedybox.TraceConfig{
		Seed: 77, Flows: 1000, Interleave: true,
		UDPFraction: 0.0001, // all TCP: every flow tears down via FIN
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := speedybox.NewONVM(chain1(t), speedybox.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	res, err := speedybox.RunBatch(p, tr.Packets(), 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != tr.Len() {
		t.Fatalf("measured %d of %d", res.Packets, tr.Len())
	}
	if st := p.Engine().Stats(); st.Packets != uint64(tr.Len()) || st.FastPath == 0 {
		t.Errorf("accounted %d of %d, %d on the fast path", st.Packets, tr.Len(), st.FastPath)
	}
	eng := p.Engine()
	if err := eng.CheckRecords(); err != nil {
		t.Error(err)
	}
	if r, e, f := eng.Global().Len(), eng.Global().Guarded(), eng.FlowLen(); r != 0 || e != 0 || f != 0 {
		t.Errorf("after soak: %d rules, %d flows with events, %d flow records leaked", r, e, f)
	}
}

// TestSoakAdversarialMultiChain soaks a three-chain, three-tenant
// topology under composed adversarial traffic: diurnal load with event
// storms on the web chain, Pareto elephants on the VoIP chain, and a
// SYN flood clustered mid-trace on the bulk chain. The bar: zero
// drops, no flow left degraded, and the fast-path hit rate back within
// 90% of the pre-flood baseline by the end of the run.
func TestSoakAdversarialMultiChain(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	spec := &speedybox.TopologySpec{
		Name: "adversarial",
		Chains: []speedybox.TopologyChainSpec{
			{Name: "web", NFs: []speedybox.NFSpec{
				{Type: "snort"},
				{Type: "monitor", Name: "mon"},
			}},
			{Name: "voip", NFs: []speedybox.NFSpec{
				{Type: "gateway", NextHopMAC: "02:00:00:00:00:01", VoicePorts: []uint16{5060}},
				{Type: "monitor", Name: "mon"},
			}},
			{Name: "bulk", NFs: []speedybox.NFSpec{
				{Type: "ratelimiter", Quota: 1 << 40},
				{Type: "monitor", Name: "mon"},
			}},
		},
		Policies: []speedybox.TopologyPolicySpec{
			{Chain: "web", Tenant: 1, DstPortMin: 80},
			{Chain: "voip", Tenant: 2, DstPortMin: 5060},
			{Chain: "bulk", Tenant: 3, DstPortMin: 9000},
		},
		Tenants: []speedybox.TenantSpec{{ID: 1}, {ID: 2}, {ID: 3}},
	}
	// The Event Table storm rides the fault injector: always-firing
	// no-op events registered against freshly consolidated flows force
	// reconsolidation churn without ever changing a verdict.
	opts := speedybox.DefaultOptions()
	opts.Faults = speedybox.NewFaultInjector(speedybox.FaultConfig{
		Seed:  99,
		Rates: map[speedybox.FaultKind]float64{speedybox.FaultEventStorm: 0.05},
	})
	tp, err := speedybox.BuildTopology(spec, speedybox.TopologyBuildConfig{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()

	// One adversarial stream per chain, merged round-robin (per-flow
	// order survives: each flow lives in one stream, and the merge
	// preserves every stream's internal order).
	base := func(seed int64, flows int, port uint16) speedybox.TraceConfig {
		return speedybox.TraceConfig{
			Seed: seed, Flows: flows, DstPort: port, Interleave: true,
			UDPFraction: 0.0001, // all TCP: flows tear down via FIN
		}
	}
	var streams [][]*speedybox.Packet
	total := 0
	for _, cfg := range []speedybox.AdversarialTraceConfig{
		{Config: base(101, 500, 80), Diurnal: true, EventStormFraction: 0.1},
		{Config: base(102, 500, 5060), ElephantFraction: 0.2},
		{Config: base(103, 500, 9000), SYNFloodFlows: 400, SYNFloodAt: 0.5},
	} {
		tr, err := speedybox.GenerateAdversarialTrace(cfg)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, tr.Packets())
		total += tr.Len()
	}
	pkts := make([]*speedybox.Packet, 0, total)
	for k := 0; ; k++ {
		emitted := false
		for _, s := range streams {
			if k < len(s) {
				pkts = append(pkts, s[k])
				emitted = true
			}
		}
		if !emitted {
			break
		}
	}
	t.Logf("adversarial soak: %d packets over %d chains", len(pkts), tp.NumChains())

	sumStats := func() speedybox.Stats {
		var s speedybox.Stats
		for i := 0; i < tp.NumChains(); i++ {
			s.Add(tp.Engine(i).Stats())
		}
		return s
	}

	const window = 512
	windows := len(pkts) / window
	floodStart := windows / 3 // flood is clustered at 0.5 of the bulk span
	prev := sumStats()
	var hitRates []float64
	drops := 0
	for w := 0; w*window < len(pkts); w++ {
		end := (w + 1) * window
		if end > len(pkts) {
			end = len(pkts)
		}
		res, err := tp.RunBatch(pkts[w*window:end], 32)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		drops += res.Drops
		st := sumStats()
		if eligible := (st.Subsequent - prev.Subsequent) + (st.Final - prev.Final); eligible > 0 {
			hitRates = append(hitRates, float64(st.FastPath-prev.FastPath)/float64(eligible))
		}
		prev = st
	}

	if drops != 0 {
		t.Errorf("adversarial soak dropped %d packets", drops)
	}
	final := sumStats()
	if final.Packets != uint64(len(pkts)) {
		t.Errorf("accounted %d of %d packets", final.Packets, len(pkts))
	}
	if final.EventsFired == 0 {
		t.Error("no events fired; the event storm was vacuous")
	}
	for i := 0; i < tp.NumChains(); i++ {
		if n := tp.Engine(i).DegradedFlows(); n != 0 {
			t.Errorf("chain %d: %d flows stuck degraded after a fault-free soak", i, n)
		}
	}
	var baseline float64
	n := 0
	for i := 1; i < floodStart && i < len(hitRates); i++ { // window 0 warms up
		baseline += hitRates[i]
		n++
	}
	if n == 0 {
		t.Fatal("no pre-flood windows measured")
	}
	baseline /= float64(n)
	finalRate := hitRates[len(hitRates)-1]
	if baseline <= 0 || finalRate < 0.9*baseline {
		t.Errorf("hit rate never recovered: final %.3f vs baseline %.3f", finalRate, baseline)
	}
	t.Logf("adversarial soak: baseline hit rate %.3f, final %.3f, drops %d, events fired %d",
		baseline, finalRate, drops, final.EventsFired)
}

// TestSoakPeriodicReconfigure soaks the live-reconfiguration path: a
// large all-TCP trace streams through Chain 1 in windows while the
// middle third of the run alternately splices a pass-all filter into
// and out of the chain every few windows. Reconfiguration must cost
// nothing observable at this bar: zero drops, no flow stuck degraded,
// and the final fast-path hit rate back within 90% of the pre-change
// baseline.
func TestSoakPeriodicReconfigure(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	tr, err := speedybox.GenerateTrace(speedybox.TraceConfig{
		Seed: 4321, Flows: 1200, Interleave: true,
		MeanPackets: 24,
		UDPFraction: 0.0001, // all TCP: every flow tears down via FIN
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := speedybox.NewBESS(chain1(t), speedybox.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	eng := p.Engine()

	pkts := tr.Packets()
	const window = 512
	windows := len(pkts) / window
	first, last := windows/3, 2*windows/3 // reconfigure in the middle third
	b := speedybox.NewBatch(32)
	prev := eng.Stats()
	var hitRates []float64
	drops, reconfigs := 0, 0
	inserted := false

	for w := 0; w*window < len(pkts); w++ {
		if w >= first && w <= last && (w-first)%4 == 0 {
			var plan speedybox.ChainPlan
			if inserted {
				plan = speedybox.ChainPlan{Op: speedybox.OpRemove, Name: "extra-filter"}
			} else {
				nf, err := speedybox.NewIPFilter(speedybox.IPFilterConfig{
					Name:  "extra-filter",
					Rules: speedybox.PadIPFilterRules(nil, 10),
				})
				if err != nil {
					t.Fatal(err)
				}
				plan = speedybox.ChainPlan{Op: speedybox.OpInsert, Pos: eng.ChainLen(), NF: nf}
			}
			if err := p.Reconfigure(plan); err != nil {
				t.Fatalf("window %d reconfigure: %v", w, err)
			}
			inserted = !inserted
			reconfigs++
		}
		end := (w + 1) * window
		if end > len(pkts) {
			end = len(pkts)
		}
		for i := w * window; i < end; i += 32 {
			j := i + 32
			if j > end {
				j = end
			}
			ms, err := p.ProcessBatch(pkts[i:j], b)
			if err != nil {
				t.Fatalf("batch at packet %d: %v", i, err)
			}
			for k := range ms {
				if ms[k].Result.Verdict == speedybox.VerdictDrop {
					drops++
				}
			}
		}
		st := eng.Stats()
		if eligible := (st.Subsequent - prev.Subsequent) + (st.Final - prev.Final); eligible > 0 {
			hitRates = append(hitRates, float64(st.FastPath-prev.FastPath)/float64(eligible))
		}
		prev = st
	}

	if drops != 0 {
		t.Errorf("reconfiguration soak dropped %d packets", drops)
	}
	if reconfigs == 0 {
		t.Fatal("no reconfigurations applied; the soak was vacuous")
	}
	if got := eng.Epoch(); got != uint64(reconfigs) {
		t.Errorf("epoch %d != %d applied reconfigurations", got, reconfigs)
	}
	if n := eng.DegradedFlows(); n != 0 {
		t.Errorf("%d flows stuck degraded after a fault-free soak", n)
	}
	var baseline float64
	n := 0
	for i := 1; i < first && i < len(hitRates); i++ { // window 0 warms up
		baseline += hitRates[i]
		n++
	}
	if n == 0 {
		t.Fatal("no pre-change windows measured")
	}
	baseline /= float64(n)
	final := hitRates[len(hitRates)-1]
	if baseline <= 0 || final < 0.9*baseline {
		t.Errorf("hit rate never recovered: final %.3f vs baseline %.3f", final, baseline)
	}
	t.Logf("reconfig soak: %d reconfigs, baseline %.3f, final %.3f, drops %d",
		reconfigs, baseline, final, drops)
}
