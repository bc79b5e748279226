package harness

import (
	"slices"
	"strings"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/telemetry"
)

// The harness tests assert the reproduced *shapes* of the paper's
// results: who wins, in which direction, and (loosely banded) by how
// much. Exact cycle counts are pinned down separately in
// EXPERIMENTS.md.

func cfg() Config { return Config{Seed: 1, Flows: 40} }

func TestFig4Shape(t *testing.T) {
	res, err := RunFig4(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 2 platforms x 3 chain lengths", len(res.Rows))
	}
	for _, row := range res.Rows {
		t.Run(row.Platform+"/"+string(rune('0'+row.NumHA)), func(t *testing.T) {
			// Initial packets cost much more than subsequent (ACL scans).
			if row.OriginalInit <= row.OriginalSub {
				t.Errorf("init (%f) not above sub (%f)", row.OriginalInit, row.OriginalSub)
			}
			// Recording makes SBox initial packets costlier than original.
			if row.SBoxInit <= row.OriginalInit {
				t.Errorf("SBox init (%f) not above original init (%f)", row.SBoxInit, row.OriginalInit)
			}
			switch row.NumHA {
			case 1:
				// Paper: SpeedyBox costs MORE with one header action.
				if row.SBoxSub <= row.OriginalSub {
					t.Errorf("1 HA: SBox sub (%f) should exceed original (%f)", row.SBoxSub, row.OriginalSub)
				}
			case 2:
				// Paper: 40.9% saving; accept 30-55%.
				if s := row.SubSaving(); s < 30 || s > 55 {
					t.Errorf("2 HA saving = %.1f%%, want ~40.9%%", s)
				}
			case 3:
				// Paper: 57.7% saving; accept 45-70%.
				if s := row.SubSaving(); s < 45 || s > 70 {
					t.Errorf("3 HA saving = %.1f%%, want ~57.7%%", s)
				}
			}
		})
	}
}

func TestFig4TheoreticalBound(t *testing.T) {
	// "Theoretically, this reduction can be as high as (N-1)/N": the
	// measured saving must stay below the bound.
	res, err := RunFig4(cfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		bound := float64(row.NumHA-1) / float64(row.NumHA) * 100
		if s := row.SubSaving(); s > bound {
			t.Errorf("%s %d HA: saving %.1f%% exceeds theoretical bound %.1f%%",
				row.Platform, row.NumHA, s, bound)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	res, err := RunTable3(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Per-NF costs in the paper's 450-700 band.
		if len(row.PerNF) != 3 {
			t.Fatalf("%s: perNF = %v", row.Platform, row.PerNF)
		}
		for i, c := range row.PerNF {
			if c < 400 || c > 750 {
				t.Errorf("%s NF%d = %.0f cycles, outside Table III band", row.Platform, i+1, c)
			}
		}
		// Paper: ~65% aggregate saving; accept 55-75%.
		if s := row.Saving(); s < 55 || s > 75 {
			t.Errorf("%s early-drop saving = %.1f%%, want ~65%%", row.Platform, s)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	res, err := RunFig5(cfg())
	if err != nil {
		t.Fatal(err)
	}
	// BESS rate with SBox at 3 SFs: paper reports 2.1x; accept >= 1.8x.
	if sp := res.BESSSpeedupAt3SF(); sp < 1.8 {
		t.Errorf("BESS 3-SF speedup = %.2fx, want >= 1.8x (paper 2.1x)", sp)
	}
	// BESS latency reduction at 3 SFs: paper 59%; accept >= 40%.
	if red := res.BESSLatencyReductionAt3SF(); red < 40 {
		t.Errorf("BESS 3-SF latency reduction = %.1f%%, want >= 40%% (paper 59%%)", red)
	}
	// Original BESS rate decreases with more SFs; ONVM's stays flat
	// (pipelined).
	b1, _ := res.point("BESS", false, 1)
	b3, _ := res.point("BESS", false, 3)
	if b3.RateMpps >= b1.RateMpps {
		t.Errorf("BESS original rate did not decrease: %.3f -> %.3f", b1.RateMpps, b3.RateMpps)
	}
	o1, _ := res.point("OpenNetVM", false, 1)
	o3, _ := res.point("OpenNetVM", false, 3)
	if o3.RateMpps < o1.RateMpps*0.85 {
		t.Errorf("ONVM original rate dropped: %.3f -> %.3f, should stay flat", o1.RateMpps, o3.RateMpps)
	}
	// Latency grows with SFs on the original path, stays near-flat
	// with SBox.
	bs1, _ := res.point("BESS", true, 1)
	bs3, _ := res.point("BESS", true, 3)
	if bs3.LatencyMicro > bs1.LatencyMicro*1.5 {
		t.Errorf("SBox latency grew %0.3f -> %0.3f across SFs", bs1.LatencyMicro, bs3.LatencyMicro)
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := RunFig6(cfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		// Cycles per packet drop substantially on both platforms.
		if red := row.WorkReduction(); red < 15 {
			t.Errorf("%s cycle reduction = %.1f%%, want a substantial cut (paper ~46%%)", row.Platform, red)
		}
		switch row.Platform {
		case "BESS":
			// Paper: +32.1% rate.
			if imp := row.RateImprovement(); imp < 20 {
				t.Errorf("BESS rate improvement = %.1f%%, want >= 20%%", imp)
			}
		case "OpenNetVM":
			// Paper: rate roughly unchanged (pipelined already).
			if imp := row.RateImprovement(); imp < -10 || imp > 10 {
				t.Errorf("ONVM rate change = %.1f%%, want ~flat", imp)
			}
		}
	}
}

func TestFig7Shape(t *testing.T) {
	res, err := RunFig7(cfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		// Paper: 35.9% total reduction on BESS; accept >= 20%.
		if red := row.TotalReduction(); red < 20 {
			t.Errorf("%s total reduction = %.1f%%, want >= 20%%", row.Platform, red)
		}
		// Both optimizations contribute meaningfully (paper: roughly
		// half/half).
		ha, sf := row.Shares()
		if ha < 25 || sf < 25 {
			t.Errorf("%s shares HA=%.1f%% SF=%.1f%%; both should contribute", row.Platform, ha, sf)
		}
		// Ablations never beat the full system.
		if row.HAOnlyMicros < row.SBoxMicros-1e-9 {
			t.Errorf("%s HA-only (%.3f) beats full SBox (%.3f)", row.Platform, row.HAOnlyMicros, row.SBoxMicros)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	res, err := RunFig8(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.ONVMMaxLen != 5 {
		t.Errorf("ONVM max chain = %d, want the paper's 5", res.ONVMMaxLen)
	}
	// No ONVM points beyond length 5.
	for _, p := range res.Points {
		if p.Platform == "OpenNetVM" && p.ChainLen > 5 {
			t.Errorf("ONVM point at length %d", p.ChainLen)
		}
	}
	// BESS original latency grows roughly linearly; SBox stays
	// near-flat ("nearly irrelevant to the chain length").
	orig := res.Series("BESS", false)
	sbox := res.Series("BESS", true)
	if len(orig) != 9 || len(sbox) != 9 {
		t.Fatalf("BESS series lengths %d/%d, want 9", len(orig), len(sbox))
	}
	if orig[8].LatencyMicro < orig[0].LatencyMicro*2 {
		t.Errorf("BESS original latency %0.3f -> %0.3f did not grow with length", orig[0].LatencyMicro, orig[8].LatencyMicro)
	}
	if sbox[8].LatencyMicro > sbox[0].LatencyMicro*1.3 {
		t.Errorf("BESS SBox latency %0.3f -> %0.3f grew with length", sbox[0].LatencyMicro, sbox[8].LatencyMicro)
	}
	// At length 9, SBox wins big.
	if sbox[8].LatencyMicro > orig[8].LatencyMicro*0.5 {
		t.Errorf("at length 9 SBox latency %0.3f vs original %0.3f; want < half", sbox[8].LatencyMicro, orig[8].LatencyMicro)
	}
	// ONVM latency exceeds BESS at equal length (per-hop ring costs).
	onvmOrig := res.Series("OpenNetVM", false)
	for i, p := range onvmOrig {
		if i > 0 && p.LatencyMicro <= orig[i].LatencyMicro {
			t.Errorf("len %d: ONVM latency %0.3f <= BESS %0.3f", p.ChainLen, p.LatencyMicro, orig[i].LatencyMicro)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	for chain := 1; chain <= 2; chain++ {
		res, err := RunFig9(Config{Seed: 1, Flows: 80}, chain)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			// Paper: 34-41% median reduction; accept 20-55%.
			if red := row.P50Reduction(); red < 20 || red > 55 {
				t.Errorf("chain %d %s p50 reduction = %.1f%%, want 20-55%%", chain, row.Platform, red)
			}
			// Flow times land in the paper's 10-100µs axis range.
			if row.Original.P50 < 5 || row.Original.P50 > 200 {
				t.Errorf("chain %d %s p50 = %.1fµs, outside plausible range", chain, row.Platform, row.Original.P50)
			}
		}
	}
}

// TestFig9FlowTimesReproducible: equal seeds give equal flow-time
// series, element for element, so fig9's -json output is reproducible.
func TestFig9FlowTimesReproducible(t *testing.T) {
	a, err := RunFig9(cfg(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFig9(cfg(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		for _, s := range [][2]Fig9Series{{a.Rows[i].Original, b.Rows[i].Original}, {a.Rows[i].SBox, b.Rows[i].SBox}} {
			if !slices.Equal(s[0].FlowTimes, s[1].FlowTimes) {
				t.Errorf("%s: flow times differ between identical runs", s[0].Variant)
			}
		}
	}
}

// TestTelemetryReachesEveryVariant: Config.Telemetry is attached to every
// engine a row builds, Fig. 7's ablation variants included, so the hub's
// install counter sums every variant's consolidations.
func TestTelemetryReachesEveryVariant(t *testing.T) {
	c := cfg()
	c.Telemetry = telemetry.NewHub()
	if _, err := RunFig7(c); err != nil {
		t.Fatal(err)
	}
	var want, ablations uint64
	probe := fig7
	probe.collect = func(_ *Fig7Result, pt point) {
		for i, run := range pt.runs {
			want += run.Stats.Consolidations
			if i >= 2 {
				ablations += run.Stats.Consolidations
			}
		}
	}
	if _, err := probe.run(cfg()); err != nil {
		t.Fatal(err)
	}
	if ablations == 0 {
		t.Fatal("the ablation variants installed no rules: the check is vacuous")
	}
	if got := c.Telemetry.Registry.Counter("speedybox_mat_installs_total", "").Value(); got != want {
		t.Errorf("speedybox_mat_installs_total = %d, want %d (every variant's consolidations, %d of them the ablations')",
			got, want, ablations)
	}
}

func TestFig9InvalidChain(t *testing.T) {
	if _, err := RunFig9(cfg(), 3); err == nil {
		t.Error("unknown chain accepted")
	}
}

func TestEquivalenceAllPass(t *testing.T) {
	res, err := RunEquivalence(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllPassed() {
		t.Fatalf("equivalence failures:\n%s", res.Format())
	}
	if len(res.Checks) != 4 {
		t.Errorf("checks = %d, want 4 (Snort, Maglev, 2 chains)", len(res.Checks))
	}
}

func TestVPNXShape(t *testing.T) {
	res, err := RunVPNX(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.ResidualStackOps != 0 {
		t.Errorf("residual stack ops = %d, want full encap/decap cancellation", res.ResidualStackOps)
	}
	for _, row := range res.Rows {
		if red := row.WorkReduction(); red < 30 {
			t.Errorf("%s: VPN-chain cycle reduction %.1f%%, want substantial (stack elimination)", row.Platform, red)
		}
		if row.SBoxLat >= row.OriginalLat {
			t.Errorf("%s: SBox latency %.3f >= original %.3f", row.Platform, row.SBoxLat, row.OriginalLat)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	// Equal seeds reproduce every number exactly.
	a, err := RunFig4(cfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFig4(cfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("row %d differs between identical runs:\n%+v\n%+v", i, a.Rows[i], b.Rows[i])
		}
	}
}

func TestFormatsNonEmpty(t *testing.T) {
	checks := []struct {
		name string
		run  func() (string, error)
	}{
		{"fig4", func() (string, error) { r, err := RunFig4(cfg()); return safeFormat(r, err) }},
		{"table3", func() (string, error) { r, err := RunTable3(cfg()); return safeFormat(r, err) }},
		{"fig6", func() (string, error) { r, err := RunFig6(cfg()); return safeFormat(r, err) }},
	}
	for _, c := range checks {
		t.Run(c.name, func(t *testing.T) {
			out, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, "BESS") || !strings.Contains(out, "OpenNetVM") {
				t.Errorf("format output missing platforms:\n%s", out)
			}
		})
	}
}

func safeFormat(r interface{ Format() string }, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Format(), nil
}

func TestCrossoverShape(t *testing.T) {
	res, err := RunCrossover(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Figure 4's finding: SpeedyBox loses at one NF and wins from two.
	if res.Points[0].Wins() {
		t.Error("SpeedyBox should lose at chain length 1 (fast-path machinery cost)")
	}
	if res.BreakEvenLen != 2 {
		t.Errorf("break-even length = %d, want 2", res.BreakEvenLen)
	}
	// SBox cost grows slowly (rule metadata only); original grows by a
	// full NF per link.
	first, last := res.Points[0], res.Points[5]
	if growth := last.SBoxSub - first.SBoxSub; growth > (last.OriginalSub-first.OriginalSub)/5 {
		t.Errorf("SBox cost growth %f too steep vs original %f", growth, last.OriginalSub-first.OriginalSub)
	}
}

// TestRestartRecovery runs the crash-restart experiment: the engine
// restored from checkpoint+WAL must come back at ≥90% of the pre-crash
// hit rate, strictly beating the cold replacement, with real rules
// rehydrated from a real journal and zero drops.
func TestRestartRecovery(t *testing.T) {
	res, err := RunRestart(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("restart experiment failed:\n%s", res.Format())
	}
	if res.RestoredFrac <= res.ColdFrac {
		t.Errorf("restore (%.3f) did not beat cold start (%.3f):\n%s",
			res.RestoredFrac, res.ColdFrac, res.Format())
	}
	if res.RestoredRules == 0 || res.WALBytes == 0 || res.Checkpoints == 0 {
		t.Errorf("vacuous run: rules=%d walBytes=%d ckpts=%d",
			res.RestoredRules, res.WALBytes, res.Checkpoints)
	}
}

// TestMultiQueueDeterministic re-runs the worker sweep and expects
// bit-identical points: the experiment reports modeled tick counts, so
// nothing in it may read the wall clock.
func TestMultiQueueDeterministic(t *testing.T) {
	run := func() *MultiQueueResult {
		res, err := RunMultiQueue(Config{Seed: 3, Flows: 64})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Points) != len(b.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Errorf("point %d diverged across identical seeds: %+v vs %+v",
				i, a.Points[i], b.Points[i])
		}
	}
	if a.Format() != b.Format() {
		t.Error("formatted sweeps differ across identical seeds")
	}
}
