package harness

import (
	"fmt"

	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/stats"
)

// Fig4Row is one (platform, #header actions) cell group of Figure 4: CPU
// cycles per initial and subsequent packet, with and without SpeedyBox.
type Fig4Row struct {
	Platform     string
	NumHA        int
	OriginalInit float64
	SBoxInit     float64
	OriginalSub  float64
	SBoxSub      float64
}

// SubSaving returns the subsequent-packet cycle reduction in percent
// (negative when SpeedyBox costs more, as the paper reports for one
// header action).
func (r Fig4Row) SubSaving() float64 { return stats.ReductionPercent(r.OriginalSub, r.SBoxSub) }

// Fig4Result reproduces Figure 4 (a) and (b): the effect of header
// action consolidation on chains of 1-3 IPFilters, 64B packets.
type Fig4Result struct {
	Rows []Fig4Row
}

// Format renders the figure as the paper's two panels.
func (r *Fig4Result) Format() string {
	t := &tableWriter{}
	t.title("Figure 4: Effect of header action consolidation (CPU cycles per packet)")
	t.row("platform", "#HA", "Original-init", "SBox-init", "Original-sub", "SBox-sub", "sub saving")
	for _, row := range r.Rows {
		t.row(row.Platform, fmt.Sprintf("%d", row.NumHA),
			f1(row.OriginalInit), f1(row.SBoxInit),
			f1(row.OriginalSub), f1(row.SBoxSub),
			fmt.Sprintf("%.1f%%", row.SubSaving()))
	}
	return t.String()
}

// Table3Row is one platform's early-packet-drop numbers: per-NF CPU
// cycles on the original path and the SpeedyBox aggregate.
type Table3Row struct {
	Platform      string
	PerNF         []float64 // subsequent-packet cycles per NF, chain order
	Aggregate     float64
	SBoxAggregate float64
}

// Saving returns the aggregate cycle reduction in percent.
func (r Table3Row) Saving() float64 { return stats.ReductionPercent(r.Aggregate, r.SBoxAggregate) }

// Table3Result reproduces Table III: on IPFilters {forward, forward,
// drop}, SpeedyBox drops subsequent packets at the head of the chain.
type Table3Result struct {
	Rows []Table3Row
}

// Format renders the table in the paper's layout.
func (r *Table3Result) Format() string {
	t := &tableWriter{}
	t.title("Table III: Early packet drop saves CPU cycles (subsequent packets)")
	t.row("(CPU cycle)", "NF1", "NF2", "NF3", "Aggregate")
	for _, row := range r.Rows {
		cells := []string{row.Platform}
		for _, v := range row.PerNF {
			cells = append(cells, f1(v))
		}
		for len(cells) < 4 {
			cells = append(cells, "—")
		}
		cells = append(cells, f1(row.Aggregate))
		t.row(cells...)
		t.row(row.Platform+" w/ SBox", "—", "—", "—",
			fmt.Sprintf("%s (%s)", f1(row.SBoxAggregate), pct(row.Aggregate, row.SBoxAggregate)))
	}
	return t.String()
}

// Fig5Point is one (platform, #state functions) measurement.
type Fig5Point struct {
	Platform     string
	SBox         bool
	NumSF        int
	RateMpps     float64
	LatencyMicro float64
}

// Fig5Result reproduces Figure 5: the effect of state function
// parallelism on processing rate (a) and latency (b), 1-3 synthetic NFs.
type Fig5Result struct {
	Points []Fig5Point
}

// Format renders both panels.
func (r *Fig5Result) Format() string {
	t := &tableWriter{}
	t.title("Figure 5: Effect of state function parallelism")
	t.row("platform", "#SF", "rate (Mpps)", "latency (µs)")
	for _, p := range r.Points {
		t.row(platform.DisplayName(p.Platform, p.SBox), fmt.Sprintf("%d", p.NumSF), f3(p.RateMpps), f3(p.LatencyMicro))
	}
	return t.String()
}

// point finds a result point (tests and EXPERIMENTS generation).
func (r *Fig5Result) point(platform string, sbox bool, n int) (Fig5Point, bool) {
	for _, p := range r.Points {
		if p.Platform == platform && p.SBox == sbox && p.NumSF == n {
			return p, true
		}
	}
	return Fig5Point{}, false
}

// BESSSpeedupAt3SF returns the rate ratio the paper headlines ("BESS
// with SpeedyBox achieves 2.1x processing rate" at 3 SFs).
func (r *Fig5Result) BESSSpeedupAt3SF() float64 {
	orig, ok1 := r.point("BESS", false, 3)
	sbox, ok2 := r.point("BESS", true, 3)
	if !ok1 || !ok2 || orig.RateMpps == 0 {
		return 0
	}
	return sbox.RateMpps / orig.RateMpps
}

// BESSLatencyReductionAt3SF returns the latency cut at 3 SFs (paper:
// 59%).
func (r *Fig5Result) BESSLatencyReductionAt3SF() float64 {
	orig, ok1 := r.point("BESS", false, 3)
	sbox, ok2 := r.point("BESS", true, 3)
	if !ok1 || !ok2 {
		return 0
	}
	return stats.ReductionPercent(orig.LatencyMicro, sbox.LatencyMicro)
}

// Fig6Row is one platform's Snort+Monitor numbers.
type Fig6Row struct {
	Platform     string
	OriginalWork float64 // CPU cycles per packet
	SBoxWork     float64
	OriginalMpps float64
	SBoxMpps     float64
}

// WorkReduction returns the per-packet cycle reduction in percent
// (paper: 46.3% BESS, 47.4% ONVM).
func (r Fig6Row) WorkReduction() float64 { return stats.ReductionPercent(r.OriginalWork, r.SBoxWork) }

// RateImprovement returns the processing-rate gain in percent (paper:
// +32.1% BESS, ~0% ONVM).
func (r Fig6Row) RateImprovement() float64 {
	return -stats.ReductionPercent(r.OriginalMpps, r.SBoxMpps)
}

// Fig6Result reproduces Figure 6: consolidation and parallelism on the
// Snort+Monitor chain.
type Fig6Result struct {
	Rows []Fig6Row
}

// Format renders both panels.
func (r *Fig6Result) Format() string {
	t := &tableWriter{}
	t.title("Figure 6: Snort+Monitor chain — consolidation and parallelism")
	t.row("platform", "orig cycles", "SBox cycles", "cycle change", "orig Mpps", "SBox Mpps", "rate change")
	for _, row := range r.Rows {
		t.row(row.Platform,
			f1(row.OriginalWork), f1(row.SBoxWork), pct(row.OriginalWork, row.SBoxWork),
			f3(row.OriginalMpps), f3(row.SBoxMpps), pct(row.OriginalMpps, row.SBoxMpps))
	}
	return t.String()
}

// Fig7Row is one platform's latency breakdown of the Snort+Monitor
// chain: the total reduction and, by ablation, each optimization's share.
type Fig7Row struct {
	Platform       string
	OriginalMicros float64
	SBoxMicros     float64
	// HAOnlyMicros and SFOnlyMicros are the ablation latencies.
	HAOnlyMicros float64
	SFOnlyMicros float64
}

// TotalReduction returns the full-SpeedyBox latency reduction in
// percent (paper: 35.9% on BESS).
func (r Fig7Row) TotalReduction() float64 {
	return stats.ReductionPercent(r.OriginalMicros, r.SBoxMicros)
}

// Shares splits the total reduction between header-action consolidation
// and state-function parallelism in proportion to their standalone
// reductions (paper: 49.4% HA / 50.6% SF on BESS; 41.1% / 58.9% ONVM).
func (r Fig7Row) Shares() (haShare, sfShare float64) {
	haGain := r.OriginalMicros - r.HAOnlyMicros
	sfGain := r.OriginalMicros - r.SFOnlyMicros
	if haGain < 0 {
		haGain = 0
	}
	if sfGain < 0 {
		sfGain = 0
	}
	total := haGain + sfGain
	if total == 0 {
		return 0, 0
	}
	return haGain / total * 100, sfGain / total * 100
}

// Fig7Result reproduces Figure 7.
type Fig7Result struct {
	Rows []Fig7Row
}

// Format renders the breakdown.
func (r *Fig7Result) Format() string {
	t := &tableWriter{}
	t.title("Figure 7: Latency reduction of Snort+Monitor and per-optimization contributions")
	t.row("platform", "orig (µs)", "SBox (µs)", "reduction", "HA share", "SF share")
	for _, row := range r.Rows {
		ha, sf := row.Shares()
		t.row(row.Platform,
			f3(row.OriginalMicros), f3(row.SBoxMicros),
			f1(row.TotalReduction())+"%",
			f1(ha)+"%", f1(sf)+"%")
	}
	return t.String()
}

// Fig8Point is one (platform, chain length) measurement.
type Fig8Point struct {
	Platform     string
	SBox         bool
	ChainLen     int
	LatencyMicro float64
	RateMpps     float64
}

// Fig8Result reproduces Figure 8: service chains of 1-9 IPFilters.
// OpenNetVM stops at length 5, limited by the testbed's core count
// (§VII-B2).
type Fig8Result struct {
	Points []Fig8Point
	// ONVMMaxLen is the core-budget chain limit actually applied.
	ONVMMaxLen int
}

// Series extracts one curve (latency or rate by chain length).
func (r *Fig8Result) Series(platform string, sbox bool) []Fig8Point {
	var out []Fig8Point
	for _, p := range r.Points {
		if p.Platform == platform && p.SBox == sbox {
			out = append(out, p)
		}
	}
	return out
}

// Format renders both panels.
func (r *Fig8Result) Format() string {
	t := &tableWriter{}
	t.title(fmt.Sprintf("Figure 8: Chain length scaling (OpenNetVM capped at %d by core budget)", r.ONVMMaxLen))
	t.row("platform", "len", "latency (µs)", "rate (Mpps)")
	for _, p := range r.Points {
		t.row(platform.DisplayName(p.Platform, p.SBox), fmt.Sprintf("%d", p.ChainLen), f3(p.LatencyMicro), f3(p.RateMpps))
	}
	return t.String()
}

// Fig9Series is one variant's flow-processing-time distribution.
type Fig9Series struct {
	Variant   string
	FlowTimes []float64 // µs
	P50       float64
}

// Fig9Row is one (chain, platform) comparison.
type Fig9Row struct {
	Chain    string
	Platform string
	Original Fig9Series
	SBox     Fig9Series
}

// P50Reduction returns the median flow-time reduction (paper: 39.6% /
// 40.2% on Chain 1, 41.3% / 34.2% on Chain 2).
func (r Fig9Row) P50Reduction() float64 { return stats.ReductionPercent(r.Original.P50, r.SBox.P50) }

// Fig9Result reproduces Figure 9: CDFs of flow processing time on
// datacenter-style traces through the two real-world chains.
type Fig9Result struct {
	Rows []Fig9Row
}

// FormatCDF renders the empirical CDF series behind the paper's Figure 9
// plot as "value fraction" columns per variant, ready for gnuplot.
func (r *Fig9Result) FormatCDF() string {
	t := &tableWriter{}
	if len(r.Rows) > 0 {
		t.title("Figure 9 CDF series — " + r.Rows[0].Chain)
	}
	for _, row := range r.Rows {
		for _, s := range []Fig9Series{row.Original, row.SBox} {
			t.row("# " + s.Variant)
			for _, pt := range stats.CDF(s.FlowTimes) {
				t.row(f1(pt.Value), f3(pt.Fraction))
			}
		}
	}
	return t.String()
}

// Format renders the CDF summaries the way the paper reports them.
func (r *Fig9Result) Format() string {
	t := &tableWriter{}
	if len(r.Rows) > 0 {
		t.title("Figure 9: CDF of flow processing time — " + r.Rows[0].Chain)
	}
	t.row("variant", "p10 (µs)", "p50 (µs)", "p90 (µs)", "p50 change")
	for _, row := range r.Rows {
		for _, s := range []Fig9Series{row.Original, row.SBox} {
			t.row(s.Variant,
				f1(stats.Percentile(s.FlowTimes, 10)),
				f1(s.P50),
				f1(stats.Percentile(s.FlowTimes, 90)),
				"")
		}
		t.row(fmt.Sprintf("-> %s p50 reduction", row.Platform), "", "", "",
			f1(row.P50Reduction())+"%")
	}
	return t.String()
}

// VPNXRow is one platform's numbers for the VPN-tunnel chain.
type VPNXRow struct {
	Platform     string
	OriginalWork float64
	SBoxWork     float64
	OriginalLat  float64 // µs
	SBoxLat      float64
}

// WorkReduction returns the cycle saving in percent.
func (r VPNXRow) WorkReduction() float64 { return stats.ReductionPercent(r.OriginalWork, r.SBoxWork) }

// VPNXResult is an extension experiment: a VPN tunnel segment (encap ->
// Snort -> Monitor -> decap) whose encap/decap pair cancels entirely
// under §V-B stack elimination. The original path pushes and pops an AH
// header (plus two checksum refreshes) on every packet; the consolidated
// fast path touches no headers at all.
type VPNXResult struct {
	Rows []VPNXRow
	// ResidualStackOps reports the consolidated rule's remaining
	// encap/decap work (must be zero: full cancellation).
	ResidualStackOps int
}

// Format renders the extension experiment.
func (r *VPNXResult) Format() string {
	t := &tableWriter{}
	t.title("Extension: VPN tunnel segment — encap/decap stack elimination (§V-B)")
	t.row("platform", "orig cycles", "SBox cycles", "change", "orig lat (µs)", "SBox lat (µs)")
	for _, row := range r.Rows {
		t.row(row.Platform,
			f1(row.OriginalWork), f1(row.SBoxWork), pct(row.OriginalWork, row.SBoxWork),
			f3(row.OriginalLat), f3(row.SBoxLat))
	}
	t.row("residual stack ops in consolidated rules:", f1(float64(r.ResidualStackOps)), "", "", "", "")
	return t.String()
}

// CrossoverPoint is one chain length's original-vs-SpeedyBox
// comparison on the subsequent-packet work metric.
type CrossoverPoint struct {
	ChainLen    int
	OriginalSub float64
	SBoxSub     float64
}

// Wins reports whether SpeedyBox is cheaper at this length.
func (p CrossoverPoint) Wins() bool { return p.SBoxSub < p.OriginalSub }

// CrossoverResult is an extension experiment: Figure 4 shows SpeedyBox
// *losing* at one header action and winning at two; this sweep locates
// the break-even chain length, where the fixed fast-path machinery cost
// (FID hash, metadata, Event Table probe, Global MAT lookup) is repaid —
// the trade-off the paper concedes in §VII-A1.
type CrossoverResult struct {
	Points []CrossoverPoint
	// BreakEvenLen is the smallest chain length where SpeedyBox wins.
	BreakEvenLen int
}

// Format renders the sweep.
func (r *CrossoverResult) Format() string {
	t := &tableWriter{}
	t.title("Extension: consolidation crossover — break-even chain length (BESS, subsequent-packet cycles)")
	t.row("len", "original", "SBox", "winner")
	for _, p := range r.Points {
		winner := "original"
		if p.Wins() {
			winner = "SBox"
		}
		t.row(fmt.Sprintf("%d", p.ChainLen), f1(p.OriginalSub), f1(p.SBoxSub), winner)
	}
	t.row("break-even length:", fmt.Sprintf("%d", r.BreakEvenLen), "", "")
	return t.String()
}
