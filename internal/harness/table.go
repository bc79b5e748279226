package harness

import (
	"fmt"
	"math"
	"sort"

	"github.com/fastpathnfv/speedybox/internal/bess"
	"github.com/fastpathnfv/speedybox/internal/chainspec"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/nf/synthetic"
	"github.com/fastpathnfv/speedybox/internal/onvm"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/server"
	"github.com/fastpathnfv/speedybox/internal/stats"
	"github.com/fastpathnfv/speedybox/internal/trace"
)

// experiment is one row of the experiment table, a paired figure of §VII
// as data. Its sweep (run) runs every variant on every (platform, chain)
// point — platforms outermost, then chain lengths, then variants — each
// on a fresh chain, platform and copy of one trace, and hands each point
// to collect, which adds it to the figure's result R.
type experiment[R any] struct {
	// flows is the trace size when Config.Flows is zero; Config also
	// supplies the trace's Seed.
	flows int
	trace trace.Config
	// platforms run in order. lengths > 0 sweeps chains of 1..lengths NFs,
	// each platform stopping at its own limit; 0 runs one fixed chain.
	platforms []platformModel
	lengths   int
	chain     func(n int) ([]core.NF, error)
	// variants are the engine options each point runs under, in order,
	// each with Config's telemetry hub attached.
	variants []core.Options
	collect  func(res *R, pt point)
}

// point is one (platform, chain length) cell of a sweep once every
// variant has run on it, in the row's variant order; the platforms stay
// open until collect returns.
type point struct {
	platform string
	n        int
	runs     []*Partitioned
	plats    []*platform.Platform
}

// platformModel is one execution platform of the evaluation; maxLen is
// the longest chain it runs.
type platformModel struct {
	name   string
	maxLen int
	build  func(chain []core.NF, opts core.Options) (*platform.Platform, error)
}

var (
	// BESS runs every NF in one process, so any chain length.
	bessModel = platformModel{name: "BESS", maxLen: math.MaxInt,
		build: func(chain []core.NF, opts core.Options) (*platform.Platform, error) {
			return bess.New(bess.Config{Chain: chain, Options: opts})
		}}
	// OpenNetVM gives every NF its own core, so its chains stop at the
	// testbed's core budget (§VII-B2).
	onvmModel = platformModel{name: "OpenNetVM",
		maxLen: onvm.MaxChainLen(cost.DefaultModel().ONVMCoreBudget),
		build: func(chain []core.NF, opts core.Options) (*platform.Platform, error) {
			return onvm.New(onvm.Config{Chain: chain, Options: opts})
		}}
	bothPlatforms = []platformModel{bessModel, onvmModel}
	// paired is every row's baseline/SpeedyBox pair.
	paired = []core.Options{core.BaselineOptions(), core.DefaultOptions()}
)

// run executes the sweep.
func (e *experiment[R]) run(cfg Config) (*R, error) {
	cfg = cfg.withDefaults(e.flows)
	tc := e.trace
	tc.Seed, tc.Flows = cfg.Seed, cfg.Flows
	tr, err := trace.Generate(tc)
	if err != nil {
		return nil, err
	}
	res := new(R)
	for _, m := range e.platforms {
		// n is 1..lengths up to the platform's limit, or 0 once.
		for n := min(e.lengths, 1); n <= min(e.lengths, m.maxLen); n++ {
			if err := e.runPoint(cfg, tr, m, n, res); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// runPoint runs every variant on one point and collects it before
// closing its platforms.
func (e *experiment[R]) runPoint(cfg Config, tr *trace.Trace, m platformModel, n int, res *R) error {
	pt := point{platform: m.name, n: n}
	defer func() {
		for _, p := range pt.plats {
			_ = p.Close()
		}
	}()
	for _, opts := range e.variants {
		chain, err := e.chain(n)
		if err != nil {
			return err
		}
		p, err := m.build(chain, cfg.options(opts))
		if err != nil {
			return err
		}
		pt.plats = append(pt.plats, p)
		part, err := runPartitioned(p, tr.Packets(), cfg.Batch)
		if err != nil {
			return err
		}
		pt.runs = append(pt.runs, part)
	}
	e.collect(res, pt)
	return nil
}

// Every chain of more than one NF the harness runs, but Figure 5's, is a
// chainspec document, as an operator writes one. chainspec names an
// unnamed NF by its type and position (ipfilter1, …) and pads an
// IPFilter's ACL to 100 never-matching rules.
var (
	// chain1 is the paper's first real-world chain (§VII-B3, from the
	// motivation example §II-A) and the daemon's boot chain: MazuNAT ->
	// Maglev -> Monitor -> IPFilter.
	chain1 = mustParse(server.DefaultSpecJSON)
	// chain2 is the paper's second real-world chain (§VII-B3).
	chain2 = &chainspec.Spec{NFs: []chainspec.NFSpec{
		{Type: "ipfilter", Name: "ipfilter"},
		{Type: "snort", Name: "snort"},
		{Type: "monitor", Name: "monitor"},
	}}
	// dropChain is Table III's: NF1 and NF2 forward all flows, NF3 drops
	// them.
	dropChain = &chainspec.Spec{NFs: []chainspec.NFSpec{
		{Type: "ipfilter"}, {Type: "ipfilter"}, {Type: "ipfilter", DefaultDeny: true},
	}}
	// snortMonitorChain is Figures 6 and 7's: both NFs have header actions
	// and state functions, so both optimizations apply at once (§VII-B1).
	snortMonitorChain = &chainspec.Spec{NFs: []chainspec.NFSpec{
		{Type: "snort", Name: "snort"},
		{Type: "monitor", Name: "monitor"},
	}}
	// vpnChain is a VPN tunnel segment whose encap/decap pair cancels in
	// consolidation (§V-B).
	vpnChain = &chainspec.Spec{NFs: []chainspec.NFSpec{
		{Type: "vpn-encap", Name: "vpn-in"},
		{Type: "snort", Name: "snort"},
		{Type: "monitor", Name: "monitor"},
		{Type: "vpn-decap", Name: "vpn-out"},
	}}
	// statelessChain is a pure header-transform chain: no NF registers
	// per-flow state functions, so every consolidated rule is a batch-free
	// header program. The cluster oracle cycles it in beside the paper's
	// two chains, whose rules travel with state-function and guard
	// references, so migration of both kinds is exercised (and
	// tamperable).
	statelessChain = &chainspec.Spec{NFs: []chainspec.NFSpec{
		{Type: "ipfilter", Name: "ipfilter", ACLSize: 100},
		{Type: "gateway", Name: "gateway", NextHopMAC: "02:00:00:00:00:fe"},
	}}
	// filtersChain is the benchmark's hot and wide chain: three
	// forward-only filters, so every rule is plain and the fast path
	// serves each flow from its entry's summary.
	filtersChain = &chainspec.Spec{NFs: []chainspec.NFSpec{{Type: "ipfilter"}, {Type: "ipfilter"}, {Type: "ipfilter"}}}
	// catalogChain runs the catalog NFs no paper chain holds: an
	// encap/decap pair that cancels in consolidation around a
	// payload-reading NF, the cross-flow shared-state limiter (§IV-A2; its
	// quota trips inside a 24-flow trace), the per-flow SYN counter, and a
	// monitor behind them all, which must count exactly the packets the
	// two droppers let through.
	catalogChain = &chainspec.Spec{NFs: []chainspec.NFSpec{
		{Type: "vpn-encap"},
		{Type: "synthetic", Cycles: 300},
		{Type: "vpn-decap"},
		{Type: "ratelimiter", Quota: 40},
		{Type: "dos"},
		{Type: "monitor"},
	}}
)

func mustParse(doc string) *chainspec.Spec {
	s, err := chainspec.Parse([]byte(doc))
	if err != nil {
		panic(err)
	}
	return s
}

// fixed sweeps one chain.
func fixed(s *chainspec.Spec) func(int) ([]core.NF, error) {
	return func(int) ([]core.NF, error) { return s.Build() }
}

// filterChain is n IPFilters with all-forward ACLs ("The ACL rules of
// the IPFilters are carefully modified to avoid packet drops",
// §VII-B2), each with a 100-rule blacklist to scan on new flows.
func filterChain(n int) ([]core.NF, error) {
	s := &chainspec.Spec{NFs: make([]chainspec.NFSpec, n)}
	for i := range s.NFs {
		s.NFs[i].Type = "ipfilter"
	}
	return s.Build()
}

// synthSFCycles is the modeled cost of one synthetic state function,
// Snort-inspection-equivalent (§VII-A2) for a full-sized payload.
const synthSFCycles = 1200

// synthChain is Figure 5's chain of n identical synthetic NFs whose
// read-class state functions can run in parallel (Table I). It stays Go
// because chainspec has no payload-touching synthetic NF.
func synthChain(n int) ([]core.NF, error) {
	chain := make([]core.NF, n)
	for i := range chain {
		nf, err := synthetic.New(synthetic.Config{
			Name: fmt.Sprintf("synth%d", i+1), Cycles: synthSFCycles, TouchPayload: true,
		})
		if err != nil {
			return nil, err
		}
		chain[i] = nf
	}
	return chain, nil
}

// Traces. pktgen is DPDK-pktgen-style 64B-class traffic (§VII-A):
// stateless streams, so a flow's first packet is its initial packet, as
// on the paper's testbed.
var (
	pktgen    = trace.Config{PayloadMin: 4, PayloadMax: 12, UDPFraction: 1.0, Interleave: true}
	fullSized = trace.Config{PayloadMin: 64, PayloadMax: 200, Interleave: true}
	snortMix  = trace.Config{PayloadMin: 64, PayloadMax: 200, AlertFraction: 0.05, LogFraction: 0.1, Interleave: true}
)

// The rows.
var (
	fig4 = experiment[Fig4Result]{flows: 60, trace: pktgen, platforms: bothPlatforms,
		lengths: 3, chain: filterChain, variants: paired,
		collect: func(res *Fig4Result, pt point) {
			orig, sbox := pt.runs[0], pt.runs[1]
			res.Rows = append(res.Rows, Fig4Row{Platform: pt.platform, NumHA: pt.n,
				OriginalInit: orig.MeanInitWork(), SBoxInit: sbox.MeanInitWork(),
				OriginalSub: orig.MeanSubWork(), SBoxSub: sbox.MeanSubWork()})
		}}

	table3 = experiment[Table3Result]{flows: 60, trace: pktgen, platforms: bothPlatforms,
		chain: fixed(dropChain), variants: paired,
		collect: func(res *Table3Result, pt point) {
			orig := pt.runs[0]
			row := Table3Row{Platform: pt.platform, SBoxAggregate: pt.runs[1].MeanSubWork()}
			names := make([]string, 0, len(orig.PerNFSub))
			for name := range orig.PerNFSub {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				m := mean(orig.PerNFSub[name])
				row.PerNF = append(row.PerNF, m)
				row.Aggregate += m
			}
			res.Rows = append(res.Rows, row)
		}}

	fig5 = experiment[Fig5Result]{flows: 60, trace: pktgen, platforms: bothPlatforms,
		lengths: 3, chain: synthChain, variants: paired,
		collect: func(res *Fig5Result, pt point) {
			for i, run := range pt.runs {
				res.Points = append(res.Points, Fig5Point{Platform: pt.platform, SBox: i == 1, NumSF: pt.n,
					RateMpps: run.SubRateMpps(), LatencyMicro: run.MeanSubLatencyMicros()})
			}
		}}

	fig6 = experiment[Fig6Result]{flows: 80, trace: snortMix, platforms: bothPlatforms,
		chain: fixed(snortMonitorChain), variants: paired,
		collect: func(res *Fig6Result, pt point) {
			orig, sbox := pt.runs[0], pt.runs[1]
			res.Rows = append(res.Rows, Fig6Row{Platform: pt.platform,
				OriginalWork: orig.MeanSubWork(), SBoxWork: sbox.MeanSubWork(),
				OriginalMpps: orig.SubRateMpps(), SBoxMpps: sbox.SubRateMpps()})
		}}

	// fig7's last two variants are the ablations: header consolidation
	// only, and state-function parallelism only.
	fig7 = experiment[Fig7Result]{flows: 80, trace: fullSized, platforms: bothPlatforms,
		chain: fixed(snortMonitorChain),
		variants: []core.Options{core.BaselineOptions(), core.DefaultOptions(),
			{EnableSpeedyBox: true, ConsolidateHeaders: true},
			{EnableSpeedyBox: true, ParallelSF: true}},
		collect: func(res *Fig7Result, pt point) {
			lat := func(i int) float64 { return pt.runs[i].MeanSubLatencyMicros() }
			res.Rows = append(res.Rows, Fig7Row{Platform: pt.platform,
				OriginalMicros: lat(0), SBoxMicros: lat(1), HAOnlyMicros: lat(2), SFOnlyMicros: lat(3)})
		}}

	fig8 = experiment[Fig8Result]{flows: 60, trace: pktgen, platforms: bothPlatforms,
		lengths: 9, chain: filterChain, variants: paired,
		collect: func(res *Fig8Result, pt point) {
			res.ONVMMaxLen = onvmModel.maxLen
			for i, run := range pt.runs {
				res.Points = append(res.Points, Fig8Point{Platform: pt.platform, SBox: i == 1, ChainLen: pt.n,
					LatencyMicro: run.MeanSubLatencyMicros(), RateMpps: run.SubRateMpps()})
			}
		}}

	// fig9 is indexed by the paper's chain number less one.
	fig9 = [...]experiment[Fig9Result]{
		fig9Row("Chain 1 (MazuNAT+Maglev+Monitor+IPFilter)", chain1),
		fig9Row("Chain 2 (IPFilter+Snort+Monitor)", chain2),
	}

	vpnx = experiment[VPNXResult]{flows: 60, trace: fullSized, platforms: bothPlatforms,
		chain: fixed(vpnChain), variants: paired,
		collect: func(res *VPNXResult, pt point) {
			orig, sbox := pt.runs[0], pt.runs[1]
			if pt.platform == bessModel.name {
				res.ResidualStackOps = maxResidualStackOps(pt.plats[1].Engine())
			}
			res.Rows = append(res.Rows, VPNXRow{Platform: pt.platform,
				OriginalWork: orig.MeanSubWork(), SBoxWork: sbox.MeanSubWork(),
				OriginalLat: orig.MeanSubLatencyMicros(), SBoxLat: sbox.MeanSubLatencyMicros()})
		}}

	crossover = experiment[CrossoverResult]{flows: 60, trace: pktgen, platforms: []platformModel{bessModel},
		lengths: 6, chain: filterChain, variants: paired,
		collect: func(res *CrossoverResult, pt point) {
			p := CrossoverPoint{ChainLen: pt.n, OriginalSub: pt.runs[0].MeanSubWork(), SBoxSub: pt.runs[1].MeanSubWork()}
			if p.Wins() && res.BreakEvenLen == 0 {
				res.BreakEvenLen = pt.n
			}
			res.Points = append(res.Points, p)
		}}
)

// maxResidualStackOps is the most encap/decap work left in any of the
// engine's consolidated rules.
func maxResidualStackOps(eng *core.Engine) int {
	worst := 0
	eng.Global().ForEach(func(rule *mat.GlobalRule) {
		_, decaps, encaps := rule.HeaderWork()
		worst = max(worst, decaps+encaps)
	})
	return worst
}

func fig9Row(name string, chain *chainspec.Spec) experiment[Fig9Result] {
	series := func(variant string, run *Partitioned) Fig9Series {
		ft := run.FlowTimesMicros()
		return Fig9Series{Variant: variant, FlowTimes: ft, P50: stats.Percentile(ft, 50)}
	}
	return experiment[Fig9Result]{flows: 150, platforms: bothPlatforms,
		trace: trace.Config{PayloadMin: 64, PayloadMax: 256, AlertFraction: 0.05, LogFraction: 0.1, Interleave: true},
		chain: fixed(chain), variants: paired,
		collect: func(res *Fig9Result, pt point) {
			res.Rows = append(res.Rows, Fig9Row{Chain: name, Platform: pt.platform,
				Original: series(pt.platform, pt.runs[0]), SBox: series(pt.platform+" w/ SBox", pt.runs[1])})
		}}
}

// RunFig4 reproduces Figure 4.
func RunFig4(cfg Config) (*Fig4Result, error) { return fig4.run(cfg) }

// RunTable3 reproduces Table III.
func RunTable3(cfg Config) (*Table3Result, error) { return table3.run(cfg) }

// RunFig5 reproduces Figure 5.
func RunFig5(cfg Config) (*Fig5Result, error) { return fig5.run(cfg) }

// RunFig6 reproduces Figure 6.
func RunFig6(cfg Config) (*Fig6Result, error) { return fig6.run(cfg) }

// RunFig7 reproduces Figure 7.
func RunFig7(cfg Config) (*Fig7Result, error) { return fig7.run(cfg) }

// RunFig8 reproduces Figure 8.
func RunFig8(cfg Config) (*Fig8Result, error) { return fig8.run(cfg) }

// RunFig9 reproduces one panel of Figure 9; chain is 1 or 2.
func RunFig9(cfg Config, chain int) (*Fig9Result, error) {
	if chain < 1 || chain > len(fig9) {
		return nil, fmt.Errorf("harness: unknown chain %d", chain)
	}
	return fig9[chain-1].run(cfg)
}

// RunVPNX runs the VPN-tunnel extension experiment.
func RunVPNX(cfg Config) (*VPNXResult, error) { return vpnx.run(cfg) }

// RunCrossover runs the consolidation-crossover extension sweep.
func RunCrossover(cfg Config) (*CrossoverResult, error) { return crossover.run(cfg) }
