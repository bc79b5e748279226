// Package harness implements the evaluation harness: one experiment
// driver per table and figure of the paper's §VII, each regenerating
// the corresponding rows or series from synthetic traces on the BESS
// and OpenNetVM platform models.
//
// Absolute numbers come from the calibrated cycle model
// (internal/cost) and are not expected to equal the paper's testbed
// measurements; the harness reproduces the *shapes* — who wins, by
// what factor, where crossovers fall. EXPERIMENTS.md records
// paper-versus-measured for every experiment.
package harness

import (
	"fmt"
	"strings"

	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/nf/ipfilter"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/stats"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
)

// Config is the common experiment configuration.
type Config struct {
	// Seed drives trace generation; equal seeds reproduce results
	// exactly.
	Seed int64
	// Flows is the trace size in flows; experiments pick sane
	// defaults when zero.
	Flows int
	// Telemetry, when non-nil, is attached to every engine the
	// experiments build, so a single admin endpoint observes the whole
	// sweep (the metric registry is idempotent across engines; scrape
	// callbacks reflect the most recently built one).
	Telemetry *telemetry.Hub
	// Batch is the vector size every variant's packets are fed through
	// the platform's ProcessBatch in; 0 or 1 is a vector of one.
	Batch int
}

// options attaches the harness-wide telemetry hub (if any) to one
// variant's engine options.
func (c Config) options(base core.Options) core.Options {
	base.Telemetry = c.Telemetry
	return base
}

func (c Config) withDefaults(defaultFlows int) Config {
	if c.Flows == 0 {
		c.Flows = defaultFlows
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Partitioned separates a run's measurements into the packet classes
// the paper reports on: initial packets (first data packet of each
// flow) versus subsequent packets.
type Partitioned struct {
	InitWork []float64 // cycles
	SubWork  []float64
	InitLat  []float64 // cycles
	SubLat   []float64
	SubBott  []float64 // bottleneck cycles (throughput)
	// PerNFSub accumulates per-NF slow-path work of subsequent
	// packets (Table III's per-NF columns); only populated on the
	// baseline where subsequent packets traverse the chain.
	PerNFSub map[string][]float64
	// FlowCycles is each flow's total processing latency.
	FlowCycles map[flow.FID]uint64
	Drops      int
	Packets    int
	Stats      core.Stats
	model      *cost.Model
}

// runPartitioned feeds the packets through the platform in
// batch-packet vectors (batch <= 1 is a vector of one) and partitions
// per-packet measurements. Handshake and FIN packets are excluded from
// the init/sub buckets (the paper's microbenchmarks measure data
// packets) but still contribute to flow processing time.
func runPartitioned(p platform.Platform, pkts []*packet.Packet, batch int) (*Partitioned, error) {
	out := &Partitioned{
		PerNFSub:   make(map[string][]float64),
		FlowCycles: make(map[flow.FID]uint64),
		model:      p.Model(),
	}
	seen := make(map[flow.FID]bool)
	fold := func(m *platform.Measurement) {
		out.Packets++
		res := m.Result
		if res.Verdict == core.VerdictDrop {
			out.Drops++
		}
		out.FlowCycles[res.FID] += m.LatencyCycles

		switch res.Kind {
		case classifier.KindHandshake, classifier.KindFinal:
			return
		}
		if !seen[res.FID] {
			seen[res.FID] = true
			out.InitWork = append(out.InitWork, float64(m.WorkCycles))
			out.InitLat = append(out.InitLat, float64(m.LatencyCycles))
			return
		}
		out.SubWork = append(out.SubWork, float64(m.WorkCycles))
		out.SubLat = append(out.SubLat, float64(m.LatencyCycles))
		out.SubBott = append(out.SubBott, float64(m.BottleneckCycles))
		if res.Slow != nil {
			for _, s := range res.Slow.PerNF {
				out.PerNFSub[s.Name] = append(out.PerNFSub[s.Name], float64(s.Cycles))
			}
		}
	}
	batch = max(batch, 1)
	b := platform.NewBatch(batch)
	err := platform.Drain(pkts, batch, nil,
		func(_ int, run []*packet.Packet) ([]platform.Measurement, error) { return p.ProcessBatch(run, b) },
		func(_ int, ms []platform.Measurement) error {
			for i := range ms {
				fold(&ms[i])
			}
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", p.Name(), err)
	}
	out.Stats = p.Engine().Stats()
	return out, nil
}

// MeanSubWork returns the mean subsequent-packet work cycles.
func (p *Partitioned) MeanSubWork() float64 { return mean(p.SubWork) }

// MeanInitWork returns the mean initial-packet work cycles.
func (p *Partitioned) MeanInitWork() float64 { return mean(p.InitWork) }

// MeanSubLatencyMicros returns the mean subsequent-packet latency.
func (p *Partitioned) MeanSubLatencyMicros() float64 {
	return p.model.CyclesToMicros(1) * mean(p.SubLat)
}

// SubRateMpps returns the steady-state processing rate implied by the
// mean subsequent-packet bottleneck occupancy.
func (p *Partitioned) SubRateMpps() float64 {
	return p.model.RateMpps(mean(p.SubBott))
}

// FlowTimesMicros returns per-flow processing times in µs.
func (p *Partitioned) FlowTimesMicros() []float64 {
	out := make([]float64, 0, len(p.FlowCycles))
	for _, c := range p.FlowCycles {
		out = append(out, p.model.CyclesToMicros(c))
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// filterChain builds n IPFilter NFs with all-forward ACLs ("The ACL
// rules of the IPFilters are carefully modified to avoid packet
// drops", §VII-B2), each with a 100-rule blacklist to scan on new
// flows.
func filterChain(n int) ([]core.NF, error) {
	chain := make([]core.NF, n)
	for i := 0; i < n; i++ {
		f, err := ipfilter.New(ipfilter.Config{
			Name:  fmt.Sprintf("ipfilter%d", i+1),
			Rules: ipfilter.PadRules(nil, 100),
		})
		if err != nil {
			return nil, err
		}
		chain[i] = f
	}
	return chain, nil
}

// pct formats a reduction percentage.
func pct(orig, improved float64) string {
	return fmt.Sprintf("%+.1f%%", -stats.ReductionPercent(orig, improved))
}

// tableWriter accumulates aligned text tables for experiment output.
type tableWriter struct {
	sb   strings.Builder
	rows [][]string
}

func (t *tableWriter) title(s string) { fmt.Fprintf(&t.sb, "%s\n", s) }

func (t *tableWriter) row(cells ...string) { t.rows = append(t.rows, cells) }

func (t *tableWriter) String() string {
	widths := map[int]int{}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, r := range t.rows {
		for i, c := range r {
			fmt.Fprintf(&t.sb, "%-*s  ", widths[i], c)
		}
		t.sb.WriteString("\n")
	}
	return t.sb.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
