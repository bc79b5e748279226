// Package harness implements the evaluation harness: the paper's §VII
// tables and figures are rows of one experiment table (table.go), each
// regenerating its rows or series from a synthetic trace on the BESS and
// OpenNetVM platform models.
//
// Absolute numbers come from the calibrated cycle model
// (internal/cost) and are not expected to equal the paper's testbed
// measurements; the harness reproduces the *shapes* — who wins, by
// what factor, where crossovers fall. EXPERIMENTS.md records
// paper-versus-measured for every experiment.
package harness

import (
	"fmt"
	"slices"
	"strings"

	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/flow"
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

// options attaches the telemetry hub, if any, to a variant's options.
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
	SubLat   []float64 // cycles
	SubBott  []float64 // bottleneck cycles (throughput)
	// PerNFSub accumulates per-NF slow-path work of subsequent
	// packets (Table III's per-NF columns); only populated on the
	// baseline where subsequent packets traverse the chain.
	PerNFSub map[string][]float64
	// FlowCycles is each flow's total processing latency.
	FlowCycles map[flow.FID]uint64
	Stats      core.Stats
	model      *cost.Model
}

// runPartitioned feeds the packets through the platform in
// batch-packet vectors (batch <= 1 is a vector of one) and partitions
// per-packet measurements. Handshake and FIN packets are excluded from
// the init/sub buckets (the paper's microbenchmarks measure data
// packets) but still contribute to flow processing time.
func runPartitioned(p *platform.Platform, pkts []*packet.Packet, batch int) (*Partitioned, error) {
	out := &Partitioned{
		PerNFSub:   make(map[string][]float64),
		FlowCycles: make(map[flow.FID]uint64),
		model:      p.Model(),
	}
	seen := make(map[flow.FID]bool)
	batch = max(batch, 1)
	b := platform.NewBatch(batch)
	err := platform.Drain(pkts, batch, nil,
		func(_ int, run []*packet.Packet) ([]platform.Measurement, error) { return p.ProcessBatch(run, b) },
		func(_ int, ms []platform.Measurement) error {
			for _, m := range ms {
				res := m.Result
				out.FlowCycles[res.FID] += m.LatencyCycles
				switch {
				case res.Kind == classifier.KindHandshake || res.Kind == classifier.KindFinal:
				case !seen[res.FID]:
					seen[res.FID] = true
					out.InitWork = append(out.InitWork, float64(m.WorkCycles))
				default:
					out.SubWork = append(out.SubWork, float64(m.WorkCycles))
					out.SubLat = append(out.SubLat, float64(m.LatencyCycles))
					out.SubBott = append(out.SubBott, float64(m.BottleneckCycles))
					if res.Path == core.PathSlow {
						for _, s := range res.Slow.PerNF {
							out.PerNFSub[s.Name] = append(out.PerNFSub[s.Name], float64(s.Cycles))
						}
					}
				}
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

// FlowTimesMicros returns per-flow processing times in µs, ascending.
func (p *Partitioned) FlowTimesMicros() []float64 {
	out := make([]float64, 0, len(p.FlowCycles))
	for _, c := range p.FlowCycles {
		out = append(out, p.model.CyclesToMicros(c))
	}
	slices.Sort(out)
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

// passFail renders an acceptance bar's outcome.
func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// counts renders integer cells.
func counts(vs ...any) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprint(v)
	}
	return out
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
