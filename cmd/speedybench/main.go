// Command speedybench regenerates the tables and figures of the
// SpeedyBox paper's evaluation (§VII) on the simulated BESS and
// OpenNetVM platforms.
//
// Usage:
//
//	speedybench [-exp all|fig4|table3|fig5|fig6|fig7|fig8|fig9a|fig9b|equiv|vpnx|crossover|mq|oracle|reconfig|restart] [-seed N] [-flows N] [-batch N] [-json]
//
// The oracle experiment runs the differential fast/slow-path
// equivalence oracle under randomized fault schedules
// (-oracle-schedules, default 200) and exits nonzero on any
// divergence, so CI can enforce it; -oracle-reconfigs additionally
// applies that many live chain reconfigurations per schedule, to both
// engines at the same packet indices, and -oracle-crashes kills and
// restores the fast engine from checkpoint+WAL at that many seeded
// packet indices per schedule; -oracle-topo and -oracle-cluster pick
// the system under test (a three-chain topology, a scaling fleet) and
// do not compose: asking for both is an error. The reconfig experiment
// inserts a gateway NF mid-trace and exits nonzero unless the run drops
// nothing and the fast-path hit rate recovers to >=90% of its
// pre-change baseline; the restart experiment kills the whole engine
// mid-trace and holds the restored replacement to the same 90% bar
// against a cold-start control.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/fastpathnfv/speedybox/internal/harness"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "speedybench: %v\n", err)
		os.Exit(1)
	}
}

// formatter is the common surface of every experiment result.
type formatter interface{ Format() string }

// experiments enumerates the runnable experiments in paper order.
func experiments(cfg harness.Config, oracleSchedules, oracleReconfigs, oracleCrashes int, oracleTopo, oracleCluster bool) []struct {
	name string
	run  func() (formatter, error)
} {
	return []struct {
		name string
		run  func() (formatter, error)
	}{
		{"fig4", func() (formatter, error) { return harness.RunFig4(cfg) }},
		{"table3", func() (formatter, error) { return harness.RunTable3(cfg) }},
		{"fig5", func() (formatter, error) { return harness.RunFig5(cfg) }},
		{"fig6", func() (formatter, error) { return harness.RunFig6(cfg) }},
		{"fig7", func() (formatter, error) { return harness.RunFig7(cfg) }},
		{"fig8", func() (formatter, error) { return harness.RunFig8(cfg) }},
		{"fig9a", func() (formatter, error) { return harness.RunFig9(cfg, 1) }},
		{"fig9b", func() (formatter, error) { return harness.RunFig9(cfg, 2) }},
		{"equiv", func() (formatter, error) { return harness.RunEquivalence(cfg) }},
		{"vpnx", func() (formatter, error) { return harness.RunVPNX(cfg) }},
		{"crossover", func() (formatter, error) { return harness.RunCrossover(cfg) }},
		{"mq", func() (formatter, error) { return harness.RunMultiQueue(cfg) }},
		{"oracle", func() (formatter, error) {
			res, err := harness.RunOracle(harness.OracleConfig{
				Seed: cfg.Seed, Schedules: oracleSchedules, Flows: cfg.Flows,
				Batch: cfg.Batch, Reconfigs: oracleReconfigs, Crashes: oracleCrashes,
				Topo: oracleTopo, Cluster: oracleCluster,
			})
			if err != nil {
				return nil, err
			}
			if !res.Passed() {
				return nil, fmt.Errorf("equivalence oracle FAILED:\n%s", res.Format())
			}
			return res, nil
		}},
		{"reconfig", func() (formatter, error) {
			res, err := harness.RunReconfig(cfg)
			if err != nil {
				return nil, err
			}
			if !res.Passed() {
				return nil, fmt.Errorf("reconfiguration experiment FAILED:\n%s", res.Format())
			}
			return res, nil
		}},
		{"restart", func() (formatter, error) {
			res, err := harness.RunRestart(cfg)
			if err != nil {
				return nil, err
			}
			if !res.Passed() {
				return nil, fmt.Errorf("restart experiment FAILED:\n%s", res.Format())
			}
			return res, nil
		}},
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("speedybench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to run: all, fig4, table3, fig5, fig6, fig7, fig8, fig9a, fig9b, equiv, vpnx, crossover, mq, oracle, reconfig, restart")
	oracleSchedules := fs.Int("oracle-schedules", 200, "fault schedules for -exp oracle")
	oracleReconfigs := fs.Int("oracle-reconfigs", 0, "live chain reconfigurations per oracle schedule (0 = none)")
	oracleCrashes := fs.Int("oracle-crashes", 0, "engine kill/restore cycles per oracle schedule (0 = none, capped at 4)")
	oracleTopo := fs.Bool("oracle-topo", false, "run the multi-chain topology oracle (three chains, three tenants, shared NFs) instead of the single-chain one")
	oracleCluster := fs.Bool("oracle-cluster", false, "run the cluster oracle: an engine fleet scaling 1→2→4→3 mid-trace with live flow migration, against a static single-engine reference")
	seed := fs.Int64("seed", 1, "trace generation seed")
	flows := fs.Int("flows", 0, "trace size in flows (0 = experiment default)")
	batch := fs.Int("batch", 0, "process packets in vectors of this size (0 or 1 = one packet per vector); for -exp oracle it is the fast engine's vector size, the reference always runs per packet")
	asJSON := fs.Bool("json", false, "emit results as JSON instead of tables")
	cdf := fs.Bool("cdf", false, "for fig9a/fig9b: print the full CDF series (plot data) instead of summaries")
	telemetryAddr := fs.String("telemetry-addr", "", "serve /metrics, /statusz and /debug/pprof on this address (e.g. :8080)")
	telemetryLinger := fs.Duration("telemetry-linger", 0, "keep the telemetry endpoint up this long after the run, for scraping")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write an end-of-run heap profile to this file (go tool pprof)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "speedybench: memprofile: %v\n", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows retained objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "speedybench: memprofile: %v\n", err)
			}
			_ = f.Close()
		}()
	}
	cfg := harness.Config{Seed: *seed, Flows: *flows, Batch: *batch}
	if *telemetryAddr != "" {
		cfg.Telemetry = telemetry.NewHub()
		srv, err := telemetry.NewServer(*telemetryAddr, cfg.Telemetry)
		if err != nil {
			return err
		}
		defer func() { _ = srv.Close() }()
		fmt.Fprintf(out, "telemetry: %s/metrics  %s/statusz\n", srv.URL(), srv.URL())
		if *telemetryLinger > 0 {
			defer func() {
				fmt.Fprintf(out, "telemetry: lingering %v for scrapes (ctrl-C to stop)\n", *telemetryLinger)
				time.Sleep(*telemetryLinger)
			}()
		}
	}

	jsonOut := make(map[string]any)
	ran := false
	for _, e := range experiments(cfg, *oracleSchedules, *oracleReconfigs, *oracleCrashes, *oracleTopo, *oracleCluster) {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		res, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		switch {
		case *asJSON:
			jsonOut[e.name] = res
		case *cdf:
			if f9, ok := res.(*harness.Fig9Result); ok {
				fmt.Fprintln(out, f9.FormatCDF())
				break
			}
			fmt.Fprintln(out, res.Format())
		default:
			fmt.Fprintln(out, res.Format())
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(jsonOut)
	}
	return nil
}
