// Command chainsim runs an arbitrary service chain over a synthetic
// (or pcap) trace on either platform model and reports processing
// rate, latency and flow-time percentiles, with and without SpeedyBox.
//
// Usage:
//
//	chainsim -chain nat,maglev,monitor,ipfilter -platform bess
//	chainsim -chain ipfilter,snort,monitor -platform onvm -flows 300
//	chainsim -chain vpn-encap,monitor,vpn-decap -compare=false -sbox
//	chainsim -chain snort,monitor -pcap trace.pcap
//	chainsim -chain nat,monitor -instances 4 -workers 8 -batch 32
//	chainsim -config testdata/chain.json
//	chainsim -chain nat,monitor -fault-rate 0.1 -fault-seed 7
//	chainsim -topo examples/multitenant/topo.json -synflood 400
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	speedybox "github.com/fastpathnfv/speedybox"
	"github.com/fastpathnfv/speedybox/internal/chainspec"
	"github.com/fastpathnfv/speedybox/internal/stats"
	"github.com/fastpathnfv/speedybox/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "chainsim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("chainsim", flag.ContinueOnError)
	chainNames := fs.String("chain", "ipfilter,snort,monitor", "comma-separated NFs, each a shorthand for one chainspec entry: nat, maglev, monitor, ipfilter, ipfilter-deny, snort, vpn-encap, vpn-decap, dos, gateway, ratelimiter, synthetic")
	platformName := fs.String("platform", "bess", "platform model: bess or onvm")
	compare := fs.Bool("compare", true, "run both baseline and SpeedyBox and compare")
	sbox := fs.Bool("sbox", true, "enable SpeedyBox (when -compare=false)")
	seed := fs.Int64("seed", 1, "trace seed")
	flows := fs.Int("flows", 200, "trace size in flows")
	workers := fs.Int("workers", 1, "RSS worker queues: >1 hash-partitions flows across concurrent workers")
	batch := fs.Int("batch", 0, "process packets in vectors of this size (0 or 1 = one packet per vector); composes with -workers")
	instances := fs.Int("instances", 1, "engine instances behind the consistent-hash flow steerer: >1 runs a static cluster (bess only) and reports per-instance stats")
	pcapPath := fs.String("pcap", "", "replay this pcap instead of generating a trace")
	dumpRules := fs.Bool("dump-rules", false, "print the consolidated Global MAT rules after the SpeedyBox run")
	snortRules := fs.String("snort-rules", "", "load Snort rules for snort NFs from this file (Snort rule syntax)")
	faultRate := fs.Float64("fault-rate", 0, "inject control-plane faults into the SpeedyBox variant at this per-decision rate (0 disables; packets are never dropped, only degraded to the slow path)")
	faultSeed := fs.Int64("fault-seed", 1, "fault-injection seed (with -fault-rate); equal seeds replay the identical fault schedule")
	configPath := fs.String("config", "", "build the chain from this JSON chain-spec file (overrides -chain and -platform)")
	topoPath := fs.String("topo", "", "run a multi-chain topology from this JSON topology-spec file (overrides -chain/-config/-platform; see internal/topo for the format)")
	synFlood := fs.Int("synflood", 0, "append this many handshake-only SYN-flood flows clustered mid-trace (adversarial trace model)")
	eventStorm := fs.Float64("eventstorm", 0, "fraction of flows whose every data packet carries the IDS alert signature (adversarial trace model)")
	telemetryAddr := fs.String("telemetry-addr", "", "serve /metrics, /statusz and /debug/pprof on this address (e.g. :8080)")
	telemetryLinger := fs.Duration("telemetry-linger", 0, "keep the telemetry endpoint up this long after the run, for scraping")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, c := range []struct {
		flag     string
		val, min int
	}{{"workers", *workers, 1}, {"instances", *instances, 1}, {"flows", *flows, 0}, {"batch", *batch, 0}} {
		if c.val < c.min {
			return fmt.Errorf("-%s must be >= %d (got %d)", c.flag, c.min, c.val)
		}
	}

	// Each variant builds its own fleet (a topology, a cluster or a
	// platform) and runs its own copy of the trace: a topology runs one
	// variant, a chain the baseline beside SpeedyBox when comparing.
	variants := []bool{*sbox}
	var (
		build func(opts speedybox.Options, hub *speedybox.Telemetry) (*fleet, error)
		pkts  []*speedybox.Packet
	)
	if *topoPath != "" {
		data, err := os.ReadFile(*topoPath)
		if err != nil {
			return err
		}
		spec, err := speedybox.ParseTopology(data)
		if err != nil {
			return err
		}
		if pkts, err = topoTrace(spec, *seed, *flows, *synFlood, *eventStorm); err != nil {
			return err
		}
		build = func(opts speedybox.Options, hub *speedybox.Telemetry) (*fleet, error) {
			return topoFleet(spec, opts, hub)
		}
	} else {
		spec, err := chainSpec(*configPath, *chainNames, *snortRules)
		if err != nil {
			return err
		}
		if spec.Platform != "" {
			*platformName = spec.Platform
		}
		if *instances > 1 && *platformName != "bess" {
			return fmt.Errorf("-instances > 1 requires -platform bess (got %q)", *platformName)
		}
		pkts, err = packetSource(*pcapPath, *seed, *flows, *synFlood, *eventStorm)
		if err != nil {
			return err
		}
		if *compare {
			variants = []bool{false, true}
		}
		build = func(opts speedybox.Options, hub *speedybox.Telemetry) (*fleet, error) {
			return chainFleet(spec, *platformName, *instances, opts, hub)
		}
	}

	// One hub for the whole invocation, attached to the SpeedyBox
	// variant (or the only variant when not comparing); the registry is
	// idempotent, so repeated runs against one hub accumulate.
	var hub *speedybox.Telemetry
	if *telemetryAddr != "" {
		hub = speedybox.NewTelemetry()
		srv, err := speedybox.NewTelemetryServer(*telemetryAddr, hub)
		if err != nil {
			return err
		}
		defer func() { _ = srv.Close() }()
		fmt.Printf("telemetry: %s/metrics  %s/statusz\n", srv.URL(), srv.URL())
		if *telemetryLinger > 0 {
			defer func() {
				fmt.Printf("telemetry: lingering %v for scrapes (ctrl-C to stop)\n", *telemetryLinger)
				time.Sleep(*telemetryLinger)
			}()
		}
	}

	var results []*speedybox.RunResult
	for _, enabled := range variants {
		opts := speedybox.BaselineOptions()
		if enabled {
			opts = speedybox.DefaultOptions()
		}
		varHub := hub
		if !enabled && len(variants) > 1 {
			varHub = nil
		}
		// Faults target the SpeedyBox control plane; the baseline
		// variant has none to attack, so it runs clean as the
		// comparison anchor. Backend flaps are pool changes both
		// variants would see and are not simulated here (the
		// equivalence oracle in speedybench covers them).
		var inj *speedybox.FaultInjector
		if enabled && *faultRate > 0 {
			inj = speedybox.NewFaultInjector(speedybox.FaultConfig{
				Seed: *faultSeed, Rates: speedybox.UniformFaultRates(*faultRate),
			})
			opts.Faults = inj
		}
		f, err := build(opts, varHub)
		if err != nil {
			return err
		}
		copies := make([]*speedybox.Packet, len(pkts))
		for i, p := range pkts {
			copies[i] = p.Clone()
		}
		var res *speedybox.RunResult
		mq, err := speedybox.NewMultiQueue(f, *workers)
		if err == nil {
			mq.SetBatchSize(*batch)
			res, err = mq.Run(copies)
		}
		if err != nil {
			_ = f.Close()
			return err
		}
		if p, ok := f.Fleet.(*speedybox.Platform); ok && enabled && *dumpRules {
			fmt.Printf("\nGlobal MAT (%d rules):\n%s\n", p.Engine().Global().Len(), p.Engine().Global().Dump())
		}
		report(f, enabled, *workers, res)
		if f.rows != nil {
			f.rows()
		}
		if inj != nil {
			fmt.Printf("%-16s %s\n", "", inj.Summary())
			fmt.Printf("%-16s fallbacks=%d degraded=%d recoveries=%d\n", "",
				res.Stats.SlowPathFallbacks, res.Stats.DegradedPackets, res.Stats.FaultRecoveries)
		}
		if err := f.Close(); err != nil {
			return err
		}
		results = append(results, res)
	}
	if len(results) == 2 {
		fmt.Printf("\nSpeedyBox vs baseline: latency %+.1f%%  rate %+.1f%%  p50 flow time %+.1f%%\n",
			change(results[0].MeanLatencyMicros(), results[1].MeanLatencyMicros()),
			change(results[0].RateMpps(), results[1].RateMpps()),
			change(stats.Percentile(results[0].FlowTimesMicros(), 50),
				stats.Percentile(results[1].FlowTimesMicros(), 50)))
	}
	return nil
}

// fleet is one variant's platform, cluster or topology, and what
// chainsim prints about it beyond the lines every fleet reports.
type fleet struct {
	speedybox.Fleet
	io.Closer
	label  string // "bess", "bess x4", "topo edge-pop"
	counts string // leading fields of the packet line
	rows   func() // per-instance, per-chain and per-tenant rows, or nil
}

// aliases are the -chain names, each shorthand for one chainspec
// entry: a -chain run is built as a -config document would be.
var aliases = map[string]chainspec.NFSpec{
	"nat": {Type: "mazunat", InternalPrefix: "10.0.0.0/8", ExternalIP: "198.51.100.1"},
	"maglev": {Type: "maglev", Backends: []chainspec.BackendSpec{
		{Name: "a", IP: "192.168.1.10", Port: 8080},
		{Name: "b", IP: "192.168.1.11", Port: 8080},
		{Name: "c", IP: "192.168.1.12", Port: 8080},
	}},
	"monitor":       {Type: "monitor"},
	"ipfilter":      {Type: "ipfilter"},
	"ipfilter-deny": {Type: "ipfilter", DefaultDeny: true},
	"snort":         {Type: "snort"},
	"vpn-encap":     {Type: "vpn-encap"},
	"vpn-decap":     {Type: "vpn-decap"},
	"dos":           {Type: "dos", SYNThreshold: 100},
	"gateway": {Type: "gateway", NextHopMAC: "02:00:00:00:00:42",
		VoicePorts: []uint16{5060}, VideoPorts: []uint16{8801}},
	"ratelimiter": {Type: "ratelimiter", Quota: 1000},
	"synthetic":   {Type: "synthetic"},
}

// chainSpec returns the -config document, or the -chain names with
// the -snort-rules file's text for their snort entries.
func chainSpec(configPath, names, snortRulesPath string) (*chainspec.Spec, error) {
	if configPath != "" {
		data, err := os.ReadFile(configPath)
		if err != nil {
			return nil, err
		}
		return chainspec.Parse(data)
	}
	var rules string
	if snortRulesPath != "" {
		text, err := os.ReadFile(snortRulesPath)
		if err != nil {
			return nil, err
		}
		// The trailing newline keeps an empty file an empty rule set:
		// an empty "rules" field selects snort's default rules.
		rules = string(text) + "\n"
	}
	return chainOf(strings.Split(names, ","), rules)
}

// chainOf maps -chain names to chainspec entries, the i-th named
// <name><i+1>; a snort entry carries rules (empty: the defaults).
func chainOf(names []string, rules string) (*chainspec.Spec, error) {
	if len(names) == 0 {
		return nil, chainspec.ErrEmptyChain
	}
	spec := &chainspec.Spec{}
	for i, raw := range names {
		name := strings.TrimSpace(raw)
		nf, ok := aliases[name]
		if !ok {
			return nil, fmt.Errorf("unknown NF %q", name)
		}
		nf.Name = fmt.Sprintf("%s%d", name, i+1)
		if nf.Type == "snort" {
			nf.Rules = rules
		}
		spec.NFs = append(spec.NFs, nf)
	}
	return spec, nil
}

// chainFleet builds the chain afresh on the named platform, or on a
// cluster of that many bess engines.
func chainFleet(spec *chainspec.Spec, platformName string, instances int, opts speedybox.Options, hub *speedybox.Telemetry) (*fleet, error) {
	chain, err := spec.Build()
	if err != nil {
		return nil, err
	}
	opts.Telemetry = hub
	if instances > 1 {
		cl, err := speedybox.NewCluster(speedybox.ClusterConfig{
			Chain: chain, Options: opts, Instances: instances, Hub: hub,
		})
		if err != nil {
			return nil, err
		}
		rows := func() {
			for _, ist := range cl.Instances() {
				fmt.Printf("  instance %-4s flows=%d epoch=%d packets=%d fastpath=%d slowpath=%d degraded=%d\n",
					ist.Name, ist.Flows, ist.Epoch, ist.Stats.Packets,
					ist.Stats.FastPath, ist.Stats.SlowPath, ist.Stats.DegradedPackets)
			}
		}
		return &fleet{Fleet: cl, Closer: cl, label: fmt.Sprintf("%s x%d", platformName, instances), rows: rows}, nil
	}
	var p *speedybox.Platform
	switch platformName {
	case "bess":
		p, err = speedybox.NewBESS(chain, opts)
	case "onvm":
		p, err = speedybox.NewONVM(chain, opts)
	default:
		return nil, fmt.Errorf("unknown platform %q", platformName)
	}
	if err != nil {
		return nil, err
	}
	return &fleet{Fleet: p, Closer: p, label: platformName}, nil
}

// topoFleet builds the multi-chain topology, reporting per-chain and
// per-tenant accounting.
func topoFleet(spec *speedybox.TopologySpec, opts speedybox.Options, hub *speedybox.Telemetry) (*fleet, error) {
	tp, err := speedybox.BuildTopology(spec, speedybox.TopologyBuildConfig{Options: opts, Hub: hub})
	if err != nil {
		return nil, err
	}
	rows := func() {
		for i := 0; i < tp.NumChains(); i++ {
			st := tp.Engine(i).Stats()
			fmt.Printf("  chain %-10s packets=%d fastpath=%d slowpath=%d events=%d degraded=%d\n",
				tp.Chain(i).Name, st.Packets, st.FastPath, st.SlowPath, st.EventsFired, st.DegradedPackets)
		}
		adm := tp.Admission()
		for _, ten := range spec.Tenants {
			fmt.Printf("  tenant %-4d rules=%d events=%d rule-denied=%d event-denied=%d\n",
				ten.ID, adm.RulesHeld(ten.ID), adm.EventsHeld(ten.ID),
				adm.RuleDenials(ten.ID), adm.EventDenials(ten.ID))
		}
	}
	return &fleet{Fleet: tp, Closer: tp, label: "topo " + spec.Name,
		counts: fmt.Sprintf("chains=%d ", tp.NumChains()), rows: rows}, nil
}

func change(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a * 100
}

// packetSource reads the pcap, or synthesizes the trace. A nonzero
// synFlood or eventStorm switches to the adversarial generator.
func packetSource(pcapPath string, seed int64, flows, synFlood int, eventStorm float64) ([]*speedybox.Packet, error) {
	if pcapPath != "" {
		f, err := os.Open(pcapPath)
		if err != nil {
			return nil, err
		}
		defer func() { _ = f.Close() }()
		return trace.ReadPcap(f)
	}
	cfg := trace.Config{Seed: seed, Flows: flows, Interleave: true}
	if synFlood > 0 || eventStorm > 0 {
		tr, err := trace.GenerateAdversarial(trace.AdversarialConfig{
			Config: cfg, SYNFloodFlows: synFlood, EventStormFraction: eventStorm,
		})
		if err != nil {
			return nil, err
		}
		return tr.Packets(), nil
	}
	tr, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return tr.Packets(), nil
}

// topoTrace synthesizes the topology's traffic: one adversarial
// sub-trace per policy destination port (flows split evenly), merged
// round-robin so the services overlap in time. The SYN flood and event
// storm ride the first port's sub-trace. Policies without a port match
// (CIDR-only rules) share the default-port sub-trace.
func topoTrace(spec *speedybox.TopologySpec, seed int64, flows, synFlood int, eventStorm float64) ([]*speedybox.Packet, error) {
	var ports []uint16
	for _, p := range spec.Policies {
		if p.DstPortMin != 0 && !slices.Contains(ports, p.DstPortMin) {
			ports = append(ports, p.DstPortMin)
		}
	}
	if len(ports) == 0 {
		ports = []uint16{0} // generator default port
	}
	per := max(flows/len(ports), 1)
	var streams [][]*speedybox.Packet
	total := 0
	for i, port := range ports {
		tr, err := speedybox.GenerateAdversarialTrace(speedybox.AdversarialTraceConfig{
			Config: speedybox.TraceConfig{
				Seed: seed + int64(i), Flows: per, DstPort: port, Interleave: true,
			},
			SYNFloodFlows: synFlood, EventStormFraction: eventStorm,
		})
		if err != nil {
			return nil, err
		}
		streams = append(streams, tr.Packets())
		total += tr.Len()
		synFlood, eventStorm = 0, 0 // the first port's sub-trace carries them
	}
	out := make([]*speedybox.Packet, 0, total)
	for k := 0; len(out) < total; k++ {
		for _, s := range streams {
			if k < len(s) {
				out = append(out, s[k])
			}
		}
	}
	return out, nil
}

// report prints the lines every fleet shares: packets and verdicts,
// rate and latency, and the aggregate rate across queues.
func report(f *fleet, sbox bool, workers int, res *speedybox.RunResult) {
	label := f.label
	if sbox {
		label += " w/ SBox"
	}
	ft := res.FlowTimesMicros()
	fmt.Printf("%-16s %spackets=%d drops=%d fastpath=%d events=%d\n",
		label, f.counts, res.Packets, res.Drops, res.Stats.FastPath, res.Stats.EventsFired)
	fmt.Printf("%-16s rate=%.3f Mpps  latency(mean)=%.3f µs  flow p50=%.1f µs  p90=%.1f µs\n",
		"", res.RateMpps(), res.MeanLatencyMicros(),
		stats.Percentile(ft, 50), stats.Percentile(ft, 90))
	if workers > 1 {
		fmt.Printf("%-16s aggregate(%d queues)=%.3f Mpps\n", "", workers, res.AggregateRateMpps())
	}
}
