package harness

import (
	"fmt"

	"github.com/fastpathnfv/speedybox/internal/chainspec"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/nf/monitor"
	"github.com/fastpathnfv/speedybox/internal/nf/snort"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/topo"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// The topology row (OracleConfig.Topo): three chains with different
// semantics (a pass-through IDS chain, a MAC-rewriting VoIP chain, a
// DoS-filtered bulk chain) share a monitor instance and split flows by
// destination port across three tenants with deliberately tight quotas.
// Admission denials must never change a verdict, reconfigurations and
// crash-restores on one chain must never leak into another, and the
// shared NF must accumulate the identical state down both topologies.

// Per-chain service ports of the fixed oracle topology.
const (
	topoWebPort  = 80
	topoVoipPort = 5060
	topoBulkPort = 9000
)

// topoOracleSpec is the fixed topology every topo schedule runs.
func topoOracleSpec() *topo.Spec {
	return &topo.Spec{
		Name: "oracle",
		Chains: []topo.ChainSpec{
			{Name: "web", NFs: []chainspec.NFSpec{
				{Type: "ipfilter", ACLSize: 100},
				{Type: "monitor", Name: "mon"},
				{Type: "snort", Name: "ids"},
			}},
			{Name: "voip", NFs: []chainspec.NFSpec{
				{Type: "gateway", Name: "voip-gw", NextHopMAC: "02:00:00:00:00:01",
					VoicePorts: []uint16{topoVoipPort}},
				{Type: "monitor", Name: "mon"},
			}},
			{Name: "bulk", NFs: []chainspec.NFSpec{
				{Type: "dos"},
				{Type: "ipfilter", ACLSize: 50},
				{Type: "monitor", Name: "mon"},
			}},
		},
		Policies: []topo.PolicySpec{
			{Chain: "voip", Tenant: 2, DstPortMin: topoVoipPort},
			{Chain: "bulk", Tenant: 3, DstPortMin: topoBulkPort},
			{Chain: "web", Tenant: 1, DstPortMin: topoWebPort},
		},
		// Tenant 2's quotas are deliberately tight so admission denials
		// actually fire under the oracle — proving they are
		// verdict-neutral, not just plausible.
		Tenants: []topo.TenantSpec{
			{ID: 1, RuleQuota: 64, EventCap: 128},
			{ID: 2, RuleQuota: 4, EventCap: 8},
			{ID: 3},
		},
	}
}

// topoTrace builds the schedule's merged three-service trace: one
// sub-trace per chain port, interleaved round-robin (each sub-trace's
// internal arrival order — hence per-flow order — is preserved).
func topoTrace(seed int64, flows int) ([]*packet.Packet, error) {
	per := flows/3 + 1
	var streams [][]*packet.Packet
	for i, port := range []uint16{topoWebPort, topoVoipPort, topoBulkPort} {
		s, err := oracleTrace(seed+int64(i), per, port)
		if err != nil {
			return nil, err
		}
		streams = append(streams, s)
	}
	var out []*packet.Packet
	for k := 0; ; k++ {
		emitted := false
		for _, s := range streams {
			if k < len(s) {
				out = append(out, s[k])
				emitted = true
			}
		}
		if !emitted {
			return out, nil
		}
	}
}

// topoSystem is the topology adapter: every chain of the fixed topology
// on its own engine behind the classifier, sharing NFs and tenant
// admission. Built on baseline options it is its own reference.
type topoSystem struct {
	spec *topo.Spec
	cfg  OracleConfig
	opts core.Options
	// target is the chain reconfigurations apply to, rotating across
	// schedules.
	target int
	// pb serves every chain, as one Batch serves every cluster instance:
	// its handles live for one vector on one engine.
	pb *platform.Batch

	oc *oracleChain
	t  *topo.Topology
	// retired banks the counters of engines a crash discarded.
	retired core.Stats
}

func newTopoSystem(cfg OracleConfig, sched int, opts core.Options) (system, error) {
	spec := topoOracleSpec()
	s := &topoSystem{spec: spec, cfg: cfg, opts: opts, target: sched % len(spec.Chains), pb: platform.NewBatch(cfg.Batch)}
	return s, s.boot(nil, nil)
}

// boot builds the topology (shared NFs included) from the spec, replays
// the committed reconfigurations onto the target chain and, after a
// crash, rehydrates every chain engine from its checkpoint.
func (s *topoSystem) boot(applied []reconfigEvent, cps []*wal.Checkpoint) error {
	t, err := topo.Build(s.spec, topo.BuildConfig{Options: s.opts})
	if err != nil {
		return err
	}
	oc := &oracleChain{names: t.Engine(s.target).ChainNames()}
	// The monitor instance every chain shares and the web chain's IDS.
	oc.mon, _ = t.NF("mon").(*monitor.Monitor)
	oc.ids, _ = t.NF("ids").(*snort.Snort)
	if err := replayReconfigs(t.Engine(s.target), applied); err != nil {
		return err
	}
	if cps != nil {
		if err := t.RestoreAll(cps); err != nil {
			return fmt.Errorf("crash restore: %w", err)
		}
	}
	t.TamperRoute = s.cfg.TamperRoute
	s.oc, s.t = oc, t
	return nil
}

func (s *topoSystem) run(pkts []*packet.Packet, batch int, fold func(off, chain int, ms []platform.Measurement)) error {
	chain := 0
	return platform.Drain(pkts, batch, s.t.Route,
		func(c int, run []*packet.Packet) ([]platform.Measurement, error) {
			chain = c
			return s.t.Chain(c).Platform.ProcessBatch(run, s.pb)
		},
		func(off int, ms []platform.Measurement) error {
			fold(off, chain, ms)
			return nil
		})
}

func (s *topoSystem) events(int64, int) []oracleEvent { return nil }

func (s *topoSystem) reconfigure(plan core.ChainPlan) error {
	return s.t.Engine(s.target).Reconfigure(plan)
}

// crash kills the whole topology: every chain engine is checkpointed at
// the kill point and a fresh topology is restored from the snapshots.
func (s *topoSystem) crash(applied []reconfigEvent) error {
	cps, err := s.t.CheckpointAll()
	if err != nil {
		return fmt.Errorf("crash checkpoint: %w", err)
	}
	s.retired = s.stats()
	return s.boot(applied, cps)
}

// stats sums the live chain engines' counters onto the retired ones.
func (s *topoSystem) stats() core.Stats {
	st := s.retired
	for i := 0; i < s.t.NumChains(); i++ {
		st.Add(s.t.Engine(i).Stats())
	}
	return st
}

func (s *topoSystem) chain() *oracleChain { return s.oc }

func (s *topoSystem) engines() []*core.Engine {
	engs := make([]*core.Engine, s.t.NumChains())
	for i := range engs {
		engs[i] = s.t.Engine(i)
	}
	return engs
}

func (s *topoSystem) finish(res *OracleResult) { res.bank(s.stats()) }
