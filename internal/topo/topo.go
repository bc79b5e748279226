package topo

import (
	"fmt"

	"github.com/fastpathnfv/speedybox/internal/bess"
	"github.com/fastpathnfv/speedybox/internal/chainspec"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// Chain is one built chain of a topology.
type Chain struct {
	// Name is the chain's spec name (also its metric ChainLabel).
	Name string
	// Platform hosts the chain's engine (the BESS model — a topology
	// is a routing construct, and the single-core run-to-completion
	// model composes cleanly across chains).
	Platform *platform.Platform
}

// compiled is one classification rule in matchable form.
type compiled struct {
	chain   int
	tenant  int32
	hasCIDR bool
	prefix  [4]byte
	bits    int
	portMin uint16
	portMax uint16
	proto   uint8 // 0 = any
}

func (p *compiled) match(ft packet.FiveTuple) bool {
	if p.proto != 0 && ft.Proto != p.proto {
		return false
	}
	if p.hasCIDR && !cidrContains(p.prefix, p.bits, ft.SrcIP) {
		return false
	}
	if p.portMin != 0 || p.portMax != 0 {
		max := p.portMax
		if max == 0 {
			max = p.portMin
		}
		if ft.DstPort < p.portMin || ft.DstPort > max {
			return false
		}
	}
	return true
}

// cidrContains reports whether ip falls inside prefix/bits.
func cidrContains(prefix [4]byte, bits int, ip [4]byte) bool {
	for i := 0; i < 4 && bits > 0; i++ {
		b := bits
		if b > 8 {
			b = 8
		}
		mask := byte(0xff << (8 - b))
		if prefix[i]&mask != ip[i]&mask {
			return false
		}
		bits -= b
	}
	return true
}

// BuildConfig configures topology construction.
type BuildConfig struct {
	// Options is the per-engine base configuration (baseline vs
	// SpeedyBox, ablations, faults). ChainLabel, Admission and
	// Telemetry are set per chain by Build and must be left zero.
	Options core.Options
	// Hub, when set, is the shared telemetry hub: every chain engine
	// registers its metrics there under its {chain=...} label, and
	// Build adds the per-tenant quota gauges.
	Hub *telemetry.Hub
}

// Topology is a built multi-chain deployment: per-chain engines, the
// shared-NF registry, the flow classifier and the tenant admission
// policy. It is a platform.Fleet whose route is the classifier, so the
// serial RunBatch and the parallel MultiQueue drive it as they drive
// one platform.
type Topology struct {
	name      string
	spec      *Spec
	chains    []Chain
	byName    map[string]int
	shared    map[string]core.NF
	policies  []compiled
	admission *TenantAdmission
	hub       *telemetry.Hub

	// TamperRoute is a test-only hook: when set, it overrides the
	// classifier's chain decision (receiving the packet and the honest
	// chain index) so the oracle's teeth test can prove that routing a
	// flow down the wrong chain is detected as a divergence.
	TamperRoute func(pkt *packet.Packet, chain int) int
}

// Build instantiates the topology: shared NF instances are constructed
// once and wired into every chain naming them, each chain gets its own
// engine (labeled metrics, shared admission), and the policy list is
// compiled for per-packet matching.
func Build(spec *Spec, cfg BuildConfig) (*Topology, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{
		name:      spec.Name,
		spec:      spec,
		byName:    make(map[string]int, len(spec.Chains)),
		shared:    make(map[string]core.NF),
		admission: NewTenantAdmission(spec.Tenants),
		hub:       cfg.Hub,
	}
	for ci, cs := range spec.Chains {
		chain := make([]core.NF, 0, len(cs.NFs))
		for ni, ns := range cs.NFs {
			name := cs.nfName(ni)
			inst := t.shared[name]
			if inst == nil {
				var err error
				inst, err = ns.Instantiate(name)
				if err != nil {
					return nil, fmt.Errorf("topo: chain %q nf %d: %w", cs.Name, ni, err)
				}
				t.shared[name] = inst
			}
			chain = append(chain, inst)
		}
		opts := cfg.Options
		opts.ChainLabel = cs.Name
		opts.Admission = t.admission
		opts.Telemetry = cfg.Hub
		p, err := bess.New(bess.Config{Chain: chain, Options: opts})
		if err != nil {
			return nil, fmt.Errorf("topo: chain %q: %w", cs.Name, err)
		}
		t.byName[cs.Name] = ci
		t.chains = append(t.chains, Chain{Name: cs.Name, Platform: p})
	}
	for _, ps := range spec.Policies {
		c := compiled{chain: t.byName[ps.Chain], tenant: ps.Tenant,
			portMin: ps.DstPortMin, portMax: ps.DstPortMax}
		if ps.SrcCIDR != "" {
			prefix, bits, err := chainspec.ParseCIDR(ps.SrcCIDR)
			if err != nil {
				return nil, fmt.Errorf("%w: %w", ErrPolicyInvalid, err)
			}
			c.hasCIDR, c.prefix, c.bits = true, prefix, bits
		}
		switch ps.Proto {
		case "tcp":
			c.proto = packet.ProtoTCP
		case "udp":
			c.proto = packet.ProtoUDP
		}
		t.policies = append(t.policies, c)
	}
	if cfg.Hub != nil {
		t.registerTenantMetrics(cfg.Hub)
	}
	return t, nil
}

// registerTenantMetrics publishes per-tenant quota usage and denial
// series on the shared hub.
func (t *Topology) registerTenantMetrics(hub *telemetry.Hub) {
	reg := hub.Registry
	for _, ts := range t.spec.Tenants {
		id := ts.ID
		reg.GaugeFunc(fmt.Sprintf(`speedybox_tenant_rules{tenant="%d"}`, id),
			"Concurrently held Global MAT rules per tenant",
			func() float64 { return float64(t.admission.RulesHeld(id)) })
		reg.GaugeFunc(fmt.Sprintf(`speedybox_tenant_events{tenant="%d"}`, id),
			"Concurrently held Event Table registrations per tenant",
			func() float64 { return float64(t.admission.EventsHeld(id)) })
		reg.CounterFunc(fmt.Sprintf(`speedybox_tenant_rule_denied_total{tenant="%d"}`, id),
			"Rule installs refused by the tenant's quota",
			func() uint64 { return t.admission.RuleDenials(id) })
		reg.CounterFunc(fmt.Sprintf(`speedybox_tenant_event_denied_total{tenant="%d"}`, id),
			"Event registrations refused by the tenant's cap",
			func() uint64 { return t.admission.EventDenials(id) })
	}
}

// Name returns the topology's spec name.
func (t *Topology) Name() string { return t.name }

// Spec returns the spec the topology was built from.
func (t *Topology) Spec() *Spec { return t.spec }

// NumChains returns the chain count.
func (t *Topology) NumChains() int { return len(t.chains) }

// Chain returns the i-th built chain.
func (t *Topology) Chain(i int) *Chain { return &t.chains[i] }

// Engine returns the i-th chain's engine.
func (t *Topology) Engine(i int) *core.Engine { return t.chains[i].Platform.Engine() }

// NF returns a constructed NF instance by name (shared instances under
// their shared name, private ones under "chain.typeN"), or nil.
func (t *Topology) NF(name string) core.NF { return t.shared[name] }

// Admission returns the topology's tenant admission policy.
func (t *Topology) Admission() *TenantAdmission { return t.admission }

// classify resolves a packet to its chain and tenant by first-match
// policy, parsing the descriptor on demand; frames Parse rejects and
// unmatched packets go to the default chain (index 0) untagged, where
// the chain's platform reports the parse error.
func (t *Topology) classify(pkt *packet.Packet) (int, int32) {
	if !pkt.Parsed() && pkt.Parse() != nil {
		return 0, 0
	}
	ft, _ := pkt.FiveTuple() // parsed above, so it cannot fail
	for i := range t.policies {
		if t.policies[i].match(ft) {
			return t.policies[i].chain, t.policies[i].tenant
		}
	}
	return 0, 0
}

// Route classifies the packet, stamps its tenant tag into the packet
// metadata, and returns the chain index: the topology's Drain route.
func (t *Topology) Route(pkt *packet.Packet) int {
	chain, tenant := t.classify(pkt)
	pkt.Meta.Tenant = tenant
	if t.TamperRoute != nil {
		chain = t.TamperRoute(pkt, chain)
	}
	return chain
}

// ProcessRuns feeds pkts through the topology in arrival order
// (platform.Drain with Route), splitting the stream into maximal
// same-chain runs of at most batch packets and draining each through
// its chain platform's ProcessBatch on b. One Batch serves every chain:
// a handle it holds lives for one vector, staged and looked up in the
// flow table of the engine that runs it, so none is ever served by
// another chain's engine.
func (t *Topology) ProcessRuns(pkts []*packet.Packet, batch int, b *platform.Batch, fold func(off int, ms []platform.Measurement) error) error {
	err := platform.Drain(pkts, batch, t.Route,
		func(chain int, run []*packet.Packet) ([]platform.Measurement, error) {
			ms, err := t.chains[chain].Platform.ProcessBatch(run, b)
			if err != nil {
				return nil, fmt.Errorf("chain %q: %w", t.chains[chain].Name, err)
			}
			return ms, nil
		}, fold)
	if err != nil {
		return fmt.Errorf("topo: %w", err)
	}
	return nil
}

// Stats sums every chain engine's counters.
func (t *Topology) Stats() core.Stats {
	var s core.Stats
	for i := range t.chains {
		s.Add(t.Engine(i).Stats())
	}
	return s
}

// Model returns the cost model the chains share.
func (t *Topology) Model() *cost.Model { return t.chains[0].Platform.Model() }

// Telemetry returns the shared hub (nil when built without one).
func (t *Topology) Telemetry() *telemetry.Hub { return t.hub }

// RunBatch is platform.RunBatch over the topology.
func (t *Topology) RunBatch(pkts []*packet.Packet, batchSize int) (*platform.RunResult, error) {
	return platform.RunBatch(t, pkts, batchSize, nil)
}

// CheckpointAll snapshots every chain engine, each at a packet boundary
// it holds (core.Engine.Checkpoint); a boundary common to all chains is
// the caller's to hold. Shared NFs are snapshotted once per chain listing
// them; the blobs are identical at such a boundary, so repeated restore
// is idempotent.
func (t *Topology) CheckpointAll() ([]*wal.Checkpoint, error) {
	out := make([]*wal.Checkpoint, len(t.chains))
	for i := range t.chains {
		cp, err := t.Engine(i).Checkpoint()
		if err != nil {
			return nil, fmt.Errorf("topo: chain %q: %w", t.chains[i].Name, err)
		}
		out[i] = cp
	}
	return out, nil
}

// RestoreAll restores every chain engine from CheckpointAll's
// snapshots, in chain order. The topology must be freshly built from
// the same spec (fresh engines, fresh admission): restored rules are
// not re-charged against tenant quotas — a restart resets admission
// accounting along with the flow tables it guards.
func (t *Topology) RestoreAll(cps []*wal.Checkpoint) error {
	if len(cps) != len(t.chains) {
		return fmt.Errorf("topo: restore with %d checkpoints for %d chains", len(cps), len(t.chains))
	}
	for i, cp := range cps {
		if err := t.Engine(i).Restore(cp, nil); err != nil {
			return fmt.Errorf("topo: chain %q: %w", t.chains[i].Name, err)
		}
	}
	return nil
}

// Close releases every chain platform (closing one cannot fail).
func (t *Topology) Close() error {
	for i := range t.chains {
		_ = t.chains[i].Platform.Close()
	}
	return nil
}
