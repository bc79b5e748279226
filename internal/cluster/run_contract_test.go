package cluster

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/bess"
	"github.com/fastpathnfv/speedybox/internal/chainspec"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/nf/ipfilter"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/topo"
	"github.com/fastpathnfv/speedybox/internal/trace"
)

// filterChain is 3×IPFilter, the middle one denying a band of source
// ports. No NF keeps cross-flow state, so how workers interleave flows
// cannot change a verdict: every runner must account the trace alike.
func filterChain(t *testing.T) []core.NF {
	t.Helper()
	chain := make([]core.NF, 3)
	for i := range chain {
		cfg := ipfilter.Config{Name: fmt.Sprintf("fw%d", i+1), Rules: ipfilter.PadRules(nil, 20)}
		if i == 1 {
			cfg.Rules = append([]ipfilter.Rule{{SrcPort: ipfilter.PortRange{Lo: 1024, Hi: 20000}, Deny: true}}, cfg.Rules...)
		}
		fw, err := ipfilter.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		chain[i] = fw
	}
	return chain
}

// failNF fails every packet of one flow, standing in for an NF bug.
type failNF struct{ tuple packet.FiveTuple }

var errInjected = errors.New("injected NF failure")

func (failNF) Name() string { return "fail" }
func (f failNF) Process(_ *core.Ctx, pkt *packet.Packet) (core.Verdict, error) {
	if ft, err := pkt.FiveTuple(); err == nil && ft == f.tuple {
		return 0, errInjected
	}
	return core.VerdictForward, nil
}

// fleetKind builds one kind of fleet over a chain and drives a trace
// through it: with the serial runner when workers is 0, with the
// parallel one otherwise.
type fleetKind struct {
	name string
	run  func(t *testing.T, chain []core.NF, pkts []*packet.Packet, workers, batch int) (*platform.RunResult, error)
}

// drive runs pkts through f with RunBatch (workers 0) or a MultiQueue.
func drive(f platform.Fleet, pkts []*packet.Packet, workers, batch int) (*platform.RunResult, error) {
	if workers == 0 {
		return platform.RunBatch(f, pkts, batch, nil)
	}
	mq, err := platform.NewMultiQueue(f, workers)
	if err != nil {
		return nil, err
	}
	mq.SetBatchSize(batch)
	return mq.Run(pkts)
}

// topoOver builds a two-chain topology, sources in 10.0.128.0/17 routed
// to chain b, and sets both chains to chain's NF instances — shared, as
// a topology shares named NFs — by live reconfiguration.
func topoOver(t *testing.T, chain []core.NF) *topo.Topology {
	t.Helper()
	tp, err := topo.Build(&topo.Spec{
		Chains: []topo.ChainSpec{
			{Name: "a", NFs: []chainspec.NFSpec{{Type: "monitor"}}},
			{Name: "b", NFs: []chainspec.NFSpec{{Type: "monitor"}}},
		},
		Policies: []topo.PolicySpec{{Chain: "b", SrcCIDR: "10.0.128.0/17"}},
	}, topo.BuildConfig{Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tp.NumChains(); i++ {
		eng := tp.Engine(i)
		placeholder := eng.ChainNames()[0]
		for pos, nf := range chain {
			if err := eng.Reconfigure(core.ChainPlan{Op: core.OpInsert, Pos: pos, NF: nf}); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Reconfigure(core.ChainPlan{Op: core.OpRemove, Name: placeholder}); err != nil {
			t.Fatal(err)
		}
	}
	return tp
}

func fleetKinds() []fleetKind {
	clusterOf := func(instances int) fleetKind {
		return fleetKind{
			name: fmt.Sprintf("cluster[%d]", instances),
			run: func(t *testing.T, chain []core.NF, pkts []*packet.Packet, workers, batch int) (*platform.RunResult, error) {
				cl, err := New(Config{Chain: chain, Options: core.DefaultOptions(), Instances: instances})
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				if workers == 0 {
					return cl.RunBatch(pkts, batch, nil)
				}
				return cl.Run(pkts, workers, batch)
			},
		}
	}
	return []fleetKind{
		{
			name: "platform",
			run: func(t *testing.T, chain []core.NF, pkts []*packet.Packet, workers, batch int) (*platform.RunResult, error) {
				p, err := bess.New(bess.Config{Chain: chain, Options: core.DefaultOptions()})
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				return drive(p, pkts, workers, batch)
			},
		},
		clusterOf(1),
		clusterOf(2),
		{
			name: "topology",
			run: func(t *testing.T, chain []core.NF, pkts []*packet.Packet, workers, batch int) (*platform.RunResult, error) {
				tp := topoOver(t, chain)
				defer tp.Close()
				if workers == 0 {
					return tp.RunBatch(pkts, batch)
				}
				return drive(tp, pkts, workers, batch)
			},
		},
	}
}

// TestRunnersShareOneContract holds every fleet under both runners, at
// every worker count and vector size, to the serial RunBatch over one
// platform on the same seeded trace: same packets, drops, engine
// counters and multiset of per-packet work, and from the parallel
// runner the same RSS partition over every fleet.
func TestRunnersShareOneContract(t *testing.T) {
	tr, err := trace.Generate(trace.Config{Seed: 23, Flows: 120, Interleave: true, UDPFraction: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	serialP, err := bess.New(bess.Config{Chain: filterChain(t), Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	want, err := platform.RunBatch(serialP, tr.Packets(), 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.Drops == 0 || want.Drops == want.Packets || want.Stats.FastPath == 0 {
		t.Fatalf("serial run drops=%d/%d fastpath=%d: the trace does not exercise the chain",
			want.Drops, want.Packets, want.Stats.FastPath)
	}
	slices.Sort(want.WorkCycles)

	for _, workers := range []int{0, 1, 2, 4} {
		for _, batch := range []int{1, 32} {
			var depths []int
			for _, k := range fleetKinds() {
				tag := fmt.Sprintf("%s workers=%d batch=%d", k.name, workers, batch)
				got, err := k.run(t, filterChain(t), tr.Packets(), workers, batch)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if got.Packets != want.Packets || got.Drops != want.Drops {
					t.Errorf("%s: packets=%d drops=%d, serial %d/%d", tag, got.Packets, got.Drops, want.Packets, want.Drops)
				}
				if got.Stats != want.Stats {
					t.Errorf("%s: stats diverged:\ngot:    %+v\nserial: %+v", tag, got.Stats, want.Stats)
				}
				slices.Sort(got.WorkCycles)
				if !slices.Equal(got.WorkCycles, want.WorkCycles) {
					t.Errorf("%s: multiset of per-packet work cycles differs from the serial run", tag)
				}
				if len(got.FlowCycles) != len(want.FlowCycles) {
					t.Errorf("%s: %d flows, serial %d", tag, len(got.FlowCycles), len(want.FlowCycles))
				}
				if len(got.QueueDepths) != workers {
					t.Fatalf("%s: queue depths %v, want %d queues", tag, got.QueueDepths, workers)
				}
				if depths == nil {
					depths = got.QueueDepths
				} else if !slices.Equal(got.QueueDepths, depths) {
					t.Errorf("%s: queue depths %v, platform %v", tag, got.QueueDepths, depths)
				}
			}
		}
	}
}

// TestRunnersPartialResultOnError: when one flow's packets make an NF
// fail, every runner returns the aggregate of every packet that
// completed plus that error. The serial runner stops at the failing
// run, so it holds every packet before it; the parallel runner holds
// the other workers' queues in full.
func TestRunnersPartialResultOnError(t *testing.T) {
	tr, err := trace.Generate(trace.Config{Seed: 23, Flows: 120, Interleave: true})
	if err != nil {
		t.Fatal(err)
	}
	pkts := tr.Packets()
	victim, err := pkts[len(pkts)/2].FiveTuple()
	if err != nil {
		t.Fatal(err)
	}
	first := slices.IndexFunc(pkts, func(p *packet.Packet) bool {
		ft, err := p.FiveTuple()
		return err == nil && ft == victim
	})
	if first < 32 {
		t.Fatalf("the victim flow starts at packet %d: the serial rows cannot tell a partial result from none", first)
	}
	for _, workers := range []int{0, 2, 4} {
		for _, batch := range []int{1, 32} {
			for _, k := range fleetKinds() {
				tag := fmt.Sprintf("%s workers=%d batch=%d", k.name, workers, batch)
				clean, err := k.run(t, filterChain(t), tr.Packets(), workers, batch)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				got, err := k.run(t, append(filterChain(t), failNF{tuple: victim}), tr.Packets(), workers, batch)
				if !errors.Is(err, errInjected) || !errors.Is(err, core.ErrNFFailed) {
					t.Fatalf("%s: err = %v, want the injected NF failure", tag, err)
				}
				if got == nil {
					t.Fatalf("%s: nil result alongside the error", tag)
				}
				if !slices.Equal(got.QueueDepths, clean.QueueDepths) {
					t.Errorf("%s: queue depths %v, fault-free %v", tag, got.QueueDepths, clean.QueueDepths)
				}
				if workers == 0 {
					// Every run before the failing one completed; the
					// failing run begins within one vector of the victim.
					if got.Packets > first || got.Packets <= first-batch {
						t.Errorf("%s: %d packets aggregated, want the packets before the run holding packet %d",
							tag, got.Packets, first)
					}
				} else {
					// Exactly one worker stopped early; the others
					// drained their whole queues.
					least := len(pkts) - slices.Max(got.QueueDepths)
					if got.Packets < least || got.Packets >= len(pkts) {
						t.Errorf("%s: %d packets aggregated, want at least the %d of the healthy queues and fewer than %d",
							tag, got.Packets, least, len(pkts))
					}
				}
				if got.Stats.Packets < uint64(got.Packets) {
					t.Errorf("%s: engine counted %d packets, aggregate holds %d", tag, got.Stats.Packets, got.Packets)
				}
			}
		}
	}
}
