package onvm

import (
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

// costedNF charges exactly `cycles` and optionally records one state
// function of `sfCycles`.
type costedNF struct {
	name     string
	cycles   uint64
	sfCycles uint64
	flows    core.FlowStates
}

func (c *costedNF) Name() string { return c.name }

// FlowStates declares the state function, which costs sfCycles.
func (c *costedNF) FlowStates() *core.FlowStates {
	if c.flows.Funcs == nil {
		c.flows.Funcs = []sfunc.Func{{Name: "sf", Class: sfunc.ClassRead, Run: c.sf}}
	}
	return &c.flows
}

func (c *costedNF) sf(sfunc.Args, *packet.Packet) (uint64, error) { return c.sfCycles, nil }

func (c *costedNF) Process(ctx *core.Ctx, pkt *packet.Packet) (core.Verdict, error) {
	ctx.Charge(c.cycles)
	if err := ctx.AddHeaderAction(mat.Forward()); err != nil {
		return 0, err
	}
	if c.sfCycles > 0 {
		if err := ctx.AddStateFunc(0); err != nil {
			return 0, err
		}
	}
	return core.VerdictForward, nil
}

func formulaPkt(t *testing.T, seq int) *packet.Packet {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: 6000, DstPort: 53, Proto: packet.ProtoUDP,
		Payload: []byte{byte(seq)},
	})
}

// TestPipelineLatencyAndBottleneckFormula pins the slow-path
// composition: RX + per-edge hops + NF work + TX for latency; the
// busiest stage for throughput.
func TestPipelineLatencyAndBottleneckFormula(t *testing.T) {
	m := cost.DefaultModel()
	chain := []core.NF{
		&costedNF{name: "a", cycles: 400},
		&costedNF{name: "b", cycles: 900},
	}
	p, err := New(Config{Chain: chain, Options: core.BaselineOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	meas, err := p.Process(formulaPkt(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	// RX -> a -> b -> TX: 3 ring hops.
	wantLat := m.ONVMRx + m.ONVMTx + 3*m.ONVMHop + 400 + 900
	if meas.LatencyCycles != wantLat {
		t.Errorf("latency = %d, want %d", meas.LatencyCycles, wantLat)
	}
	// Bottleneck: NF b's core (framework + 900).
	if want := m.ONVMStageFramework + 900; meas.BottleneckCycles != want {
		t.Errorf("bottleneck = %d, want %d", meas.BottleneckCycles, want)
	}
}

// TestConsolidationMessageCostCharged: an initial packet's work on
// ONVM includes the inter-core message hops that collect Local MAT
// rules to the manager (§VI-A), which BESS does not pay.
func TestConsolidationMessageCostCharged(t *testing.T) {
	m := cost.DefaultModel()
	chain := []core.NF{
		&costedNF{name: "a", cycles: 400},
		&costedNF{name: "b", cycles: 900},
	}
	p, err := New(Config{Chain: chain, Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	meas, err := p.Process(formulaPkt(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	// classifier + NF work (incl. Local MAT recording) + consolidation
	// + one message hop per NF.
	want := m.HashFID + 400 + 900 + 2*m.RecordHA +
		(m.ConsolidateBase + 2*m.ConsolidatePerNF) +
		2*m.ONVMMsgHop
	if meas.WorkCycles != want {
		t.Errorf("initial work = %d, want %d", meas.WorkCycles, want)
	}
}

// TestFastPathManagerFormula pins the consolidated path: the manager
// pays fixed+dispatch, SF stages run on NF cores at one hop per stage.
func TestFastPathManagerFormula(t *testing.T) {
	m := cost.DefaultModel()
	chain := []core.NF{
		&costedNF{name: "a", cycles: 400, sfCycles: 900},
		&costedNF{name: "b", cycles: 700, sfCycles: 500},
	}
	p, err := New(Config{Chain: chain, Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Process(formulaPkt(t, 1)); err != nil {
		t.Fatal(err)
	}
	meas, err := p.Process(formulaPkt(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if meas.Result.Path != core.PathFast {
		t.Fatalf("path = %v", meas.Result.Path)
	}
	fixed := m.HashFID + m.FastPathBase + m.EventCheck + m.GMATLookup + 2*m.FastPathPerHA
	dispatch := m.ForkJoin / 2 * 2
	mgrWork := fixed + dispatch
	sfCritical := uint64(900) + m.ForkJoin // one parallel stage of two read batches
	wantLat := m.ONVMRx + mgrWork + m.ONVMHop + sfCritical + m.ONVMTx
	if meas.LatencyCycles != wantLat {
		t.Errorf("latency = %d, want %d", meas.LatencyCycles, wantLat)
	}
	wantBott := maxU64(m.ONVMStageFramework+mgrWork, m.ONVMStageFramework+sfCritical)
	if meas.BottleneckCycles != wantBott {
		t.Errorf("bottleneck = %d, want %d", meas.BottleneckCycles, wantBott)
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// TestDropMidChainLatencyFormula: a packet dropped at NF1 never hops
// to NF2, so its latency covers only the traversed stages.
func TestDropMidChainLatencyFormula(t *testing.T) {
	m := cost.DefaultModel()
	chain := []core.NF{
		&costedNF{name: "a", cycles: 400},
		&droppingNF{name: "deny", cycles: 300},
		&costedNF{name: "b", cycles: 900},
	}
	p, err := New(Config{Chain: chain, Options: core.BaselineOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	meas, err := p.Process(formulaPkt(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if meas.Result.Verdict != core.VerdictDrop {
		t.Fatalf("verdict = %v", meas.Result.Verdict)
	}
	// RX -> a -> deny: 2 stages traversed, 3 hops (incl. the final
	// one to the sink).
	wantLat := m.ONVMRx + m.ONVMTx + 3*m.ONVMHop + 400 + 300
	if meas.LatencyCycles != wantLat {
		t.Errorf("latency = %d, want %d (NF b must not contribute)", meas.LatencyCycles, wantLat)
	}
}

type droppingNF struct {
	name   string
	cycles uint64
}

func (d *droppingNF) Name() string { return d.name }

func (d *droppingNF) Process(ctx *core.Ctx, pkt *packet.Packet) (core.Verdict, error) {
	ctx.Charge(d.cycles)
	if err := ctx.AddHeaderAction(mat.Drop()); err != nil {
		return 0, err
	}
	return core.VerdictDrop, nil
}
