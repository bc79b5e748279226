package bess

import (
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

// costedNF charges exactly `cycles` and records one state function of
// `sfCycles`, so the platform formulas can be verified to the cycle.
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

func udp(t *testing.T, seq int) *packet.Packet {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: 5000, DstPort: 53, Proto: packet.ProtoUDP,
		Payload: []byte{byte(seq)},
	})
}

// TestBaselineLatencyFormula pins the run-to-completion composition:
// latency = framework + Σ NF work + per-module crossings.
func TestBaselineLatencyFormula(t *testing.T) {
	m := cost.DefaultModel()
	chain := []core.NF{
		&costedNF{name: "a", cycles: 400},
		&costedNF{name: "b", cycles: 700},
	}
	p, err := New(Config{Chain: chain, Options: core.BaselineOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	meas, err := p.Process(udp(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := m.BESSFramework + 400 + 700 + 2*m.BESSPerModule
	if meas.LatencyCycles != want {
		t.Errorf("latency = %d, want %d", meas.LatencyCycles, want)
	}
	if meas.BottleneckCycles != want {
		t.Errorf("bottleneck = %d, want run-to-completion %d", meas.BottleneckCycles, want)
	}
	if meas.WorkCycles != 1100 {
		t.Errorf("work = %d, want 1100 (no classifier in baseline)", meas.WorkCycles)
	}
}

// TestFastPathLatencyFormula pins the consolidated-path composition
// for a 2-SF chain: main core work + SF critical path; bottleneck is
// the busiest core.
func TestFastPathLatencyFormula(t *testing.T) {
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
	if _, err := p.Process(udp(t, 1)); err != nil { // installs the rule
		t.Fatal(err)
	}
	meas, err := p.Process(udp(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if meas.Result.Path != core.PathFast {
		t.Fatalf("second packet path = %v", meas.Result.Path)
	}
	// Both SFs are ClassRead -> one parallel stage: critical = max +
	// fork/join; fixed = hash + base + event + lookup + 2 * perHA.
	fixed := m.HashFID + m.FastPathBase + m.EventCheck + m.GMATLookup + 2*m.FastPathPerHA
	dispatch := m.ForkJoin / 2 * 2
	sfCritical := uint64(900) + m.ForkJoin
	mainCore := m.BESSFastFramework + fixed + dispatch
	if want := mainCore + sfCritical; meas.LatencyCycles != want {
		t.Errorf("latency = %d, want %d", meas.LatencyCycles, want)
	}
	// Worker stage (1020) is below the main core here.
	if meas.BottleneckCycles != max(mainCore, sfCritical) {
		t.Errorf("bottleneck = %d, want max(%d, %d)", meas.BottleneckCycles, mainCore, sfCritical)
	}
	// Work metric: fixed + SF critical path (dispatch excluded).
	if want := fixed + sfCritical; meas.WorkCycles != want {
		t.Errorf("work = %d, want %d", meas.WorkCycles, want)
	}
}

// TestSequentialSFFormula pins the HA-only ablation: SF total on the
// main core, no fork/join.
func TestSequentialSFFormula(t *testing.T) {
	m := cost.DefaultModel()
	chain := []core.NF{
		&costedNF{name: "a", cycles: 400, sfCycles: 900},
		&costedNF{name: "b", cycles: 700, sfCycles: 500},
	}
	p, err := New(Config{Chain: chain, Options: core.Options{
		EnableSpeedyBox: true, ConsolidateHeaders: true, ParallelSF: false,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Process(udp(t, 1)); err != nil {
		t.Fatal(err)
	}
	meas, err := p.Process(udp(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	fixed := m.HashFID + m.FastPathBase + m.EventCheck + m.GMATLookup + 2*m.FastPathPerHA
	want := m.BESSFastFramework + fixed + 900 + 500
	if meas.LatencyCycles != want {
		t.Errorf("latency = %d, want %d", meas.LatencyCycles, want)
	}
	if meas.BottleneckCycles != want {
		t.Errorf("bottleneck = %d, want single-core %d", meas.BottleneckCycles, want)
	}
}
