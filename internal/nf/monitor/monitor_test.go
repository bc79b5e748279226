package monitor

import (
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

func pkt(t *testing.T, payload string) *packet.Packet {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: 1234, DstPort: 80, Proto: packet.ProtoTCP,
		Payload: []byte(payload),
	})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(""); err == nil {
		t.Error("empty name accepted")
	}
}

func TestCountsPerFlow(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	m, err := New("mon")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ctx := core.NewCtx("mon", core.CtxConfig{FID: 1, Events: tbl})
		if _, err := m.Process(ctx, pkt(t, "abc")); err != nil {
			t.Fatal(err)
		}
	}
	ctx := core.NewCtx("mon", core.CtxConfig{FID: 2, Events: tbl})
	if _, err := m.Process(ctx, pkt(t, "other-flow")); err != nil {
		t.Fatal(err)
	}

	c1, ok := m.Flow(1)
	if !ok || c1.Packets != 3 {
		t.Errorf("flow 1 = %+v", c1)
	}
	c2, _ := m.Flow(2)
	if c2.Packets != 1 {
		t.Errorf("flow 2 = %+v", c2)
	}
	if c1.Bytes == 0 || c2.Bytes == 0 {
		t.Error("byte counters not maintained")
	}
	if m.Flows() != 2 {
		t.Errorf("Flows = %d", m.Flows())
	}
	tot := m.Totals()
	if tot.Packets != 4 || tot.Bytes != c1.Bytes+c2.Bytes {
		t.Errorf("Totals = %+v", tot)
	}
	if _, ok := m.Flow(99); ok {
		t.Error("unknown flow reported counters")
	}
}

func TestRecordedStateFunctionCountsSameCounter(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	m, err := New("mon")
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.NewCtx("mon", core.CtxConfig{FID: 9, Events: tbl, Recording: true, Flows: m.FlowStates()})
	if _, err := m.Process(ctx, pkt(t, "init")); err != nil {
		t.Fatal(err)
	}
	rule, ok := ctx.Recorded()
	if !ok || len(rule.Funcs) != 1 {
		t.Fatalf("rule = %+v", rule)
	}
	batch := recorded(ctx, &m.flows)
	if batch.Class() != sfunc.ClassIgnore {
		t.Errorf("class = %v, want ignore (Table I compatibility)", batch.Class())
	}
	// Invoking the recorded handler (as the fast path would)
	// increments the same counter.
	if _, err := batch.RunSequential(pkt(t, "fastpath")); err != nil {
		t.Fatal(err)
	}
	c, _ := m.Flow(9)
	if c.Packets != 2 {
		t.Errorf("Packets = %d, want 2 (slow + fast)", c.Packets)
	}
	// Header action recorded as forward.
	if rule.Actions[0].Kind != mat.ActionForward {
		t.Errorf("action = %v", rule.Actions[0])
	}
}

// TestSnapshotCarriesEndedFlows: the snapshot holds the ended flows'
// aggregate — live flows travel on their records — and a restored
// monitor's Totals start from it.
func TestSnapshotCarriesEndedFlows(t *testing.T) {
	flows := flow.NewTable()
	tbl := event.NewTable(flows)
	m, err := New("mon")
	if err != nil {
		t.Fatal(err)
	}
	for fid := flow.FID(1); fid <= 2; fid++ {
		ctx := core.NewCtx("mon", core.CtxConfig{FID: fid, Events: tbl})
		if _, err := m.Process(ctx, pkt(t, "abc")); err != nil {
			t.Fatal(err)
		}
	}
	ended, _ := m.Flow(1)
	ed := flows.Edit(1, false)
	tbl.DropState(ed, true)
	ed.Done()
	blob, err := m.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New("mon")
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Totals(); got != ended {
		t.Errorf("restored Totals = %+v, want the ended flow's %+v", got, ended)
	}
	if err := fresh.RestoreState([]byte("not gob")); err == nil {
		t.Error("garbage snapshot restored")
	}
}

// recorded is what a consolidation makes of the state functions ctx
// recorded for the NF declaring v: the batch a rule runs.
func recorded(ctx *core.Ctx, v *core.FlowStates) sfunc.Batch {
	rule, _ := ctx.Recorded()
	return sfunc.NewBatch(&sfunc.Site{Funcs: v.Funcs, Model: ctx.Model}, rule.Funcs, ctx.FID, ctx.FlowState(v))
}
