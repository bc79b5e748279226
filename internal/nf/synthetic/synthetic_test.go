package synthetic

import (
	"bytes"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

func pkt(t *testing.T, payload string) *packet.Packet {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(1, 1, 1, 1), DstIP: packet.IP4(2, 2, 2, 2),
		SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP, Payload: []byte(payload),
	})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := New(Config{Name: "s", Class: sfunc.PayloadClass(9)}); err == nil {
		t.Error("invalid class accepted")
	}
	n, err := New(Config{Name: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if n.class != sfunc.ClassRead {
		t.Errorf("default class = %v, want read (Snort-equivalent)", n.class)
	}
}

func TestFixedCycleCost(t *testing.T) {
	n, err := New(Config{Name: "s", Cycles: 777})
	if err != nil {
		t.Fatal(err)
	}
	ledger := cost.NewLedger()
	ctx := core.NewCtx("s", core.CtxConfig{FID: 1, Ledger: ledger, Recording: true, Flows: n.FlowStates()})
	if _, err := n.Process(ctx, pkt(t, "x")); err != nil {
		t.Fatal(err)
	}
	m := cost.DefaultModel()
	if got := ledger.Stage("s"); got != m.Parse+m.Classify+777+m.RecordSF {
		t.Errorf("charged %d", got)
	}
	batch := recorded(ctx, &n.flows)
	c, err := batch.RunSequential(pkt(t, "anything"))
	if err != nil {
		t.Fatal(err)
	}
	if c != 777 {
		t.Errorf("handler cost = %d, want fixed 777", c)
	}
}

func TestSnortEquivalentCost(t *testing.T) {
	n, err := New(Config{Name: "s"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.NewCtx("s", core.CtxConfig{FID: 1, Recording: true, Flows: n.FlowStates()})
	payload := "0123456789"
	if _, err := n.Process(ctx, pkt(t, payload)); err != nil {
		t.Fatal(err)
	}
	batch := recorded(ctx, &n.flows)
	c, err := batch.RunSequential(pkt(t, payload))
	if err != nil {
		t.Fatal(err)
	}
	if want := cost.DefaultModel().InspectCost(len(payload)); c != want {
		t.Errorf("handler cost = %d, want InspectCost %d", c, want)
	}
}

func TestInvocationsCounted(t *testing.T) {
	n, err := New(Config{Name: "s"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.NewCtx("s", core.CtxConfig{FID: 1})
	for i := 0; i < 3; i++ {
		if _, err := n.Process(ctx, pkt(t, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if n.Invocations() != 3 {
		t.Errorf("Invocations = %d", n.Invocations())
	}
}

func TestWriteClassMutatesPayload(t *testing.T) {
	n, err := New(Config{Name: "s", Class: sfunc.ClassWrite, TouchPayload: true})
	if err != nil {
		t.Fatal(err)
	}
	p := pkt(t, "AAAA")
	before := append([]byte(nil), p.Payload()...)
	ctx := core.NewCtx("s", core.CtxConfig{FID: 1})
	if _, err := n.Process(ctx, p); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(p.Payload(), before) {
		t.Error("write-class NF with TouchPayload did not mutate payload")
	}
}

func TestReadClassLeavesPayload(t *testing.T) {
	n, err := New(Config{Name: "s", Class: sfunc.ClassRead, TouchPayload: true})
	if err != nil {
		t.Fatal(err)
	}
	p := pkt(t, "AAAA")
	before := append([]byte(nil), p.Payload()...)
	ctx := core.NewCtx("s", core.CtxConfig{FID: 1})
	if _, err := n.Process(ctx, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Payload(), before) {
		t.Error("read-class NF mutated payload")
	}
}

// recorded is what a consolidation makes of the state functions ctx
// recorded for the NF declaring v: the batch a rule runs.
func recorded(ctx *core.Ctx, v *core.FlowStates) sfunc.Batch {
	rule, _ := ctx.Recorded()
	return sfunc.NewBatch(&sfunc.Site{Funcs: v.Funcs, Model: ctx.Model}, rule.Funcs, ctx.FID, ctx.FlowState(v))
}
