package vpn

import (
	"bytes"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

func pkt(t *testing.T) *packet.Packet {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: 1000, DstPort: 2000, Proto: packet.ProtoTCP, Payload: []byte("secret"),
	})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Mode: ModeEncap}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := New(Config{Name: "gw"}); err == nil {
		t.Error("zero mode accepted (enums start at one)")
	}
}

func TestModeString(t *testing.T) {
	if ModeEncap.String() != "encap" || ModeDecap.String() != "decap" {
		t.Error("mode strings wrong")
	}
}

func TestEncapAddsAH(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	gw, err := New(Config{Name: "gw", Mode: ModeEncap, SPIBase: 100})
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.NewCtx("gw", core.CtxConfig{FID: 1, Events: tbl, Recording: true})
	p := pkt(t)
	if _, err := gw.Process(ctx, p); err != nil {
		t.Fatal(err)
	}
	h, _ := p.Headers()
	if h.AHCount != 1 {
		t.Fatalf("AHCount = %d", h.AHCount)
	}
	spi, _, _ := p.OutermostAH()
	if spi != 101 {
		t.Errorf("SPI = %d, want SPIBase+1", spi)
	}
	if !p.VerifyChecksums() {
		t.Error("checksums stale after encap")
	}
	rule, _ := ctx.Recorded()
	if rule.Actions[0].Kind != mat.ActionEncap {
		t.Errorf("recorded %v", rule.Actions[0])
	}
}

func TestSPIStablePerFlow(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	gw, err := New(Config{Name: "gw", Mode: ModeEncap})
	if err != nil {
		t.Fatal(err)
	}
	getSPI := func(fid uint32) uint32 {
		p := pkt(t)
		ctx := core.NewCtx("gw", core.CtxConfig{FID: flowFID(fid), Events: tbl})
		if _, err := gw.Process(ctx, p); err != nil {
			t.Fatal(err)
		}
		spi, _, _ := p.OutermostAH()
		return spi
	}
	if getSPI(1) != getSPI(1) {
		t.Error("SPI changed within a flow")
	}
	if getSPI(1) == getSPI(2) {
		t.Error("distinct flows share an SPI")
	}
}

func TestDecapRemovesAH(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	gw, err := New(Config{Name: "gw", Mode: ModeDecap})
	if err != nil {
		t.Fatal(err)
	}
	p := pkt(t)
	orig := append([]byte(nil), p.Data()...)
	if err := p.EncapAH(9, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.FinalizeChecksums(); err != nil {
		t.Fatal(err)
	}
	ctx := core.NewCtx("gw", core.CtxConfig{FID: 1, Events: tbl})
	if _, err := gw.Process(ctx, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Data(), orig) {
		t.Error("decap did not restore the original frame")
	}
}

func TestDecapWithoutAHErrors(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	gw, err := New(Config{Name: "gw", Mode: ModeDecap})
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.NewCtx("gw", core.CtxConfig{FID: 1, Events: tbl})
	if _, err := gw.Process(ctx, pkt(t)); err == nil {
		t.Error("decap of AH-less packet succeeded")
	}
}

func TestEncapDecapPairConsolidatesToNothing(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	// The §V-B elimination, end to end through two gateway NFs.
	enc, err := New(Config{Name: "gw-in", Mode: ModeEncap})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := New(Config{Name: "gw-out", Mode: ModeDecap})
	if err != nil {
		t.Fatal(err)
	}
	p := pkt(t)
	ctxE := core.NewCtx("gw-in", core.CtxConfig{FID: 1, Events: tbl, Recording: true})
	ctxD := core.NewCtx("gw-out", core.CtxConfig{FID: 1, Events: tbl, Recording: true})
	if _, err := enc.Process(ctxE, p); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Process(ctxD, p); err != nil {
		t.Fatal(err)
	}
	re, _ := ctxE.Recorded()
	rd, _ := ctxD.Recorded()
	rule, err := mat.Consolidate(1, []mat.Contribution{
		{NF: "gw-in", Rule: re},
		{NF: "gw-out", Rule: rd},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rule.String(); got != "fid:00001 -> forward [v0]" {
		t.Errorf("consolidated rule has residual work: %s", got)
	}
}

func flowFID(n uint32) flow.FID { return flow.FID(n) }
