package gateway

import (
	"bytes"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

func cfg() Config {
	return Config{
		Name:       "gw",
		NextHopMAC: [6]byte{0x02, 0xaa, 0xbb, 0xcc, 0xdd, 0xee},
		VoicePorts: []uint16{5060},
		VideoPorts: []uint16{8801, 8802},
	}
}

func pkt(t *testing.T, dport uint16, ttl uint8) *packet.Packet {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: 4000, DstPort: dport, Proto: packet.ProtoUDP,
		TTL: ttl, Payload: []byte("media"),
	})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{NextHopMAC: [6]byte{1}}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := New(Config{Name: "gw"}); err == nil {
		t.Error("zero MAC accepted")
	}
}

func TestClassification(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	g, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		dport uint16
		want  Class
		dscp  byte
	}{
		{5060, ClassVoice, 46 << 2},
		{8801, ClassVideo, 34 << 2},
		{8802, ClassVideo, 34 << 2},
		{80, ClassBestEffort, 0},
	}
	for i, tt := range tests {
		t.Run(tt.want.String(), func(t *testing.T) {
			p := pkt(t, tt.dport, 64)
			ctx := core.NewCtx("gw", core.CtxConfig{FID: flowFID(i + 1), Events: tbl})
			if _, err := g.Process(ctx, p); err != nil {
				t.Fatal(err)
			}
			got, err := p.Get(packet.FieldDSCP)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != tt.dscp {
				t.Errorf("DSCP = %#x, want %#x", got[0], tt.dscp)
			}
			if c, _ := g.ClassOf(flowFID(i + 1)); c != tt.want {
				t.Errorf("class = %v, want %v", c, tt.want)
			}
		})
	}
}

func TestRewritesMACAndTTL(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	g, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	p := pkt(t, 80, 64)
	ctx := core.NewCtx("gw", core.CtxConfig{FID: 1, Events: tbl})
	if _, err := g.Process(ctx, p); err != nil {
		t.Fatal(err)
	}
	mac, _ := p.Get(packet.FieldDstMAC)
	wantMAC := cfg().NextHopMAC
	if !bytes.Equal(mac, wantMAC[:]) {
		t.Errorf("dst MAC = %x", mac)
	}
	if p.TTL() != 63 {
		t.Errorf("TTL = %d, want 63", p.TTL())
	}
	if !p.VerifyChecksums() {
		t.Error("checksums stale")
	}
}

func TestRecordingAndConsolidation(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	g, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.NewCtx("gw", core.CtxConfig{FID: 9, Events: tbl, Recording: true})
	if _, err := g.Process(ctx, pkt(t, 5060, 64)); err != nil {
		t.Fatal(err)
	}
	rule, ok := ctx.Recorded()
	if !ok || len(rule.Actions) != 3 {
		t.Fatalf("recorded %d actions, want TTL+DSCP+MAC", len(rule.Actions))
	}
	// Consolidate and apply on a fresh packet: identical output to
	// the direct path.
	grule, err := mat.Consolidate(9, []mat.Contribution{{NF: "gw", Rule: rule}})
	if err != nil {
		t.Fatal(err)
	}
	direct := pkt(t, 5060, 64)
	dctx := core.NewCtx("gw", core.CtxConfig{FID: 9, Events: tbl})
	if _, err := g.Process(dctx, direct); err != nil {
		t.Fatal(err)
	}
	fast := pkt(t, 5060, 64)
	if _, err := grule.ExecHeader(fast); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Data(), fast.Data()) {
		t.Error("consolidated output differs from direct gateway output")
	}
}

func TestStableClassPerFlow(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	g, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ctx := core.NewCtx("gw", core.CtxConfig{FID: 5, Events: tbl})
		if _, err := g.Process(ctx, pkt(t, 5060, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if c, ok := g.ClassOf(5); !ok || c != ClassVoice {
		t.Errorf("class = (%v, %v)", c, ok)
	}
}

func TestClassString(t *testing.T) {
	if ClassVoice.String() != "voice" || ClassVideo.String() != "video" || ClassBestEffort.String() != "best-effort" {
		t.Error("class strings wrong")
	}
}

func flowFID(n int) flow.FID { return flow.FID(n) }
