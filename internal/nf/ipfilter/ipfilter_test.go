package ipfilter

import (
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

func pkt(t *testing.T, src, dst [4]byte, dport uint16) *packet.Packet {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcIP: src, DstIP: dst, SrcPort: 40000, DstPort: dport,
		Proto: packet.ProtoTCP, TCPFlags: packet.TCPFlagACK,
	})
}

func TestPrefixMatches(t *testing.T) {
	tests := []struct {
		name   string
		prefix Prefix
		ip     [4]byte
		want   bool
	}{
		{"zero bits matches anything", Prefix{}, packet.IP4(1, 2, 3, 4), true},
		{"/8 match", Prefix{Addr: packet.IP4(10, 0, 0, 0), Bits: 8}, packet.IP4(10, 99, 1, 2), true},
		{"/8 miss", Prefix{Addr: packet.IP4(10, 0, 0, 0), Bits: 8}, packet.IP4(11, 0, 0, 1), false},
		{"/32 exact", Prefix{Addr: packet.IP4(1, 2, 3, 4), Bits: 32}, packet.IP4(1, 2, 3, 4), true},
		{"/32 near miss", Prefix{Addr: packet.IP4(1, 2, 3, 4), Bits: 32}, packet.IP4(1, 2, 3, 5), false},
		{"/24 boundary", Prefix{Addr: packet.IP4(192, 168, 1, 0), Bits: 24}, packet.IP4(192, 168, 1, 255), true},
		{"bits above 32 clamp", Prefix{Addr: packet.IP4(1, 2, 3, 4), Bits: 64}, packet.IP4(1, 2, 3, 4), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.prefix.Matches(tt.ip); got != tt.want {
				t.Errorf("Matches(%v) = %v, want %v", tt.ip, got, tt.want)
			}
		})
	}
}

func TestPortRange(t *testing.T) {
	any := PortRange{}
	if !any.Matches(0) || !any.Matches(65535) {
		t.Error("zero range must match any port")
	}
	r := PortRange{Lo: 80, Hi: 443}
	for port, want := range map[uint16]bool{79: false, 80: true, 200: true, 443: true, 444: false} {
		if r.Matches(port) != want {
			t.Errorf("Matches(%d) = %v, want %v", port, !want, want)
		}
	}
}

func TestRuleMatching(t *testing.T) {
	r := Rule{
		Src:     Prefix{Addr: packet.IP4(10, 0, 0, 0), Bits: 8},
		DstPort: PortRange{Lo: 80, Hi: 80},
		Proto:   packet.ProtoTCP,
		Deny:    true,
	}
	ft := packet.FiveTuple{SrcIP: packet.IP4(10, 1, 1, 1), DstIP: packet.IP4(5, 5, 5, 5), SrcPort: 999, DstPort: 80, Proto: packet.ProtoTCP}
	if !r.Matches(ft) {
		t.Error("rule should match")
	}
	ft.Proto = packet.ProtoUDP
	if r.Matches(ft) {
		t.Error("rule matched wrong protocol")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty name accepted")
	}
}

func TestProcessAllowAndDeny(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	f, err := New(Config{
		Name: "fw",
		Rules: []Rule{
			{Src: Prefix{Addr: packet.IP4(66, 0, 0, 0), Bits: 8}, Deny: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	allowCtx := core.NewCtx("fw", core.CtxConfig{FID: 1, Events: tbl, Recording: true})
	v, err := f.Process(allowCtx, pkt(t, packet.IP4(10, 0, 0, 1), packet.IP4(20, 0, 0, 1), 80))
	if err != nil {
		t.Fatal(err)
	}
	if v != core.VerdictForward {
		t.Errorf("benign flow verdict = %v", v)
	}

	denyCtx := core.NewCtx("fw", core.CtxConfig{FID: 2, Events: tbl, Recording: true})
	v, err = f.Process(denyCtx, pkt(t, packet.IP4(66, 6, 6, 6), packet.IP4(20, 0, 0, 1), 80))
	if err != nil {
		t.Fatal(err)
	}
	if v != core.VerdictDrop {
		t.Errorf("blacklisted flow verdict = %v", v)
	}

	st := f.Stats()
	if st.Allowed != 1 || st.Denied != 1 || st.Scanned != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDefaultDeny(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	f, err := New(Config{Name: "fw", DefaultDeny: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.NewCtx("fw", core.CtxConfig{FID: 1, Events: tbl})
	v, err := f.Process(ctx, pkt(t, packet.IP4(1, 1, 1, 1), packet.IP4(2, 2, 2, 2), 80))
	if err != nil {
		t.Fatal(err)
	}
	if v != core.VerdictDrop {
		t.Errorf("default-deny verdict = %v", v)
	}
}

func TestFirstMatchWins(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	f, err := New(Config{
		Name: "fw",
		Rules: []Rule{
			{Dst: Prefix{Addr: packet.IP4(20, 0, 0, 1), Bits: 32}, Deny: false},
			{Dst: Prefix{Addr: packet.IP4(20, 0, 0, 0), Bits: 8}, Deny: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.NewCtx("fw", core.CtxConfig{FID: 1, Events: tbl})
	v, err := f.Process(ctx, pkt(t, packet.IP4(9, 9, 9, 9), packet.IP4(20, 0, 0, 1), 80))
	if err != nil {
		t.Fatal(err)
	}
	if v != core.VerdictForward {
		t.Error("specific allow rule shadowed by broad deny")
	}
}

func TestCacheHitChargesLess(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	model := cost.DefaultModel()
	f, err := New(Config{Name: "fw", Rules: PadRules(nil, 100)})
	if err != nil {
		t.Fatal(err)
	}
	p := func() *packet.Packet { return pkt(t, packet.IP4(10, 0, 0, 1), packet.IP4(20, 0, 0, 1), 80) }

	l1 := cost.NewLedger()
	if _, err := f.Process(core.NewCtx("fw", core.CtxConfig{FID: 1, Events: tbl, Model: model, Ledger: l1}), p()); err != nil {
		t.Fatal(err)
	}
	l2 := cost.NewLedger()
	if _, err := f.Process(core.NewCtx("fw", core.CtxConfig{FID: 1, Events: tbl, Model: model, Ledger: l2}), p()); err != nil {
		t.Fatal(err)
	}
	if l2.Total() >= l1.Total() {
		t.Errorf("cache hit (%d cycles) not cheaper than ACL scan (%d)", l2.Total(), l1.Total())
	}
	// The scan cost must scale with the 100-rule ACL.
	if l1.Total()-l2.Total() < model.ACLScanCost(100)/2 {
		t.Errorf("scan/hit delta %d implausibly small", l1.Total()-l2.Total())
	}
}

func TestRecordingProducesActions(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	f, err := New(Config{Name: "fw"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.NewCtx("fw", core.CtxConfig{FID: 7, Events: tbl, Recording: true})
	if _, err := f.Process(ctx, pkt(t, packet.IP4(1, 1, 1, 1), packet.IP4(2, 2, 2, 2), 80)); err != nil {
		t.Fatal(err)
	}
	rule, ok := ctx.Recorded()
	if !ok || len(rule.Actions) != 1 || rule.Actions[0].Kind != mat.ActionForward {
		t.Errorf("recorded rule = %+v", rule)
	}
}

func TestPadRules(t *testing.T) {
	rules := PadRules([]Rule{{Deny: true}}, 50)
	if len(rules) != 50 {
		t.Fatalf("len = %d", len(rules))
	}
	// Padding rules must never match real traffic.
	ft := packet.FiveTuple{SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(20, 0, 0, 1), SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	for i, r := range rules[1:] {
		if r.Matches(ft) {
			t.Errorf("padding rule %d matches real traffic", i+1)
		}
	}
	// Padding an already-long list is a no-op.
	if got := PadRules(rules, 10); len(got) != 50 {
		t.Errorf("shrinking pad changed length to %d", len(got))
	}
}

func TestProcessUnparsedPacket(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	f, err := New(Config{Name: "fw"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.NewCtx("fw", core.CtxConfig{FID: 1, Events: tbl})
	if _, err := f.Process(ctx, packet.New([]byte{1})); err == nil {
		t.Error("unparseable packet accepted")
	}
}

func TestFlowClosedReleasesCache(t *testing.T) {
	flows := flow.NewTable()
	tbl := event.NewTable(flows)
	f, err := New(Config{Name: "fw", Rules: PadRules(nil, 10)})
	if err != nil {
		t.Fatal(err)
	}
	p := pkt(t, packet.IP4(10, 0, 0, 1), packet.IP4(20, 0, 0, 1), 80)
	for i := 0; i < 2; i++ {
		if _, err := f.Process(core.NewCtx("fw", core.CtxConfig{FID: 9, Events: tbl}), p); err != nil {
			t.Fatal(err)
		}
	}
	if f.flows.Of(9) == nil || f.Stats().Scanned != 1 {
		t.Fatalf("decision not cached on the flow's record: %+v", f.Stats())
	}
	ed := flows.Edit(9, false)
	tbl.DropState(ed, true)
	ed.Done()
	if f.flows.Of(9) != nil {
		t.Error("cached decision survived the flow's end")
	}
	ed = flows.Edit(9, false) // idempotent
	tbl.DropState(ed, true)
	ed.Done()
	if _, err := f.Process(core.NewCtx("fw", core.CtxConfig{FID: 9, Events: tbl}), p); err != nil {
		t.Fatal(err)
	}
	if f.Stats().Scanned != 2 {
		t.Errorf("a new flow under the FID reused the old one's decision: %+v", f.Stats())
	}
}

// TestRescanOnNewTuple: a decision is good only for the tuple it was
// made on. A flow that shows the filter a different tuple — an upstream
// NF started rewriting it differently — is scanned again, and the new
// verdict replaces the old.
func TestRescanOnNewTuple(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	f, err := New(Config{Name: "fw", Rules: []Rule{
		{Dst: Prefix{Addr: packet.IP4(20, 0, 0, 2), Bits: 32}, Deny: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	send := func(dst [4]byte) core.Verdict {
		t.Helper()
		v, err := f.Process(core.NewCtx("fw", core.CtxConfig{FID: 3, Events: tbl}), pkt(t, packet.IP4(10, 0, 0, 1), dst, 80))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if v := send(packet.IP4(20, 0, 0, 1)); v != core.VerdictForward {
		t.Fatalf("allowed backend: %v", v)
	}
	if v := send(packet.IP4(20, 0, 0, 2)); v != core.VerdictDrop {
		t.Errorf("after the upstream rewrite changed, the flow kept its old verdict: %v", v)
	}
	if v := send(packet.IP4(20, 0, 0, 2)); v != core.VerdictDrop {
		t.Errorf("second packet to the denied backend: %v", v)
	}
	if st := f.Stats(); st.Scanned != 2 || st.Allowed != 1 || st.Denied != 1 {
		t.Errorf("stats %+v, want one scan a tuple", st)
	}
}
