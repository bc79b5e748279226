package snort

import (
	"math/bits"
	"regexp"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

func pkt(t *testing.T, dport uint16, payload string) *packet.Packet {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: 1234, DstPort: dport, Proto: packet.ProtoTCP,
		Payload: []byte(payload),
	})
}

func TestNewValidation(t *testing.T) {
	if _, err := New("", nil); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := New("ids", []Rule{{ID: 1, Type: RuleType(9)}}); err == nil {
		t.Error("invalid rule type accepted")
	}
}

func TestRuleTypeString(t *testing.T) {
	for rt, want := range map[RuleType]string{TypePass: "pass", TypeAlert: "alert", TypeLog: "log"} {
		if rt.String() != want {
			t.Errorf("%d.String() = %q", rt, rt.String())
		}
	}
}

// TestAllThreeRuleTypes mirrors the paper's §VII-C1 equivalence test:
// flows matching Pass, Alert and Log rules cover the conditional
// branches.
func TestAllThreeRuleTypes(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	s, err := New("ids", []Rule{
		{ID: 1, Type: TypePass, Content: []byte("BENIGN")},
		{ID: 2, Type: TypeAlert, Content: []byte("EVIL"), Msg: "bad"},
		{ID: 3, Type: TypeLog, Content: []byte("WATCH"), Msg: "observed"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		fid      uint32
		payload  string
		wantLogs int
		wantFlag bool
	}{
		{1, "hello BENIGN world", 0, false},
		{2, "prefix EVIL suffix", 1, true},
		{3, "WATCH this", 1, false},
		{4, "nothing interesting", 0, false},
	}
	total := 0
	for _, c := range cases {
		ctx := core.NewCtx("ids", core.CtxConfig{FID: flowFID(c.fid), Events: tbl})
		if _, err := s.Process(ctx, pkt(t, 80, c.payload)); err != nil {
			t.Fatal(err)
		}
		total += c.wantLogs
		if got := s.Flagged(flowFID(c.fid)); got != c.wantFlag {
			t.Errorf("fid %d flagged = %v, want %v", c.fid, got, c.wantFlag)
		}
	}
	logs := s.Logs()
	if len(logs) != total {
		t.Fatalf("logs = %d, want %d", len(logs), total)
	}
	if logs[0].RuleID != 2 || logs[0].Type != TypeAlert {
		t.Errorf("first log = %+v", logs[0])
	}
	if logs[1].RuleID != 3 || logs[1].Type != TypeLog {
		t.Errorf("second log = %+v", logs[1])
	}
}

func TestRegexRules(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	s, err := New("ids", []Rule{
		{ID: 10, Type: TypeAlert, Pattern: regexp.MustCompile(`(?i)select\s.+\sfrom`), Msg: "sqli"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.NewCtx("ids", core.CtxConfig{FID: 1, Events: tbl})
	if _, err := s.Process(ctx, pkt(t, 80, "q=SELECT secret FROM users")); err != nil {
		t.Fatal(err)
	}
	if len(s.Logs()) != 1 {
		t.Fatal("regex rule did not match")
	}
	ctx2 := core.NewCtx("ids", core.CtxConfig{FID: 2, Events: tbl})
	if _, err := s.Process(ctx2, pkt(t, 80, "SELECTED FROMAGE")); err != nil {
		t.Fatal(err)
	}
	if len(s.Logs()) != 1 {
		t.Error("regex rule matched non-matching payload")
	}
}

func TestHeaderFiltersScopeRules(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	s, err := New("ids", []Rule{
		{ID: 1, Type: TypeAlert, DstPort: 443, Content: []byte("X"), Msg: "tls only"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Flow to port 80: rule's header filter excludes it, so even a
	// payload match must not fire.
	ctx := core.NewCtx("ids", core.CtxConfig{FID: 1, Events: tbl})
	if _, err := s.Process(ctx, pkt(t, 80, "X marks the spot")); err != nil {
		t.Fatal(err)
	}
	if len(s.Logs()) != 0 {
		t.Error("rule fired outside its header scope")
	}
	ctx2 := core.NewCtx("ids", core.CtxConfig{FID: 2, Events: tbl})
	if _, err := s.Process(ctx2, pkt(t, 443, "X marks the spot")); err != nil {
		t.Fatal(err)
	}
	if len(s.Logs()) != 1 {
		t.Error("rule did not fire inside its header scope")
	}
}

func TestFirstMatchWins(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	// Pass before Alert suppresses the alert (Snort semantics).
	s, err := New("ids", []Rule{
		{ID: 1, Type: TypePass, Content: []byte("EVIL-BUT-ALLOWED")},
		{ID: 2, Type: TypeAlert, Content: []byte("EVIL"), Msg: "bad"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.NewCtx("ids", core.CtxConfig{FID: 1, Events: tbl})
	if _, err := s.Process(ctx, pkt(t, 80, "EVIL-BUT-ALLOWED traffic")); err != nil {
		t.Fatal(err)
	}
	if len(s.Logs()) != 0 {
		t.Error("pass rule did not suppress downstream alert")
	}
}

func TestRecordedStateFunctionEquivalence(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	// The recorded handler must produce the same logs as the direct
	// path — the core of §VII-C1.
	s, err := New("ids", DefaultRules())
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.NewCtx("ids", core.CtxConfig{FID: 5, Events: tbl, Recording: true, Flows: s.FlowStates()})
	if _, err := s.Process(ctx, pkt(t, 80, "clean first packet")); err != nil {
		t.Fatal(err)
	}
	rule, ok := ctx.Recorded()
	if !ok || len(rule.Funcs) != 1 {
		t.Fatalf("rule = %+v", rule)
	}
	batch := recorded(ctx, &s.flows)
	if batch.Class() != sfunc.ClassRead {
		t.Errorf("class = %v, want read", batch.Class())
	}
	if rule.Actions[0].Kind != mat.ActionForward {
		t.Errorf("snort header action = %v, want forward", rule.Actions[0])
	}
	// Fast-path invocation on a malicious subsequent packet.
	if _, err := batch.RunSequential(pkt(t, 80, "ATTACK payload")); err != nil {
		t.Fatal(err)
	}
	logs := s.Logs()
	if len(logs) != 1 || logs[0].RuleID != 1001 {
		t.Errorf("logs after fast-path inspect = %+v", logs)
	}
	if !s.Flagged(5) {
		t.Error("flow not flagged by fast-path inspection")
	}
}

func TestPerFlowRuleAssignmentIsCached(t *testing.T) {
	s, err := New("ids", DefaultRules())
	if err != nil {
		t.Fatal(err)
	}
	ft := packet.FiveTuple{SrcIP: packet.IP4(1, 1, 1, 1), DstIP: packet.IP4(2, 2, 2, 2), SrcPort: 9, DstPort: 80, Proto: packet.ProtoTCP}
	st := make(core.State, s.flows.Words)
	s.assign(st, ft)
	first := st[1].Load()
	// A second call keeps the assignment it finds, whatever the tuple.
	s.assign(st, packet.FiveTuple{Proto: packet.ProtoUDP})
	if st[1].Load() != first {
		t.Error("assignment not stable")
	}
	// DefaultRules all have empty header filters, so all match.
	if n := bits.OnesCount64(first); n != len(DefaultRules()) {
		t.Errorf("assigned %d rules, want %d", n, len(DefaultRules()))
	}
}

func flowFID(n uint32) flow.FID { return flow.FID(n) }

// TestSnapshotCarriesLog: the snapshot is the IDS log; restoring it
// replaces a fresh instance's log entry for entry.
func TestSnapshotCarriesLog(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	rules := []Rule{
		{ID: 2, Type: TypeAlert, Content: []byte("EVIL"), Msg: "bad"},
		{ID: 3, Type: TypeLog, Content: []byte("WATCH"), Msg: "observed"},
	}
	s, err := New("ids", rules)
	if err != nil {
		t.Fatal(err)
	}
	for i, payload := range []string{"EVIL one", "WATCH two", "quiet"} {
		ctx := core.NewCtx("ids", core.CtxConfig{FID: flowFID(uint32(i + 1)), Events: tbl})
		if _, err := s.Process(ctx, pkt(t, 80, payload)); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := s.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New("ids", rules)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	want, got := s.Logs(), fresh.Logs()
	if len(want) != 2 || len(got) != len(want) {
		t.Fatalf("restored %d log entries, original %d (want 2)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d: restored %+v, original %+v", i, got[i], want[i])
		}
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
