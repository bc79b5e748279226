package ratelimiter

import (
	"encoding/binary"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/bess"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty name accepted")
	}
	l, err := New(Config{Name: "rl"})
	if err != nil {
		t.Fatal(err)
	}
	if l.quota != 1000 {
		t.Errorf("default quota = %d", l.quota)
	}
}

func mkPkt(t *testing.T, src [4]byte, sport uint16, seq int) *packet.Packet {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcIP: src, DstIP: packet.IP4(10, 9, 9, 9),
		SrcPort: sport, DstPort: 53, Proto: packet.ProtoUDP,
		Payload: []byte{byte(seq)},
	})
}

func TestSharedQuotaAcrossFlows(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	l, err := New(Config{Name: "rl", Quota: 5})
	if err != nil {
		t.Fatal(err)
	}
	src := packet.IP4(66, 6, 6, 6)
	// Two flows from the same source share the budget: 3 packets each
	// is 6 total, one over quota.
	verdicts := make([]core.Verdict, 0, 6)
	for i := 0; i < 3; i++ {
		for f := 0; f < 2; f++ {
			ctx := core.NewCtx("rl", core.CtxConfig{FID: flowFID(f + 1), Events: tbl})
			v, err := l.Process(ctx, mkPkt(t, src, uint16(1000+f), i))
			if err != nil {
				t.Fatal(err)
			}
			verdicts = append(verdicts, v)
		}
	}
	if verdicts[5] != core.VerdictDrop {
		t.Error("6th packet of shared source not dropped")
	}
	for i := 0; i < 5; i++ {
		if verdicts[i] != core.VerdictForward {
			t.Errorf("packet %d dropped under quota", i)
		}
	}
	if !l.Blocked(src) {
		t.Error("source not blocked")
	}
	// A different source is untouched.
	other := packet.IP4(7, 7, 7, 7)
	ctx := core.NewCtx("rl", core.CtxConfig{FID: 99, Events: tbl})
	if v, err := l.Process(ctx, mkPkt(t, other, 2000, 0)); err != nil || v != core.VerdictForward {
		t.Errorf("other source: %v, %v", v, err)
	}
}

// TestSharedEventBlocksSiblingFlows is the §IV-A2 shared-state
// behaviour end to end: two fast-pathed flows from one source share a
// quota; when the first flow exhausts it, the sibling flow's very next
// packet is also dropped by its own event firing on the shared
// condition.
func TestSharedEventBlocksSiblingFlows(t *testing.T) {
	l, err := New(Config{Name: "rl", Quota: 6})
	if err != nil {
		t.Fatal(err)
	}
	p, err := bess.New(bess.Config{Chain: []core.NF{l}, Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	src := packet.IP4(66, 6, 6, 6)

	// Establish flow A (port 1000) and flow B (port 2000): 2 packets
	// each -> count 4.
	for i := 0; i < 2; i++ {
		for _, sport := range []uint16{1000, 2000} {
			pkt := mkPkt(t, src, sport, i)
			if _, err := p.Process(pkt); err != nil {
				t.Fatal(err)
			}
			if pkt.Dropped() {
				t.Fatalf("packet dropped under quota (i=%d sport=%d)", i, sport)
			}
		}
	}
	// Flow A burns the rest of the budget: counts 5, 6, 7 -> blocked
	// at 7.
	for i := 0; i < 3; i++ {
		pkt := mkPkt(t, src, 1000, 10+i)
		if _, err := p.Process(pkt); err != nil {
			t.Fatal(err)
		}
		// The exact boundary on the fast path, as in the chain
		// (TestSharedQuotaAcrossFlows): packet quota+1 of the source is
		// the first dropped.
		if over := i == 2; pkt.Dropped() != over {
			t.Errorf("packet %d of the source: dropped = %v, want %v", 5+i, pkt.Dropped(), over)
		}
	}
	if !l.Blocked(src) {
		t.Fatal("source not blocked after burn")
	}
	// Flow B's next packet must be dropped — its own event fires on
	// the shared condition even though flow B itself stayed in-quota.
	pkt := mkPkt(t, src, 2000, 99)
	res, err := p.Process(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !pkt.Dropped() {
		t.Error("sibling flow not blocked by shared-state event")
	}
	if res.Result.Fast == nil || res.Result.Fast.EventsFired == 0 {
		t.Error("sibling block did not come from an event firing")
	}
}

// TestSnapshotRoundTrip: block state survives a checkpoint, and an
// empty snapshot restores to usable (non-nil) maps.
func TestSnapshotRoundTrip(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	src := packet.IP4(66, 6, 6, 6)
	process := func(l *Limiter) core.Verdict {
		t.Helper()
		v, err := l.Process(core.NewCtx("rl", core.CtxConfig{FID: 1, Events: tbl}), mkPkt(t, src, 1000, 0))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	restored := func(from *Limiter) *Limiter {
		t.Helper()
		blob, err := from.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		l, err := New(Config{Name: "rl", Quota: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.RestoreState(blob); err != nil {
			t.Fatal(err)
		}
		return l
	}
	fresh, err := New(Config{Name: "rl", Quota: 2})
	if err != nil {
		t.Fatal(err)
	}
	l := restored(fresh) // empty blob: the next Process must not panic
	for i := 0; i < 3; i++ {
		process(l)
	}
	if !l.Blocked(src) {
		t.Fatal("source not blocked after quota+1 packets")
	}
	l = restored(l)
	if !l.Blocked(src) || l.Count(src) != 3 {
		t.Errorf("after restore: blocked = %v, count = %d, want true, 3", l.Blocked(src), l.Count(src))
	}
	st := make(core.State, 1)
	st[0].Store(uint64(binary.BigEndian.Uint32(src[:])))
	if !l.sourceBlocked(st) {
		t.Error("restored limiter: the condition of a flow from the blocked source does not hold")
	}
	if v := process(l); v != core.VerdictDrop {
		t.Errorf("blocked source forwarded after restore: %v", v)
	}
	if err := l.RestoreState([]byte("not gob")); err == nil {
		t.Error("garbage snapshot accepted")
	}
}

func flowFID(n int) flow.FID { return flow.FID(n) }
