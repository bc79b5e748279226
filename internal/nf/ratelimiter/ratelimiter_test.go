package ratelimiter

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

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
	if res.Result.Path != core.PathFast || res.Result.Fast.EventsFired == 0 {
		t.Error("sibling block did not come from an event firing")
	}
}

// TestSnapshotRoundTrip: block state survives a checkpoint, and an
// empty snapshot restores to a usable limiter.
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
	if l.sourceCount(st).Load() < l.quota {
		t.Error("restored limiter: the condition of a flow from the blocked source does not hold")
	}
	if v := process(l); v != core.VerdictDrop {
		t.Errorf("blocked source forwarded after restore: %v", v)
	}
	if err := l.RestoreState([]byte("not gob")); err == nil {
		t.Error("garbage snapshot accepted")
	}
}

// TestFastPathTakesNoNFLock: a flow's state function charges its
// source's counter and its guard reads it, both with no lock, so its
// fast path runs under quota while the limiter's mutex is held.
func TestFastPathTakesNoNFLock(t *testing.T) {
	l, p := limited(t, 1000)
	src := packet.IP4(66, 6, 6, 6)
	if _, err := p.Process(mkPkt(t, src, 1000, 0)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	l.mu.Lock()
	go func() {
		for i := 0; i < 100; i++ {
			r, err := p.Process(mkPkt(t, src, 1000, i))
			if err == nil && (r.Result.Path != core.PathFast || r.Result.Fast.EventsFired != 0) {
				err = fmt.Errorf("packet %d: path %v, want a quiet fast-path packet", i, r.Result.Path)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	var err error
	select {
	case err = <-done:
		l.mu.Unlock()
	case <-time.After(time.Second):
		l.mu.Unlock()
		<-done
		t.Fatal("fast path of a flow under quota waited on the limiter's mutex")
	}
	if err != nil {
		t.Fatal(err)
	}
	if n := l.Count(src); n != 101 {
		t.Errorf("count %d after 101 packets, want 101", n)
	}
}

// TestRestoreKeepsCells: a flow whose guard was built before
// RestoreState reads the restored count — the restore stores into the
// counters rather than replacing them — so a snapshot that has the
// source at its quota drops the flow's next packet by its event.
func TestRestoreKeepsCells(t *testing.T) {
	l, p := limited(t, 5)
	src := packet.IP4(66, 6, 6, 6)
	for i := 0; i < 2; i++ {
		if _, err := p.Process(mkPkt(t, src, 1000, i)); err != nil {
			t.Fatal(err)
		}
	}
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(limiterState{Counts: map[[4]byte]uint64{src: 5}}); err != nil {
		t.Fatal(err)
	}
	if err := l.RestoreState(blob.Bytes()); err != nil {
		t.Fatal(err)
	}
	pkt := mkPkt(t, src, 1000, 2)
	r, err := p.Process(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !pkt.Dropped() || r.Result.Path != core.PathFast || r.Result.Fast.EventsFired != 1 {
		t.Errorf("packet after the restore: dropped %v, result %+v; want a drop by one firing", pkt.Dropped(), r.Result)
	}
	// The rule's count adds to the cell bound before the restore, too.
	if n := l.Count(src); n != 6 {
		t.Errorf("count %d after the restored 5 and one packet, want 6", n)
	}
}

// TestQuotaIsData: the quota is declared as data, an add to the source's
// shared counter, so a flow's rule is priced where it is installed and
// its fast path resolves the counter never: the set-up resolves it
// twice, once where the chain runs the add (core.Ctx.Run) and once where
// the rule is built and binds it, and no later packet does.
func TestQuotaIsData(t *testing.T) {
	l, err := New(Config{Name: "rl", Quota: 1000})
	if err != nil {
		t.Fatal(err)
	}
	var resolved atomic.Int64
	add := &l.flows.Funcs[0].Adds[0]
	cell := add.Cell
	add.Cell = func(st core.State) *atomic.Uint64 {
		resolved.Add(1)
		return cell(st)
	}
	eng, err := core.NewEngine([]core.NF{l}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	src := packet.IP4(66, 6, 6, 6)
	var setup int64
	for i := 0; i < 50; i++ {
		res, err := eng.ProcessPacket(mkPkt(t, src, 1000, i))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if r, ok := eng.Global().LookupLive(res.FID); !ok || !r.Plan.Priced() {
				t.Fatalf("rule after set-up %v: want one priced, its functions all data", r)
			}
			setup = resolved.Load()
		} else if res.Path != core.PathFast {
			t.Fatalf("packet %d: path %v, want fast", i, res.Path)
		}
	}
	if setup != 2 {
		t.Errorf("%d resolutions of the counter by the set-up; want 2 (the chain's add, the rule's build)", setup)
	}
	if n, c := resolved.Load()-setup, l.Count(src); n != 0 || c != 50 {
		t.Errorf("%d resolutions of the counter on the fast path and count %d after 50 packets; want 0, 50", n, c)
	}
}

// limited is a limiter of the quota alone in a chain.
func limited(t *testing.T, quota uint64) (*Limiter, *bess.Platform) {
	t.Helper()
	l, err := New(Config{Name: "rl", Quota: quota})
	if err != nil {
		t.Fatal(err)
	}
	p, err := bess.New(bess.Config{Chain: []core.NF{l}, Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return l, p
}

func flowFID(n int) flow.FID { return flow.FID(n) }
