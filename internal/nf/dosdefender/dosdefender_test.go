package dosdefender

import (
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

func synPkt(t *testing.T) *packet.Packet {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(6, 6, 6, 6), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: 6666, DstPort: 80, Proto: packet.ProtoTCP, TCPFlags: packet.TCPFlagSYN,
	})
}

func ackPkt(t *testing.T) *packet.Packet {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(6, 6, 6, 6), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: 6666, DstPort: 80, Proto: packet.ProtoTCP, TCPFlags: packet.TCPFlagACK,
		Payload: []byte("d"),
	})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty name accepted")
	}
	d, err := New(Config{Name: "dos"})
	if err != nil {
		t.Fatal(err)
	}
	if d.threshold != 100 {
		t.Errorf("default threshold = %d, want Figure 3's 100", d.threshold)
	}
}

func TestCountsOnlySYN(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	d, err := New(Config{Name: "dos", SYNThreshold: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Process(core.NewCtx("dos", core.CtxConfig{FID: 1, Events: tbl}), synPkt(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Process(core.NewCtx("dos", core.CtxConfig{FID: 1, Events: tbl}), ackPkt(t)); err != nil {
		t.Fatal(err)
	}
	if got := d.SYNCount(1); got != 1 {
		t.Errorf("SYNCount = %d, want 1 (ACK not counted)", got)
	}
}

func TestThresholdBlocks(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	d, err := New(Config{Name: "dos", SYNThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Threshold is strict (cnt > threshold, per Figure 3): the 4th
	// SYN crosses it.
	for i := 0; i < 3; i++ {
		v, err := d.Process(core.NewCtx("dos", core.CtxConfig{FID: 1, Events: tbl}), synPkt(t))
		if err != nil {
			t.Fatal(err)
		}
		if v != core.VerdictForward {
			t.Fatalf("SYN %d blocked early", i+1)
		}
	}
	v, err := d.Process(core.NewCtx("dos", core.CtxConfig{FID: 1, Events: tbl}), synPkt(t))
	if err != nil {
		t.Fatal(err)
	}
	if v != core.VerdictDrop {
		t.Error("4th SYN not dropped")
	}
	if !d.Blocked(1) {
		t.Error("flow not marked blocked")
	}
	// Other flows unaffected.
	if d.Blocked(2) {
		t.Error("unrelated flow blocked")
	}
}

func TestEventFlipsRuleToDrop(t *testing.T) {
	// Figure 3's walkthrough: the recorded SF counts SYNs on the fast
	// path; when the count crosses the threshold, the event replaces
	// the flow's forward action with drop.
	d, err := New(Config{Name: "dos", SYNThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine([]core.NF{d}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var fid flow.FID
	for _, p := range []*packet.Packet{synPkt(t), ackPkt(t)} {
		res, err := eng.ProcessPacket(p)
		if err != nil {
			t.Fatal(err)
		}
		fid = res.FID
	}
	rule, ok := eng.Global().LookupLive(fid)
	if !ok || len(rule.Batches) != 1 || rule.Drop || rule.Guards == nil {
		t.Fatalf("recorded rule = %v, want a forward counting SYNs and guarded by the block", rule)
	}
	// Fast-path SYNs via the recorded handler.
	if _, err := rule.Batches[0].RunSequential(synPkt(t)); err != nil {
		t.Fatal(err)
	}
	events := eng.Events()
	if fired, _ := events.Probe(fid); len(fired) != 0 {
		t.Fatal("event fired below threshold")
	}
	if _, err := rule.Batches[0].RunSequential(synPkt(t)); err != nil {
		t.Fatal(err)
	}
	if fired, _ := events.Probe(fid); len(fired) != 1 {
		t.Fatalf("fired = %d, want 1 above threshold", len(fired))
	}
	res, err := eng.ProcessPacket(ackPkt(t))
	if err != nil {
		t.Fatal(err)
	}
	updated, _ := eng.Global().LookupLive(fid)
	if res.Path != core.PathFast || res.Fast.EventsFired != 1 || res.Verdict != core.VerdictDrop || !updated.Drop || updated.Guards != nil {
		t.Errorf("packet after the threshold: path %v, %d fired, verdict %v; rule %v; want the event to make the rule a drop",
			res.Path, res.Fast.EventsFired, res.Verdict, updated)
	}
}

// TestSnapshotRoundTrip: a flow's SYN count and block mark are state on
// its flow record, so they survive a checkpoint onto a fresh Defender
// with no Snapshotter of the NF's own.
func TestSnapshotRoundTrip(t *testing.T) {
	boot := func() (*Defender, *core.Engine) {
		t.Helper()
		d, err := New(Config{Name: "dos", SYNThreshold: 2})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine([]core.NF{d}, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return d, eng
	}
	d, eng := boot()
	var fid flow.FID
	for i := 0; i < 3; i++ {
		res, err := eng.ProcessPacket(synPkt(t))
		if err != nil {
			t.Fatal(err)
		}
		fid = res.FID
	}
	if !d.Blocked(fid) {
		t.Fatal("flow not blocked after threshold+1 SYNs")
	}
	cp, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp, err = wal.DecodeCheckpoint(cp.Encode()); err != nil {
		t.Fatal(err)
	}
	if _, ok := interface{}(d).(core.Snapshotter); ok || len(cp.NFState) != 0 {
		t.Errorf("the defender keeps no cross-flow state, yet the checkpoint carries %d NF blob(s)", len(cp.NFState))
	}

	d, eng = boot()
	if err := eng.Restore(cp, nil); err != nil {
		t.Fatal(err)
	}
	if !d.Blocked(fid) || d.SYNCount(fid) != 3 {
		t.Errorf("after restore: blocked = %v, SYNs = %d, want true, 3", d.Blocked(fid), d.SYNCount(fid))
	}
	pkt := ackPkt(t)
	if _, err := eng.ProcessPacket(pkt); err != nil {
		t.Fatal(err)
	}
	if !pkt.Dropped() {
		t.Error("blocked flow forwarded after restore")
	}
}
