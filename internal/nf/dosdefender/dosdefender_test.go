package dosdefender

import (
	"math"
	"slices"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/nf/ipfilter"
	"github.com/fastpathnfv/speedybox/internal/nf/monitor"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// tcpPkt is a packet of the test's one flow.
func tcpPkt(flags uint8, payload string) *packet.Packet {
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(6, 6, 6, 6), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: 6666, DstPort: 80, Proto: packet.ProtoTCP, TCPFlags: flags,
		Payload: []byte(payload),
	})
}

func synPkt(t *testing.T) *packet.Packet {
	t.Helper()
	return tcpPkt(packet.TCPFlagSYN, "")
}

func ackPkt(t *testing.T) *packet.Packet {
	t.Helper()
	return tcpPkt(packet.TCPFlagACK, "d")
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
	// The event holds at threshold+1 SYNs: the largest threshold would
	// wrap it to 0 and drop every flow.
	if _, err := New(Config{Name: "dos", SYNThreshold: math.MaxUint64}); err == nil {
		t.Error("a threshold no count can exceed was accepted")
	}
	if d, err = New(Config{Name: "dos", SYNThreshold: math.MaxUint64 - 1}); err != nil {
		t.Fatal(err)
	}
	if ev := d.flows.Events[0]; ev.AtLeast != math.MaxUint64 {
		t.Errorf("event holds at %d SYNs, want %d", ev.AtLeast, uint64(math.MaxUint64))
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
	if !ok || len(rule.Batches) != 1 || !rule.Plan.Priced() || rule.Drop || rule.Guards == nil {
		t.Fatalf("recorded rule = %v, want a forward counting SYNs as data and guarded by the block", rule)
	}
	// Fast-path SYNs via the rule's adds.
	rule.Plan.Add(synPkt(t))
	events := eng.Events()
	if fired, _ := events.Probe(fid); len(fired) != 0 {
		t.Fatal("event fired below threshold")
	}
	rule.Plan.Add(synPkt(t))
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

// TestSnapshotRoundTrip: a flow's SYN count is state on its flow
// record, so it survives a checkpoint onto a fresh Defender with no
// Snapshotter of the NF's own.
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

// TestSYNFINOnTheFastPath: in a dos -> ipfilter -> monitor chain every
// state function is data, so an established flow's rule is priced where
// it is installed and run as its adds. A SYN|FIN, classified final, is
// the one SYN the fast path serves: it must move the flow's SYN count as
// the defender does on the baseline engine. The count is read as the
// flow's state leaves, at the SYN|FIN's teardown.
func TestSYNFINOnTheFastPath(t *testing.T) {
	run := func(opts core.Options) (left []uint64, res *core.PacketResult, rule bool) {
		t.Helper()
		d, err := New(Config{Name: "dos"})
		if err != nil {
			t.Fatal(err)
		}
		d.flows.Leave = func(st core.State, _ bool) { left = append(left, st[0].Load()) }
		fw, err := ipfilter.New(ipfilter.Config{Name: "fw"})
		if err != nil {
			t.Fatal(err)
		}
		mon, err := monitor.New("mon")
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine([]core.NF{d, fw, mon}, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range []*packet.Packet{synPkt(t), ackPkt(t), ackPkt(t), tcpPkt(packet.TCPFlagSYN|packet.TCPFlagFIN, "")} {
			if res, err = eng.ProcessPacket(p); err != nil {
				t.Fatal(err)
			}
			if i == 1 && opts.EnableSpeedyBox {
				r, ok := eng.Global().LookupLive(res.FID)
				rule = ok && r.Plan.Priced()
			}
		}
		return left, res, rule
	}
	base, _, _ := run(core.BaselineOptions())
	got, res, priced := run(core.DefaultOptions())
	if !priced {
		t.Error("the flow's rule after set-up is not priced: a state function of the chain is not data")
	}
	if res.Kind != classifier.KindFinal || res.Path != core.PathFast || res.Verdict != core.VerdictForward {
		t.Errorf("SYN|FIN: kind %v, path %v, verdict %v; want final, served on the fast path, forwarded", res.Kind, res.Path, res.Verdict)
	}
	if len(base) != 1 || base[0] != 2 || !slices.Equal(got, base) {
		t.Errorf("SYN count as the flow's state leaves: %v, baseline %v; want [2] on both", got, base)
	}
}
