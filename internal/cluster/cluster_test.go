package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/chainspec"
	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/nf/gateway"
	"github.com/fastpathnfv/speedybox/internal/nf/ipfilter"
	"github.com/fastpathnfv/speedybox/internal/nf/maglev"
	"github.com/fastpathnfv/speedybox/internal/nf/monitor"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
	"github.com/fastpathnfv/speedybox/internal/trace"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// testChain builds a header-transform chain (IPFilter -> Gateway) and
// optionally a Monitor. Without the monitor no NF records state
// functions, so consolidated rules are batch-free; with it every rule
// carries the monitor's batch by reference. Either way a live rule
// travels in its migration record.
func testChain(t *testing.T, withMonitor bool) []core.NF {
	t.Helper()
	fw, err := ipfilter.New(ipfilter.Config{Name: "ipfilter", Rules: ipfilter.PadRules(nil, 50)})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := gateway.New(gateway.Config{Name: "gateway", NextHopMAC: [6]byte{2, 0, 0, 0, 0, 0xfe}})
	if err != nil {
		t.Fatal(err)
	}
	nfs := []core.NF{fw, gw}
	if withMonitor {
		mon, err := monitor.New("monitor")
		if err != nil {
			t.Fatal(err)
		}
		nfs = append(nfs, mon)
	}
	return nfs
}

func newTestCluster(t *testing.T, n int, withMonitor bool, inj *fault.Injector) *Cluster {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Faults = inj
	cl, err := New(Config{Chain: testChain(t, withMonitor), Options: opts, Instances: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func newRefEngine(t *testing.T, withMonitor bool) *core.Engine {
	t.Helper()
	eng, err := core.NewEngine(testChain(t, withMonitor), core.BaselineOptions())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// pkt builds one TCP packet of flow f (distinct 5-tuple per f).
func pkt(f int, flags uint8, seq uint32, payload string) *packet.Packet {
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(10, 0, byte(f>>8), byte(f)), DstIP: packet.IP4(192, 0, 2, 1),
		SrcPort: uint16(1024 + f), DstPort: 80, Proto: packet.ProtoTCP,
		TCPFlags: flags, Seq: seq,
		Payload: []byte(payload),
	})
}

// handshake returns SYN + bare ACK for flow f (leaves it Established).
func handshake(f int) []*packet.Packet {
	return []*packet.Packet{
		pkt(f, packet.TCPFlagSYN, 1, ""),
		pkt(f, packet.TCPFlagACK, 2, ""),
	}
}

func data(f int, seq uint32) *packet.Packet {
	return pkt(f, packet.TCPFlagACK, seq, fmt.Sprintf("payload-%d-%d", f, seq))
}

// compare runs clones of the same packet through the cluster and the
// reference engine and demands identical verdict, drop decision and
// rewritten bytes.
func compare(t *testing.T, cl *Cluster, ref *core.Engine, mk func() *packet.Packet, tag string) {
	t.Helper()
	cp, rp := mk(), mk()
	m, err := cl.Process(cp)
	if err != nil {
		t.Fatalf("%s: cluster: %v", tag, err)
	}
	rr, err := ref.ProcessPacket(rp)
	if err != nil {
		t.Fatalf("%s: reference: %v", tag, err)
	}
	if m.Result.Verdict != rr.Verdict {
		t.Fatalf("%s: verdict cluster %v, ref %v", tag, m.Result.Verdict, rr.Verdict)
	}
	if cp.Dropped() != rp.Dropped() {
		t.Fatalf("%s: dropped cluster %v, ref %v", tag, cp.Dropped(), rp.Dropped())
	}
	if !cp.Dropped() && !bytes.Equal(cp.Data(), rp.Data()) {
		t.Fatalf("%s: rewritten bytes differ", tag)
	}
}

// establish pushes flows 0..n-1 through handshake + one data packet
// on both the cluster and the reference.
func establish(t *testing.T, cl *Cluster, ref *core.Engine, n int) {
	t.Helper()
	for f := 0; f < n; f++ {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return pkt(f, packet.TCPFlagSYN, 1, "") }, "syn")
		compare(t, cl, ref, func() *packet.Packet { return pkt(f, packet.TCPFlagACK, 2, "") }, "ack")
		compare(t, cl, ref, func() *packet.Packet { return data(f, 3) }, "data")
	}
}

func TestClusterConfigValidation(t *testing.T) {
	chain := testChain(t, false)
	if _, err := New(Config{Chain: chain, Instances: DefaultTableSize}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("table no larger than fleet: %v", err)
	}
}

// TestScaleToRejectsOutOfRange: a target outside [1, DefaultTableSize-1)
// is refused before any instance starts or drains.
func TestScaleToRejectsOutOfRange(t *testing.T) {
	cl := newTestCluster(t, 2, false, nil)
	for _, n := range []int{0, -1, DefaultTableSize - 1} {
		if err := cl.ScaleTo(n); !errors.Is(err, ErrBadScale) {
			t.Errorf("ScaleTo(%d): err = %v, want %v", n, err, ErrBadScale)
		}
	}
	if cl.Len() != 2 || cl.Rebalances() != 0 {
		t.Errorf("after refused scales: %d instances, %d rebalances; want 2, 0", cl.Len(), cl.Rebalances())
	}
}

// TestScaleToDrainsNewestFirst: ScaleTo moves one instance a rebalance,
// names new instances by a counter that never reuses a retired name,
// drains the newest first, keeps every flow across the moves, and does
// nothing at the current size.
func TestScaleToDrainsNewestFirst(t *testing.T) {
	cl := newTestCluster(t, 1, false, nil)
	ref := newRefEngine(t, false)
	const flows = 40
	establish(t, cl, ref, flows)
	total := func() int {
		n := 0
		for i := 0; i < cl.Len(); i++ {
			n += cl.Engine(i).FlowLen()
		}
		return n
	}
	before := total()
	if before != flows {
		t.Fatalf("%d flows after set-up, want %d", before, flows)
	}
	for _, step := range []struct {
		n          int
		names      string
		rebalances uint64
	}{
		{3, "[i0 i1 i2]", 2},
		{3, "[i0 i1 i2]", 2},
		{2, "[i0 i1]", 3},
		{3, "[i0 i1 i3]", 4},
		{1, "[i0]", 6},
	} {
		if err := cl.ScaleTo(step.n); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(cl.Names()); got != step.names || cl.Rebalances() != step.rebalances {
			t.Fatalf("ScaleTo(%d): names %s after %d rebalances, want %s after %d",
				step.n, got, cl.Rebalances(), step.names, step.rebalances)
		}
		if got := total(); got != before {
			t.Fatalf("ScaleTo(%d): %d flows across the fleet, want %d", step.n, got, before)
		}
	}
	for f := 0; f < flows; f++ {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return data(f, 4) }, "after scaling")
	}
}

// TestCrashInstanceKeepsItsPlace: a crashed instance is replaced under
// its own name and steering slot, holding the flows it held; an index
// naming no instance is refused.
func TestCrashInstanceKeepsItsPlace(t *testing.T) {
	cl := newTestCluster(t, 3, false, nil)
	ref := newRefEngine(t, false)
	const flows = 30
	establish(t, cl, ref, flows)
	for _, i := range []int{-1, 3} {
		if err := cl.CrashInstance(i); !errors.Is(err, ErrUnknownInstance) {
			t.Errorf("CrashInstance(%d): err = %v, want %v", i, err, ErrUnknownInstance)
		}
	}
	names, held := fmt.Sprint(cl.Names()), cl.Engine(1).FlowLen()
	if held == 0 {
		t.Fatal("instance 1 holds no flow")
	}
	if err := cl.CrashInstance(1); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(cl.Names()); got != names {
		t.Errorf("names after crash %s, want %s", got, names)
	}
	if got := cl.Engine(1).FlowLen(); got != held {
		t.Errorf("replacement holds %d flows, the crashed instance %d", got, held)
	}
	for f := 0; f < flows; f++ {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return data(f, 4) }, "after crash")
	}
}

// TestMigrateMidHandshake scales out while flows are mid-handshake
// (SYN seen, ACK not yet): the half-open flows must migrate as flow
// entries and complete their handshake on the new owner with verdicts
// identical to the uninterrupted reference.
func TestMigrateMidHandshake(t *testing.T) {
	cl := newTestCluster(t, 1, false, nil)
	ref := newRefEngine(t, false)
	const flows = 24
	for f := 0; f < flows; f++ {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return pkt(f, packet.TCPFlagSYN, 1, "") }, "syn")
	}
	if err := cl.ScaleTo(cl.Len() + 1); err != nil {
		t.Fatal(err)
	}
	if got := cl.Migrations(); got == 0 {
		t.Fatal("no flows migrated on scale-out")
	}
	for f := 0; f < flows; f++ {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return pkt(f, packet.TCPFlagACK, 2, "") }, "ack after cutover")
		compare(t, cl, ref, func() *packet.Packet { return data(f, 3) }, "data after cutover")
		compare(t, cl, ref, func() *packet.Packet { return data(f, 4) }, "data 2 after cutover")
	}
}

// TestFINRacesMigration closes half the flows immediately before the
// rebalance: closed flows are torn down, the surviving half migrates,
// and post-cutover traffic (including a late FIN for a migrated flow)
// must match the reference.
func TestFINRacesMigration(t *testing.T) {
	cl := newTestCluster(t, 1, false, nil)
	ref := newRefEngine(t, false)
	const flows = 24
	establish(t, cl, ref, flows)
	for f := 0; f < flows; f += 2 {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return pkt(f, packet.TCPFlagFIN|packet.TCPFlagACK, 9, "") }, "fin before cutover")
	}
	if err := cl.ScaleTo(cl.Len() + 1); err != nil {
		t.Fatal(err)
	}
	for f := 1; f < flows; f += 2 {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return data(f, 5) }, "survivor data")
		compare(t, cl, ref, func() *packet.Packet { return pkt(f, packet.TCPFlagFIN|packet.TCPFlagACK, 9, "") }, "fin after cutover")
	}
}

// TestStaleRuleAtMigration reconfigures the chain right before the
// rebalance, leaving every consolidated rule stale (old epoch): the
// rebalance must demote those flows — migrate the entry, ship no rule
// — and their next packet re-records via the slow path, matching the
// reference, which applied the identical reconfiguration.
func TestStaleRuleAtMigration(t *testing.T) {
	cl := newTestCluster(t, 1, false, nil)
	ref := newRefEngine(t, false)
	const flows = 16
	establish(t, cl, ref, flows)

	mkPlan := func(name string) core.ChainPlan {
		nf, err := ipfilter.New(ipfilter.Config{Name: name, Rules: ipfilter.PadRules(nil, 10)})
		if err != nil {
			t.Fatal(err)
		}
		return core.ChainPlan{Op: core.OpInsert, Pos: 0, NF: nf}
	}
	if err := cl.Reconfigure(mkPlan("flt-a")); err != nil {
		t.Fatal(err)
	}
	if err := ref.Reconfigure(mkPlan("flt-b")); err != nil {
		t.Fatal(err)
	}
	before := cl.Migrations()
	if err := cl.ScaleTo(cl.Len() + 1); err != nil {
		t.Fatal(err)
	}
	if cl.Migrations() == before {
		t.Fatal("no flows migrated")
	}
	for f := 0; f < flows; f++ {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return data(f, 5) }, "re-record after stale move")
		compare(t, cl, ref, func() *packet.Packet { return data(f, 6) }, "fast after re-record")
	}
}

// TestSYNReuseAfterMigration closes a flow, scales out so its home
// slot lands on the new instance, then reuses the exact 5-tuple with
// a fresh SYN: the new owner must record it as a brand-new flow.
func TestSYNReuseAfterMigration(t *testing.T) {
	cl := newTestCluster(t, 1, false, nil)
	ref := newRefEngine(t, false)
	const flows = 24
	establish(t, cl, ref, flows)
	for f := 0; f < flows; f++ {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return pkt(f, packet.TCPFlagFIN|packet.TCPFlagACK, 9, "") }, "fin")
	}
	if err := cl.ScaleTo(cl.Len() + 1); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < flows; f++ {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return pkt(f, packet.TCPFlagSYN, 100, "") }, "reused syn")
		compare(t, cl, ref, func() *packet.Packet { return pkt(f, packet.TCPFlagACK, 101, "") }, "reused ack")
		compare(t, cl, ref, func() *packet.Packet { return data(f, 102) }, "reused data")
	}
}

// TestMigrateBack moves flows A→B (scale out) and immediately B→A
// (scale back in): the double move must be invisible, and the first
// instance must own every flow again.
func TestMigrateBack(t *testing.T) {
	cl := newTestCluster(t, 1, false, nil)
	ref := newRefEngine(t, false)
	const flows = 24
	establish(t, cl, ref, flows)
	total := cl.Engine(0).FlowLen()

	if err := cl.ScaleTo(2); err != nil {
		t.Fatal(err)
	}
	movedOut := cl.Migrations()
	if movedOut == 0 {
		t.Fatal("scale-out moved nothing")
	}
	if err := cl.ScaleTo(1); err != nil {
		t.Fatal(err)
	}
	if cl.Migrations() != movedOut*2 {
		t.Errorf("expected %d total migrations after drain, got %d", movedOut*2, cl.Migrations())
	}
	if got := cl.Engine(0).FlowLen(); got != total {
		t.Errorf("instance 0 owns %d flows after migrate-back, want %d", got, total)
	}
	for f := 0; f < flows; f++ {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return data(f, 5) }, "data after migrate-back")
	}
}

// TestMigrationAbortRollsBack drives a rebalance into an injected
// migration abort and asserts complete rollback: the instance set and
// steering table are unchanged, every flow is still owned by its old
// instance, the discarded new instance held no orphan state, no
// engine's epoch moved — and the packet stream cannot tell.
func TestMigrationAbortRollsBack(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 42, Rates: map[fault.Kind]float64{}})
	cl := newTestCluster(t, 1, false, inj)
	ref := newRefEngine(t, false)
	const flows = 24
	establish(t, cl, ref, flows)

	flowsBefore := cl.Engine(0).FlowEntries()
	epochBefore := cl.Engine(0).Epoch()

	inj.SetRate(fault.KindMigrationAbort, 1)
	if err := cl.ScaleTo(2); !errors.Is(err, ErrMigrationAborted) {
		t.Fatalf("expected ErrMigrationAborted, got %v", err)
	}
	inj.SetRate(fault.KindMigrationAbort, 0)

	if cl.Len() != 1 {
		t.Fatalf("cluster grew to %d despite abort", cl.Len())
	}
	if cl.Aborts() != 1 {
		t.Errorf("aborts = %d, want 1", cl.Aborts())
	}
	if got := cl.Engine(0).Epoch(); got != epochBefore {
		t.Errorf("epoch moved across aborted rebalance: %d -> %d", epochBefore, got)
	}
	after := cl.Engine(0).FlowEntries()
	if len(after) != len(flowsBefore) {
		t.Fatalf("flow count changed: %d -> %d", len(flowsBefore), len(after))
	}
	for i := range after {
		if after[i] != flowsBefore[i] {
			t.Fatalf("flow %d changed across aborted rebalance: %+v -> %+v", i, flowsBefore[i], after[i])
		}
	}
	for f := 0; f < flows; f++ {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return data(f, 5) }, "data after aborted rebalance")
	}
}

// TestMigrationAbortOrphanSweep aborts a rebalance partway (some
// flows already moved) on a two-instance cluster and asserts the
// rolled-back destination keeps no orphan flow entry or rule for any
// flow it does not own.
func TestMigrationAbortOrphanSweep(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 7, Rates: map[fault.Kind]float64{}})
	cl := newTestCluster(t, 2, false, inj)
	ref := newRefEngine(t, false)
	const flows = 32
	establish(t, cl, ref, flows)

	owned := make([]map[flow.FID]bool, 2)
	for i := 0; i < 2; i++ {
		owned[i] = make(map[flow.FID]bool)
		for _, e := range cl.Engine(i).FlowEntries() {
			owned[i][e.FID] = true
		}
	}

	// A middling abort rate fires after some flows have already moved,
	// exercising the reverse-rollback path rather than first-flow abort.
	inj.SetRate(fault.KindMigrationAbort, 0.2)
	var aborted bool
	for try := 0; try < 20 && !aborted; try++ {
		err := cl.ScaleTo(3)
		switch {
		case errors.Is(err, ErrMigrationAborted):
			aborted = true
		case err == nil:
			if rerr := cl.ScaleTo(2); rerr != nil && !errors.Is(rerr, ErrMigrationAborted) {
				t.Fatal(rerr)
			}
		default:
			t.Fatal(err)
		}
	}
	inj.SetRate(fault.KindMigrationAbort, 0)
	if !aborted {
		t.Skip("abort never fired at 20% over 20 rebalances")
	}
	if cl.Len() != 2 {
		t.Fatalf("cluster at %d instances after aborted scale-out", cl.Len())
	}
	for i := 0; i < 2; i++ {
		ents := cl.Engine(i).FlowEntries()
		if len(ents) != len(owned[i]) {
			t.Fatalf("instance %d owns %d flows after rollback, want %d", i, len(ents), len(owned[i]))
		}
		for _, e := range ents {
			if !owned[i][e.FID] {
				t.Fatalf("instance %d holds foreign flow %v after rollback", i, e.FID)
			}
		}
		// No rules for flows owned elsewhere.
		other := owned[1-i]
		for fid := range other {
			if _, ok := cl.Engine(i).Global().Lookup(fid); ok && !owned[i][fid] {
				t.Fatalf("instance %d holds orphan rule for foreign flow %v", i, fid)
			}
		}
	}
	for f := 0; f < flows; f++ {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return data(f, 5) }, "data after orphan sweep")
	}
}

// TestClusterRunMatchesSingleEngine pushes a generated trace through
// Run (the partitioned multi-worker driver) on a static cluster and
// checks aggregate packet/drop accounting against the serial runner.
func TestClusterRunMatchesSingleEngine(t *testing.T) {
	tr, err := trace.Generate(trace.Config{Seed: 11, Flows: 40, Interleave: true})
	if err != nil {
		t.Fatal(err)
	}
	cl := newTestCluster(t, 3, true, nil)
	res, err := cl.Run(tr.Packets(), 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	ref := newTestCluster(t, 3, true, nil)
	want, err := ref.RunBatch(tr.Packets(), 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != want.Packets || res.Drops != want.Drops {
		t.Errorf("Run (4 workers) saw %d/%d packets/drops; serial saw %d/%d",
			res.Packets, res.Drops, want.Packets, want.Drops)
	}
	if len(res.QueueDepths) != 4 {
		t.Errorf("expected 4 worker queue depths, got %v", res.QueueDepths)
	}
}

// TestConcurrentClusterScale is the race hammer: 8 batched workers
// drive partitioned traffic while a scaler loop grows and shrinks the
// cluster and a scraper hammers the status/stats read paths. Run
// under -race; the invariant is zero errors, zero drops (the chain
// has no drop rules) and full packet accounting.
func TestConcurrentClusterScale(t *testing.T) {
	tr, err := trace.Generate(trace.Config{Seed: 5, Flows: 120, Interleave: true})
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.NewHub()
	opts := core.DefaultOptions()
	cl, err := New(Config{Chain: testChain(t, true), Options: opts, Instances: 2, Hub: hub})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Scaler: walk 2→4→3→2→… until the workers finish.
	wg.Add(1)
	go func() {
		defer wg.Done()
		targets := []int{4, 3, 2}
		for k := 0; !stop.Load(); k++ {
			if err := cl.ScaleTo(targets[k%len(targets)]); err != nil && !errors.Is(err, ErrMigrationAborted) {
				t.Errorf("scale: %v", err)
				return
			}
		}
	}()

	// Scraper: hammer every read path the daemon exposes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			_ = cl.Stats()
			_ = cl.Instances()
			_ = cl.Len()
			_ = hub.Registry.WritePrometheus(io.Discard)
		}
	}()

	res, err := cl.Run(tr.Packets(), 8, 16)
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != tr.Len() {
		t.Errorf("processed %d packets, trace has %d", res.Packets, tr.Len())
	}
	if res.Drops != 0 {
		t.Errorf("%d drops during concurrent scaling; want 0", res.Drops)
	}
}

// TestClusterSoakRebalances replays a long trace in windows with a
// rebalance between every window (≥8 total): zero drops overall, and
// after every rebalance the fast-path hit rate inside the next window
// must recover to ≥90% of packets once re-recording settles.
func TestClusterSoakRebalances(t *testing.T) {
	tr, err := trace.Generate(trace.Config{Seed: 9, Flows: 200, Interleave: true})
	if err != nil {
		t.Fatal(err)
	}
	pkts := tr.Packets()
	cl := newTestCluster(t, 1, false, nil)

	const rebalances = 8
	window := len(pkts) / (rebalances + 1)
	if window == 0 {
		t.Fatal("trace too short")
	}
	var totalDrops int
	sizes := []int{2, 3, 4, 3, 2, 3, 4, 2}
	statsBefore := cl.Stats()
	for w := 0; w <= rebalances; w++ {
		lo := w * window
		hi := lo + window
		if w == rebalances {
			hi = len(pkts)
		}
		res, err := cl.RunBatch(pkts[lo:hi], 16, nil)
		if err != nil {
			t.Fatal(err)
		}
		totalDrops += res.Drops
		st := cl.Stats()
		delta := st
		delta.Packets -= statsBefore.Packets
		delta.FastPath -= statsBefore.FastPath
		delta.Initial -= statsBefore.Initial
		delta.Handshake -= statsBefore.Handshake
		delta.Final -= statsBefore.Final
		statsBefore = st
		if w > 0 && delta.Packets > 0 {
			// Handshake/initial/final packets legitimately take the
			// slow path; hit rate is over the established remainder.
			eligible := delta.Packets - delta.Initial - delta.Handshake - delta.Final
			if eligible > 0 {
				rate := float64(delta.FastPath) / float64(eligible)
				if rate < 0.9 {
					t.Errorf("window %d: fast-path hit rate %.2f after rebalance, want >= 0.90", w, rate)
				}
			}
		}
		if w < rebalances {
			if err := cl.ScaleTo(sizes[w]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if totalDrops != 0 {
		t.Errorf("%d drops across %d rebalances; want 0", totalDrops, cl.Rebalances())
	}
	if cl.Rebalances() < rebalances {
		t.Errorf("only %d rebalances completed, want >= %d", cl.Rebalances(), rebalances)
	}
	if cl.Migrations() == 0 {
		t.Error("soak migrated nothing")
	}
}

// TestClusterReconfigureFleetWide applies a live chain change on a
// 3-instance cluster and checks every instance lands on the same
// chain composition and epoch, and a later joiner replays it.
func TestClusterReconfigureFleetWide(t *testing.T) {
	cl := newTestCluster(t, 3, false, nil)
	ref := newRefEngine(t, false)
	const flows = 16
	establish(t, cl, ref, flows)

	mk := func(name string) core.ChainPlan {
		nf, err := ipfilter.New(ipfilter.Config{Name: name, Rules: ipfilter.PadRules(nil, 10)})
		if err != nil {
			t.Fatal(err)
		}
		return core.ChainPlan{Op: core.OpInsert, Pos: 1, NF: nf}
	}
	if err := cl.Reconfigure(mk("mid")); err != nil {
		t.Fatal(err)
	}
	if err := ref.Reconfigure(mk("mid-ref")); err != nil {
		t.Fatal(err)
	}
	want := cl.Engine(0).ChainNames()
	epoch := cl.Engine(0).Epoch()
	for i := 1; i < cl.Len(); i++ {
		if got := cl.Engine(i).ChainNames(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("instance %d chain %v, want %v", i, got, want)
		}
		if got := cl.Engine(i).Epoch(); got != epoch {
			t.Errorf("instance %d epoch %d, want %d", i, got, epoch)
		}
	}
	if err := cl.ScaleTo(cl.Len() + 1); err != nil {
		t.Fatal(err)
	}
	joined := cl.Len() - 1
	if got := cl.Engine(joined).ChainNames(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("late joiner %s chain %v, want %v", cl.Names()[joined], got, want)
	}
	for f := 0; f < flows; f++ {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return data(f, 5) }, "data after fleet reconfig")
	}
}

// TestClusterCrashInstance kills an instance mid-trace and checks the
// replacement serves its flows identically to the reference.
func TestClusterCrashInstance(t *testing.T) {
	opts := core.DefaultOptions()
	cl, err := New(Config{Chain: testChain(t, false), Options: opts, Instances: 2, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ref := newRefEngine(t, false)
	const flows = 24
	establish(t, cl, ref, flows)
	for i := 0; i < 2; i++ {
		if err := cl.CrashInstance(i); err != nil {
			t.Fatal(err)
		}
	}
	for f := 0; f < flows; f++ {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return data(f, 5) }, "data after crash-restore")
	}
}

// TestAdviseInstances pins the autoscale hint's decision table.
func TestAdviseInstances(t *testing.T) {
	cases := []struct {
		cur, min, max int
		depths        []int
		want          int
	}{
		{2, 1, 8, []int{100, 100}, 3}, // hot: scale out
		{2, 1, 8, []int{0, 1}, 1},     // idle: scale in
		{2, 1, 8, []int{16, 16}, 2},   // steady: hold
		{8, 1, 8, []int{100, 100}, 8}, // clamped at max
		{1, 1, 8, []int{0}, 1},        // clamped at min
		{3, 1, 8, nil, 3},             // no signal: hold
	}
	for i, c := range cases {
		if got := AdviseInstances(c.cur, c.min, c.max, c.depths, 2, 64); got != c.want {
			t.Errorf("case %d: AdviseInstances(%d, %v) = %d, want %d", i, c.cur, c.depths, got, c.want)
		}
	}
}

// TestMigrationRecordRoundTripInCluster checks migrated rules really
// travel through the wire encoding on the batch-free chain.
func TestMigrationRecordRoundTripInCluster(t *testing.T) {
	cl := newTestCluster(t, 1, false, nil)
	ref := newRefEngine(t, false)
	establish(t, cl, ref, 24)
	var sawRule bool
	cl.TamperMigration = func(r *wal.MigrationRecord) {
		if r.Rule != nil {
			sawRule = true
		}
	}
	if err := cl.ScaleTo(cl.Len() + 1); err != nil {
		t.Fatal(err)
	}
	if !sawRule {
		t.Error("no migration record carried a rule on the batch-free chain")
	}
}

// chain1NFs builds the paper's Chain1 (MazuNAT, Maglev, Monitor,
// IPFilter): every rule carries two state functions and a failover
// guard.
func chain1NFs(t *testing.T) []core.NF {
	t.Helper()
	spec, err := chainspec.Parse([]byte(`{"nfs": [
		{"type": "mazunat", "name": "mazunat", "internal_prefix": "10.0.0.0/8", "external_ip": "198.51.100.1"},
		{"type": "maglev", "name": "maglev", "backends": [
			{"name": "backend-a", "ip": "192.168.1.10", "port": 8080},
			{"name": "backend-b", "ip": "192.168.1.11", "port": 8080}]},
		{"type": "monitor", "name": "monitor"},
		{"type": "ipfilter", "name": "ipfilter"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	chain, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return chain
}

// counterOf reads an unlabelled counter off the hub's exposition.
func counterOf(t *testing.T, hub *telemetry.Hub, name string) uint64 {
	t.Helper()
	var out bytes.Buffer
	if err := hub.Registry.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("no %s in the exposition", name)
	return 0
}

// TestChain1RebalanceShipsEveryRule: a rebalance without a chain change
// ships every migrating flow's live rule — Chain1's state functions and
// failover guard included — and demotes none; the moved flows ride their
// rules on the new owners without re-recording, matching the reference.
func TestChain1RebalanceShipsEveryRule(t *testing.T) {
	hub := telemetry.NewHub()
	cl, err := New(Config{Chain: chain1NFs(t), Options: core.DefaultOptions(), Hub: hub})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	ref, err := core.NewEngine(chain1NFs(t), core.BaselineOptions())
	if err != nil {
		t.Fatal(err)
	}
	const flows = 24
	establish(t, cl, ref, flows)
	if err := cl.ScaleTo(3); err != nil {
		t.Fatal(err)
	}
	moved := cl.Migrations()
	if moved == 0 {
		t.Fatal("no flows migrated")
	}
	if rules, demoted := counterOf(t, hub, "speedybox_cluster_migration_rules_total"),
		counterOf(t, hub, "speedybox_cluster_migration_demotions_total"); rules != moved || demoted != 0 {
		t.Errorf("%d flows moved, %d rules shipped, %d demoted; want every rule shipped, none demoted", moved, rules, demoted)
	}
	initial := cl.Stats().Initial
	for f := 0; f < flows; f++ {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return data(f, 4) }, "after the rebalance")
	}
	if got := cl.Stats().Initial - initial; got != 0 {
		t.Errorf("%d flows re-recorded after the rebalance, want 0", got)
	}
	for i := 0; i < cl.Len(); i++ {
		if err := cl.Engine(i).CheckRecords(); err != nil {
			t.Error(err)
		}
	}
}

// TestMigrantEvictsResident: FIDs are allocated per instance, so a flow
// can arrive at its new owner under a FID a resident flow holds there.
// Three flows make it happen: two share a home FID on instance 1, so the
// second was probed onto the next FID of the shard, which is the home of
// the third, resident on instance 0. Scaling in drains instance 1, the
// newest, and lands the probed flow on the resident's FID. The migrant's
// rule, monitor batch and all, travels with it, so it rides its own rule —
// not the one the evicted resident left — and the resident comes back as
// a new flow under a fresh FID; neither diverges from the reference
// chain.
func TestMigrantEvictsResident(t *testing.T) {
	cl := newTestCluster(t, 2, true, nil)
	ref := newRefEngine(t, true)
	v := cl.cur.Load()
	udp := func(i int) *packet.Packet {
		return packet.MustBuild(packet.Spec{
			SrcIP: packet.IP4(10, byte(i>>16), byte(i>>8), byte(i)), DstIP: packet.IP4(192, 0, 2, 1),
			SrcPort: 2000, DstPort: 80, Proto: packet.ProtoUDP, Payload: []byte("x")})
	}
	home := func(i int) flow.FID {
		ft, _ := udp(i).FiveTuple()
		return flow.HashTuple(ft)
	}
	// first[h] is the first tuple homed at h on instance 1, resident[h]
	// the first homed at h on instance 0.
	first, resident := map[flow.FID]int{}, map[flow.FID]int{}
	var pair, probed, taken = -1, -1, -1
	for i := 0; probed < 0 && i < 1<<20; i++ {
		h := home(i)
		if v.owner(h) == v.insts[0] {
			if _, ok := resident[h]; !ok {
				resident[h] = i
			}
			continue
		}
		if j, ok := first[h]; !ok {
			first[h] = i
		} else if r, ok := resident[(h+flow.ShardCount)&flow.MaxFID]; ok {
			pair, probed, taken = j, i, r
		}
	}
	if probed < 0 {
		t.Fatal("no colliding tuples found")
	}
	fid := (home(probed) + flow.ShardCount) & flow.MaxFID

	// send runs a flow's next packet through cluster and reference and
	// returns the cluster's account of it.
	send := func(i int, tag string) *core.PacketResult {
		t.Helper()
		compare(t, cl, ref, func() *packet.Packet { return udp(i) }, tag)
		m, err := cl.Process(udp(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.ProcessPacket(udp(i)); err != nil {
			t.Fatal(err)
		}
		return m.Result
	}
	for _, i := range []int{pair, probed, taken} {
		send(i, "set-up")
	}
	if a, b := send(probed, "before").FID, send(taken, "before").FID; a != fid || b != fid {
		t.Fatalf("probed flow holds %v on instance 1, resident %v on instance 0; want both on %v", a, b, fid)
	}

	if err := cl.ScaleTo(1); err != nil {
		t.Fatal(err)
	}
	eng := cl.Engine(0)
	if err := eng.CheckRecords(); err != nil {
		t.Error(err)
	}
	// compare's packet and send's own ride the rule that traveled.
	if res := send(probed, "migrant"); res.FID != fid || res.Kind != classifier.KindSubsequent || res.Path != core.PathFast {
		t.Errorf("migrant: %v %v on the %v path, want its own rule under %v", res.FID, res.Kind, res.Path, fid)
	}
	before := eng.Stats().Initial
	if before != 1 {
		t.Errorf("new owner saw %d initial packets, want the resident's alone", before)
	}
	if res := send(taken, "evicted resident"); res.FID == fid || res.Kind != classifier.KindSubsequent || res.Path != core.PathFast {
		t.Errorf("evicted resident: %v %v on the %v path, want a new flow's rule under another FID than %v", res.FID, res.Kind, res.Path, fid)
	}
	if got := eng.Stats().Initial - before; got != 1 {
		t.Errorf("evicted resident recorded %d times, want once, as a new flow", got)
	}
	if err := eng.CheckRecords(); err != nil {
		t.Error(err)
	}
}

// TestMigratedFlowFailsOverInPlace: a Chain1 flow a rebalance moved to
// another instance brought the recording its rule was built from, so
// when its Maglev backend fails, its next packet fires the failover on
// the new owner and is served rerouted from the updated rule on the fast
// path: no slow-path packet, no removal for want of a recording.
func TestMigratedFlowFailsOverInPlace(t *testing.T) {
	hub := telemetry.NewHub()
	chain := chain1NFs(t)
	cl, err := New(Config{Chain: chain, Options: core.DefaultOptions(), Hub: hub})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	ref, err := core.NewEngine(chain1NFs(t), core.BaselineOptions())
	if err != nil {
		t.Fatal(err)
	}
	const flows = 24
	establish(t, cl, ref, flows)
	owner := func(f int) (string, flow.FID) {
		ft, _ := data(f, 0).FiveTuple()
		for i, name := range cl.Names() {
			for _, e := range cl.Engine(i).FlowEntries() {
				if e.Tuple == ft {
					return name, e.FID
				}
			}
		}
		t.Fatalf("flow %d is on no instance", f)
		return "", 0
	}
	var before [flows]string
	for f := range before {
		before[f], _ = owner(f)
	}
	if err := cl.ScaleTo(3); err != nil {
		t.Fatal(err)
	}
	moved := -1
	for f := range before {
		if now, _ := owner(f); now != before[f] {
			moved = f
			break
		}
	}
	if moved < 0 {
		t.Fatal("no flow migrated")
	}
	var lb *maglev.Maglev
	for _, nf := range chain {
		if m, ok := nf.(*maglev.Maglev); ok {
			lb = m
		}
	}
	_, fid := owner(moved)
	orig, ok := lb.BackendOf(fid)
	if !ok {
		t.Fatalf("migrated flow %d (%v) is pinned to no backend", moved, fid)
	}
	// chain1NFs's backends are 192.168.1.10 and .11, in order.
	if err := lb.FailBackend(int(orig.IP[3]) - 10); err != nil {
		t.Fatal(err)
	}
	slow := cl.Stats().SlowPath
	p := data(moved, 5)
	m, err := cl.Process(p)
	if err != nil {
		t.Fatal(err)
	}
	nb, _ := lb.BackendOf(fid)
	if m.Result.Path != core.PathFast || m.Result.Fast.EventsFired != 1 || nb == orig || p.DstIP() != nb.IP {
		t.Errorf("after the failure: path %v, backend %v -> %v, packet to %v; want the fast path, rerouted in place",
			m.Result.Path, orig, nb, p.DstIP())
	}
	if got := cl.Stats().SlowPath - slow; got != 0 {
		t.Errorf("%d slow-path packets, want none", got)
	}
	var out bytes.Buffer
	if err := hub.Registry.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	series := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, `speedybox_mat_removals_total{reason="event-unrecorded"`) {
			series++
			if !strings.HasSuffix(line, " 0") {
				t.Errorf("a rule removed for want of a recording: %s", line)
			}
		}
	}
	if series == 0 {
		t.Error("no event-unrecorded removal series in the exposition")
	}
	for i := 0; i < cl.Len(); i++ {
		if err := cl.Engine(i).CheckRecords(); err != nil {
			t.Error(err)
		}
	}
}
