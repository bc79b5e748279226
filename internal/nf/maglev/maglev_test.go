package maglev

import (
	"fmt"
	"testing"
	"time"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

func backends(n int) []Backend {
	out := make([]Backend, n)
	for i := range out {
		out[i] = Backend{
			Name: string(rune('a' + i)),
			IP:   packet.IP4(192, 168, 1, byte(10+i)),
			Port: uint16(8000 + i),
		}
	}
	return out
}

func pkt(t *testing.T, sport uint16) *packet.Packet {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(100, 0, 0, 1),
		SrcPort: sport, DstPort: 80, Proto: packet.ProtoTCP, Payload: []byte("x"),
	})
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"empty name", Config{Backends: backends(2)}},
		{"no backends", Config{Name: "lb"}},
		{"non-prime table", Config{Name: "lb", Backends: backends(2), TableSize: 100}},
		{"table too small", Config{Name: "lb", Backends: backends(5), TableSize: 5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestTableFullyPopulated(t *testing.T) {
	lb, err := New(Config{Name: "lb", Backends: backends(3), TableSize: 101})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range lb.Table() {
		if b < 0 || b >= 3 {
			t.Fatalf("slot %d = %d", i, b)
		}
	}
}

// TestTableBalance is the Maglev paper's core property: each backend
// owns close to M/N slots.
func TestTableBalance(t *testing.T) {
	n := 5
	lb, err := New(Config{Name: "lb", Backends: backends(n), TableSize: 653})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, n)
	for _, b := range lb.Table() {
		counts[b]++
	}
	ideal := 653 / n
	for i, c := range counts {
		if c < ideal-ideal/2 || c > ideal+ideal/2 {
			t.Errorf("backend %d owns %d slots, ideal %d", i, c, ideal)
		}
	}
}

// TestMinimalDisruption: removing one backend must only remap slots
// that pointed at it, plus a small consistent-hashing disturbance (the
// Maglev paper tolerates a few percent).
func TestMinimalDisruption(t *testing.T) {
	lb, err := New(Config{Name: "lb", Backends: backends(5), TableSize: 653})
	if err != nil {
		t.Fatal(err)
	}
	before := lb.Table()
	if err := lb.FailBackend(2); err != nil {
		t.Fatal(err)
	}
	after := lb.Table()
	moved := 0
	for i := range before {
		if before[i] != 2 && before[i] != after[i] {
			moved++
		}
	}
	if frac := float64(moved) / float64(len(before)); frac > 0.25 {
		t.Errorf("%.1f%% of unaffected slots moved; consistent hashing should keep this small", frac*100)
	}
	for i, b := range after {
		if b == 2 {
			t.Fatalf("slot %d still points at failed backend", i)
		}
	}
}

func TestFailRestore(t *testing.T) {
	lb, err := New(Config{Name: "lb", Backends: backends(2), TableSize: 101})
	if err != nil {
		t.Fatal(err)
	}
	if err := lb.FailBackend(5); err == nil {
		t.Error("out-of-range FailBackend accepted")
	}
	if err := lb.FailBackend(0); err != nil {
		t.Fatal(err)
	}
	if err := lb.FailBackend(0); err != nil {
		t.Error("idempotent FailBackend errored")
	}
	for _, b := range lb.Table() {
		if b == 0 {
			t.Fatal("failed backend still in table")
		}
	}
	if err := lb.RestoreBackend(0); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range lb.Table() {
		if b == 0 {
			found = true
			break
		}
	}
	if !found {
		t.Error("restored backend absent from table")
	}
}

func TestProcessRewritesDestination(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	lb, err := New(Config{Name: "lb", Backends: backends(3), TableSize: 101, RewritePort: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.NewCtx("lb", core.CtxConfig{FID: 1, Events: tbl, Recording: true, Flows: lb.FlowStates()})
	p := pkt(t, 1111)
	v, err := lb.Process(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if v != core.VerdictForward {
		t.Fatalf("verdict = %v", v)
	}
	b, ok := lb.BackendOf(1)
	if !ok {
		t.Fatal("no backend pinned")
	}
	if p.DstIP() != b.IP || p.DstPort() != b.Port {
		t.Errorf("packet dst = %v:%d, backend = %v:%d", p.DstIP(), p.DstPort(), b.IP, b.Port)
	}
	if !p.VerifyChecksums() {
		t.Error("checksums stale after rewrite")
	}
	rule, _ := ctx.Recorded()
	if len(rule.Actions) != 2 {
		t.Errorf("recorded %d actions, want modify(DIP)+modify(DPort)", len(rule.Actions))
	}
}

func TestConnectionStickiness(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	lb, err := New(Config{Name: "lb", Backends: backends(4), TableSize: 101})
	if err != nil {
		t.Fatal(err)
	}
	first, _ := func() (Backend, bool) {
		ctx := core.NewCtx("lb", core.CtxConfig{FID: 1, Events: tbl})
		if _, err := lb.Process(ctx, pkt(t, 1111)); err != nil {
			t.Fatal(err)
		}
		return lb.BackendOf(1)
	}()
	for i := 0; i < 5; i++ {
		ctx := core.NewCtx("lb", core.CtxConfig{FID: 1, Events: tbl})
		if _, err := lb.Process(ctx, pkt(t, 1111)); err != nil {
			t.Fatal(err)
		}
		b, _ := lb.BackendOf(1)
		if b != first {
			t.Fatalf("flow moved from %v to %v without failure", first, b)
		}
	}
}

// TestFailoverEvent reproduces the §VII-C2 Maglev equivalence test:
// the registered event reroutes the flow and rewrites its modify
// action.
func TestFailoverEvent(t *testing.T) {
	lb, err := New(Config{Name: "lb", Backends: backends(3), TableSize: 101})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine([]core.NF{lb}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.ProcessPacket(pkt(t, 2222))
	if err != nil {
		t.Fatal(err)
	}
	fid := first.FID
	orig, _ := lb.BackendOf(fid)

	// Condition false while the backend is healthy.
	events := eng.Events()
	if fired, _ := events.Probe(fid); len(fired) != 0 {
		t.Fatal("event fired with healthy backend")
	}

	// Find the pinned backend's index and fail it.
	idx := -1
	for i, b := range backends(3) {
		if b == orig {
			idx = i
		}
	}
	if idx == -1 {
		t.Fatal("pinned backend not found")
	}
	if err := lb.FailBackend(idx); err != nil {
		t.Fatal(err)
	}
	if fired, _ := events.Probe(fid); len(fired) != 1 {
		t.Fatalf("fired = %d, want 1", len(fired))
	}
	if r, err := eng.ProcessPacket(pkt(t, 2222)); err != nil || r.Path != core.PathFast || r.Fast.EventsFired != 1 {
		t.Fatalf("packet after the failure: %+v (err %v), want a fast-path firing", r, err)
	}
	rule, _ := eng.Global().LookupLive(fid)

	nb, ok := lb.BackendOf(fid)
	if !ok || nb == orig {
		t.Fatalf("flow not rerouted: %v -> %v", orig, nb)
	}
	acts, _ := rule.HeaderActions()
	if len(acts) == 0 || acts[0].Kind != mat.ActionModify || acts[0].Field != packet.FieldDstIP {
		t.Fatalf("rule after update = %v", rule)
	}
	if got := acts[0].Value; [4]byte{got[0], got[1], got[2], got[3]} != nb.IP {
		t.Errorf("updated DIP = %v, want %v", got, nb.IP)
	}
	if lb.Rerouted() != 1 {
		t.Errorf("Rerouted = %d", lb.Rerouted())
	}
}

func TestAllBackendsDownDropsFlows(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	lb, err := New(Config{Name: "lb", Backends: backends(1), TableSize: 101})
	if err != nil {
		t.Fatal(err)
	}
	if err := lb.FailBackend(0); err != nil {
		t.Fatal(err)
	}
	ctx := core.NewCtx("lb", core.CtxConfig{FID: 1, Events: tbl, Recording: true, Flows: lb.FlowStates()})
	v, err := lb.Process(ctx, pkt(t, 3333))
	if err != nil {
		t.Fatal(err)
	}
	if v != core.VerdictDrop {
		t.Errorf("verdict with no backends = %v", v)
	}
	rule, _ := ctx.Recorded()
	if rule.Actions[0].Kind != mat.ActionDrop {
		t.Errorf("recorded action = %v", rule.Actions[0])
	}
}

func TestLookupDistributionAcrossFlows(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	lb, err := New(Config{Name: "lb", Backends: backends(4), TableSize: 653})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[[4]byte]int)
	for i := 0; i < 400; i++ {
		fid := flow.FID(i + 1)
		ctx := core.NewCtx("lb", core.CtxConfig{FID: fid, Events: tbl})
		p := packet.MustBuild(packet.Spec{
			SrcIP: packet.IP4(10, 0, byte(i>>8), byte(i)), DstIP: packet.IP4(100, 0, 0, 1),
			SrcPort: uint16(1024 + i), DstPort: 80, Proto: packet.ProtoTCP,
		})
		if _, err := lb.Process(ctx, p); err != nil {
			t.Fatal(err)
		}
		counts[p.DstIP()]++
	}
	if len(counts) != 4 {
		t.Fatalf("flows landed on %d backends, want 4", len(counts))
	}
	for ip, c := range counts {
		if c < 40 || c > 180 {
			t.Errorf("backend %v got %d/400 flows; distribution badly skewed", ip, c)
		}
	}
}

func TestFlowClosedReleasesConnTrack(t *testing.T) {
	flows := flow.NewTable()
	tbl := event.NewTable(flows)
	lb, err := New(Config{Name: "lb", Backends: backends(2), TableSize: 101})
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.NewCtx("lb", core.CtxConfig{FID: 5, Events: tbl})
	if _, err := lb.Process(ctx, pkt(t, 4444)); err != nil {
		t.Fatal(err)
	}
	if _, ok := lb.BackendOf(5); !ok {
		t.Fatal("no pin")
	}
	ed := flows.Edit(5, false)
	tbl.DropState(ed, true)
	ed.Done()
	if _, ok := lb.BackendOf(5); ok {
		t.Error("conn-track pin survived the flow's end")
	}
}

// backendIndex finds a backend in the pool backends(n) builds.
func backendIndex(t *testing.T, n int, b Backend) int {
	t.Helper()
	for i, c := range backends(n) {
		if c == b {
			return i
		}
	}
	t.Fatalf("backend %v not in the pool", b)
	return -1
}

// TestFailoverFiresOnNextPacket: the condition reads the pinned
// backend's down flag, so a FailBackend between two packets of a pinned
// flow must set that flag before it returns: the very next packet fires
// the failover and leaves for a healthy backend.
func TestFailoverFiresOnNextPacket(t *testing.T) {
	lb, err := New(Config{Name: "lb", Backends: backends(3), TableSize: 101})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine([]core.NF{lb}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.ProcessPacket(pkt(t, 3333))
	if err != nil {
		t.Fatal(err)
	}
	fid := first.FID
	if r, err := eng.ProcessPacket(pkt(t, 3333)); err != nil || r.Path != core.PathFast || r.Fast.EventsFired != 0 {
		t.Fatalf("healthy pool: %+v, %v; want a quiet fast-path packet", r, err)
	}
	orig, _ := lb.BackendOf(fid)
	if err := lb.FailBackend(backendIndex(t, 3, orig)); err != nil {
		t.Fatal(err)
	}
	p := pkt(t, 3333)
	r, err := eng.ProcessPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	nb, _ := lb.BackendOf(fid)
	if r.Path != core.PathFast || r.Fast.EventsFired != 1 || nb == orig || p.DstIP() != nb.IP {
		t.Errorf("packet after the failure: path %v, %d fired, backend %v -> %v, sent to %v",
			r.Path, r.Fast.EventsFired, orig, nb, p.DstIP())
	}
}

// TestFastPathTakesNoNFLock: a flow's failover condition is the down
// flag of the backend it is pinned to, which its rule's guard reads with
// no lock, so its fast path runs while the balancer's mutex is held —
// with a backend down that the flow is not pinned to as well. The flags
// follow FailBackend and RestoreBackend (repeats included), and a
// snapshot taken with a backend down restores as down, into the flags
// a restored balancer's flows read (the pin itself is the flow's state,
// not the balancer's).
func TestFastPathTakesNoNFLock(t *testing.T) {
	lb, err := New(Config{Name: "lb", Backends: backends(3), TableSize: 101})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine([]core.NF{lb}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.ProcessPacket(pkt(t, 4444))
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := lb.BackendOf(first.FID)
	pinned := backendIndex(t, 3, orig)
	other := (pinned + 1) % 3
	for i := 0; i < 2; i++ { // the second call is a no-op
		if err := lb.FailBackend(other); err != nil {
			t.Fatal(err)
		}
	}
	if lb.down[other].Load() != 1 || lb.down[pinned].Load() != 0 {
		t.Fatalf("down flags %d (failed) and %d (pinned), want 1 and 0", lb.down[other].Load(), lb.down[pinned].Load())
	}
	if got := lb.pinDown(lb.flows.Of(first.FID)); got != &lb.down[pinned] {
		t.Error("the flow's condition does not read its pinned backend's flag")
	}

	done := make(chan error, 1)
	lb.mu.Lock()
	go func() {
		for i := 0; i < 100; i++ {
			r, err := eng.ProcessPacket(pkt(t, 4444))
			if err == nil && (r.Path != core.PathFast || r.Fast.EventsFired != 0) {
				err = fmt.Errorf("packet %d: path %v, want a quiet fast-path packet", i, r.Path)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err = <-done:
		lb.mu.Unlock()
	case <-time.After(time.Second):
		lb.mu.Unlock()
		<-done
		t.Fatal("fast path of a flow pinned to a healthy backend waited on the balancer's mutex")
	}
	if err != nil {
		t.Fatal(err)
	}

	snap, err := lb.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(Config{Name: "lb", Backends: backends(3), TableSize: 101})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	for i := range fresh.down {
		if down := fresh.down[i].Load() != 0; down != (i == other) {
			t.Errorf("restored balancer: backend %d down = %v, want %v", i, down, i == other)
		}
	}

	for i := 0; i < 2; i++ {
		if err := lb.RestoreBackend(other); err != nil {
			t.Fatal(err)
		}
	}
	if lb.down[other].Load() != 0 {
		t.Fatalf("down flag %d after restoring the backend twice, want 0", lb.down[other].Load())
	}
}

// TestRestoreKeepsCells: a flow whose guard was built before RestoreState
// reads the restored health — the restore stores into the down flags
// rather than replacing them — so the next packet after a snapshot that
// has the flow's backend down fails over.
func TestRestoreKeepsCells(t *testing.T) {
	lb, err := New(Config{Name: "lb", Backends: backends(3), TableSize: 101})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine([]core.NF{lb}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.ProcessPacket(pkt(t, 6666))
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := lb.BackendOf(first.FID)
	peer, err := New(Config{Name: "lb", Backends: backends(3), TableSize: 101})
	if err != nil {
		t.Fatal(err)
	}
	if err := peer.FailBackend(backendIndex(t, 3, orig)); err != nil {
		t.Fatal(err)
	}
	snap, err := peer.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if err := lb.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	p := pkt(t, 6666)
	r, err := eng.ProcessPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	if nb, _ := lb.BackendOf(first.FID); r.Path != core.PathFast || r.Fast.EventsFired != 1 || nb == orig || p.DstIP() != nb.IP {
		t.Errorf("packet after the restore: path %v, backend %v -> %v, sent to %v; want one firing to a healthy backend",
			r.Path, orig, nb, p.DstIP())
	}
	if err := eng.CheckRecords(); err != nil {
		t.Error(err)
	}
}
