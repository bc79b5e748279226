package core_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/chainspec"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/nf/maglev"
	"github.com/fastpathnfv/speedybox/internal/nf/monitor"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/server"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// These tests drive the engine with the paper's Chain1 built from the
// bundled NF catalog (MazuNAT, Maglev, Monitor, IPFilter), which an
// in-package test cannot import.

func chain1(t testing.TB) []core.NF { return specChain(t, server.DefaultSpecJSON) }

// specChain builds the chain a chainspec document describes.
func specChain(t testing.TB, json string) []core.NF {
	t.Helper()
	spec, err := chainspec.Parse([]byte(json))
	if err != nil {
		t.Fatal(err)
	}
	chain, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return chain
}

func chain1Engine(t testing.TB, opts core.Options) *core.Engine {
	t.Helper()
	eng, err := core.NewEngine(chain1(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func chain1Pkt(port uint16, proto, flags uint8, payload string) *packet.Packet {
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: port, DstPort: 80, Proto: proto, TCPFlags: flags,
		Payload: []byte(payload),
	})
}

// replayer reloads a vector from its pristine frames (the NAT and the
// load balancer rewrite the packets) and runs it on one warm Batch.
func replayer(t *testing.T, eng *core.Engine, vec []*packet.Packet) func() {
	t.Helper()
	frames := make([][]byte, len(vec))
	for i, p := range vec {
		frames[i] = append([]byte(nil), p.Data()...)
	}
	b := core.NewBatch(len(vec))
	return func() {
		for i, p := range vec {
			p.SetFrame(frames[i])
		}
		if _, err := eng.ProcessBatch(vec, b); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSlowPathAllocationBudget: on a warm Batch a chain traversal that
// records nothing — handshake packets, and every packet of the baseline
// engine — allocates nothing in the engine or in the NFs; a traversal
// that records pays only for what outlives it.
func TestSlowPathAllocationBudget(t *testing.T) {
	t.Run("handshake", func(t *testing.T) {
		eng := chain1Engine(t, core.DefaultOptions())
		var vec []*packet.Packet
		for f := 0; f < 16; f++ {
			vec = append(vec,
				chain1Pkt(uint16(7000+f), packet.ProtoTCP, packet.TCPFlagSYN, ""),
				chain1Pkt(uint16(7000+f), packet.ProtoTCP, packet.TCPFlagACK, ""))
		}
		run := replayer(t, eng, vec)
		run()
		if n := testing.AllocsPerRun(20, run); n != 0 {
			t.Errorf("32 handshake packets: %v allocs, want 0", n)
		}
		if st := eng.Stats(); st.Handshake != st.Packets || st.SlowPath != st.Packets {
			t.Errorf("stats %+v: want every packet a slow-path handshake", st)
		}
	})
	t.Run("baseline", func(t *testing.T) {
		eng := chain1Engine(t, core.BaselineOptions())
		vec := make([]*packet.Packet, 32)
		for i := range vec {
			vec[i] = chain1Pkt(uint16(7100+i%4), packet.ProtoUDP, 0, "steady")
		}
		run := replayer(t, eng, vec)
		run()
		if n := testing.AllocsPerRun(20, run); n != 0 {
			t.Errorf("32 baseline packets: %v allocs, want 0", n)
		}
	})
	// One flow set up and torn down per run: the recording packet pays
	// for the flow entry, its record with the NFs' state words, and what
	// its rule needs besides.
	for _, tc := range []struct {
		name string
		json string
		// budget is the run's allocations; the comment says what they are.
		budget int
	}{
		// Chain1: the set-up block — the rule, the recording with its
		// modify values and its event registration — the 3 objects a
		// connection costs in the root package's Chain1FlowLifecycle gate.
		{"recording", server.DefaultSpecJSON, 3},
		// Three IPFilters, each recording a lone forward: a bare rule,
		// built from the chain's shared plain recording.
		{"plain", filtersSpec, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := core.NewEngine(specChain(t, tc.json), core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			vec := []*packet.Packet{chain1Pkt(7200, packet.ProtoUDP, 0, "first")}
			replay := replayer(t, eng, vec)
			run := func() {
				replay()
				eng.TeardownFlow(flow.FID(vec[0].Meta.FID))
			}
			run()
			n := testing.AllocsPerRun(20, run)
			t.Logf("record, consolidate, install, tear down: %v allocs", n)
			if n > float64(tc.budget) {
				t.Errorf("record, consolidate, install, tear down: %v allocs, budget %d", n, tc.budget)
			}
			if st := eng.Stats(); st.Consolidations != st.Packets {
				t.Errorf("stats %+v: want every packet to record and consolidate", st)
			}
		})
	}
}

// filtersSpec is three forward-only 100-rule IPFilters, each keeping
// per-flow state: every flow's rule is plain.
const filtersSpec = `{"name": "filters", "nfs": [
  {"type": "ipfilter", "name": "fw1", "acl_size": 100},
  {"type": "ipfilter", "name": "fw2", "acl_size": 100},
  {"type": "ipfilter", "name": "fw3", "acl_size": 100}]}`

// TestMaglevFailoverReconsolidates: a failover event rewrites the load
// balancer's published Local MAT rule in place and the engine rebuilds
// the flow's Global rule from the four Local MATs. The expected rule
// and program are pinned byte for byte (program format 3: the length,
// what the new values add to the IPv4 and transport checksums, then the
// three modifies, each with its field's place).
func TestMaglevFailoverReconsolidates(t *testing.T) {
	chain := chain1(t)
	eng, err := core.NewEngine(chain, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var lb *maglev.Maglev
	for _, nf := range chain {
		if m, ok := nf.(*maglev.Maglev); ok {
			lb = m
		}
	}
	first, err := eng.ProcessPacket(chain1Pkt(7300, packet.ProtoUDP, 0, "first"))
	if err != nil {
		t.Fatal(err)
	}
	fid := first.FID
	rule, ok := eng.Global().LookupLive(fid)
	if !ok {
		t.Fatal("no rule after the initial packet")
	}
	before, old := fmt.Sprintf("%v %x", rule, rule.Prog), rule
	// The default spec's backends are 192.168.1.10, .11 and .12, in order.
	orig, _ := lb.BackendOf(fid)
	if err := lb.FailBackend(int(orig.IP[3]) - 10); err != nil {
		t.Fatal(err)
	}
	second := chain1Pkt(7300, packet.ProtoUDP, 0, "second")
	res, err := eng.ProcessPacket(second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != core.PathFast || res.Fast.EventsFired != 1 {
		t.Fatalf("second packet: path %v, %d events fired; want the fast path after one failover", res.Path, res.Fast.EventsFired)
	}
	rule, _ = eng.Global().LookupLive(fid)
	after := fmt.Sprintf("%v %x", rule, rule.Prog)
	nb, _ := lb.BackendOf(fid)
	if nb == orig || second.DstIP() != nb.IP {
		t.Errorf("rerouted %v -> %v, packet rewritten to %v", orig, nb, second.DstIP())
	}
	const (
		wantBefore = "fid:6c623 -> modify(SIP,SPort,DIP) + 2 SF batch(es) in 1 stage(s) [v0] 032400e2eb0500013a070004010c0403c633640104020002024e200401100403c0a8010a"
		wantAfter  = "fid:6c623 -> modify(SIP,SPort,DIP) + 2 SF batch(es) in 1 stage(s) [v1] 032400e3eb0500023a070004010c0403c633640104020002024e200401100403c0a8010b"
	)
	if before != wantBefore || after != wantAfter {
		t.Errorf("rules differ from the pinned ones:\nbefore %s\nwant   %s\nafter  %s\nwant   %s", before, wantBefore, after, wantAfter)
	}
	// The failover edited the load balancer's span of a copy of the
	// recording: the new rule's other spans are what their NFs recorded,
	// and the old rule still holds the recording it was built from.
	for i, want := range []string{"[modify(SIP) modify(SPort)]", "", "[forward]", "[forward]"} {
		if i == 1 {
			continue
		}
		if got := fmt.Sprint(rule.Spans[i].Actions); got != want {
			t.Errorf("Local MAT %d after the failover: %s, want %s", i, got, want)
		}
	}
	if got := old.Spans[1].Actions[0].Value; !bytes.Equal(got, orig.IP[:]) || bytes.Equal(rule.Spans[1].Actions[0].Value, got) {
		t.Errorf("the load balancer's span: %v before the failover, %v after; want %v, then the new backend", got, rule.Spans[1].Actions[0].Value, orig.IP)
	}
}

// TestGuardFollowsPin: a Chain1 flow fails over twice on the fast path,
// off backend A and then off backend B. Its guard is the down flag of
// the backend it is pinned to, resolved when its rule is built, so each
// failover must rebuild it on the new pin: each failure fires exactly
// once on the next packet, the packet between is quiet, and
// CheckRecords, which compares every guard's word with the one the
// rule's recording builds, is clean after each.
func TestGuardFollowsPin(t *testing.T) {
	chain := chain1(t)
	eng, err := core.NewEngine(chain, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var lb *maglev.Maglev
	for _, nf := range chain {
		if m, ok := nf.(*maglev.Maglev); ok {
			lb = m
		}
	}
	first, err := eng.ProcessPacket(chain1Pkt(7400, packet.ProtoUDP, 0, "first"))
	if err != nil {
		t.Fatal(err)
	}
	fid := first.FID
	seen := map[maglev.Backend]bool{}
	for round := 0; round < 2; round++ {
		// The default spec's backends are 192.168.1.10, .11 and .12, in order.
		pinned, _ := lb.BackendOf(fid)
		seen[pinned] = true
		if err := lb.FailBackend(int(pinned.IP[3]) - 10); err != nil {
			t.Fatal(err)
		}
		for i, want := range []int{1, 0} {
			p := chain1Pkt(7400, packet.ProtoUDP, 0, "after")
			res, err := eng.ProcessPacket(p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Path != core.PathFast || res.Fast.EventsFired != want {
				t.Fatalf("failure %d, packet %d: path %v, %d events fired; want the fast path and %d", round+1, i+1, res.Path, res.Fast.EventsFired, want)
			}
			if nb, _ := lb.BackendOf(fid); seen[nb] || p.DstIP() != nb.IP {
				t.Fatalf("failure %d, packet %d: pinned to %v, sent to %v; want a healthy backend", round+1, i+1, nb, p.DstIP())
			}
			if err := eng.CheckRecords(); err != nil {
				t.Fatalf("failure %d, packet %d: %v", round+1, i+1, err)
			}
		}
	}
}

// TestQuietFlowsNeverProbe: Chain1's fast path reaches the Event Table
// only for a flow whose guard holds. With every backend healthy no
// packet takes the locked probe; when one fails, each flow pinned to it
// probes exactly once — its failover fires, it is rerouted, and its
// one-shot event is spent — while the flows pinned elsewhere keep
// answering off their rules.
func TestQuietFlowsNeverProbe(t *testing.T) {
	chain := chain1(t)
	eng, err := core.NewEngine(chain, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var lb *maglev.Maglev
	for _, nf := range chain {
		if m, ok := nf.(*maglev.Maglev); ok {
			lb = m
		}
	}
	const flows = 16
	b := core.NewBatch(flows)
	round := func(payload string) []core.PacketResult {
		t.Helper()
		vec := make([]*packet.Packet, flows)
		for f := range vec {
			vec[f] = chain1Pkt(uint16(7400+f), packet.ProtoUDP, 0, payload)
		}
		rs, err := eng.ProcessBatch(vec, b)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	quiet := func(when string) {
		t.Helper()
		before := eng.Events().ProbesTotal()
		for i := 0; i < 1000/flows+1; i++ {
			for _, r := range round("steady") {
				if r.Path != core.PathFast || r.Fast.EventsFired != 0 {
					t.Fatalf("%s: %v took path %v with %d events fired", when, r.FID, r.Path, r.Fast.EventsFired)
				}
			}
		}
		if got := eng.Events().ProbesTotal() - before; got != 0 {
			t.Errorf("%s: 1000 fast-path packets took %d locked probes, want 0", when, got)
		}
	}

	recorded := round("first")
	quiet("every backend healthy")

	victim, _ := lb.BackendOf(recorded[0].FID)
	var onVictim [flows]bool
	pinned := 0
	for i, r := range recorded {
		if be, _ := lb.BackendOf(r.FID); be == victim {
			onVictim[i] = true
			pinned++
		}
	}
	if pinned == flows {
		t.Fatalf("all %d flows pinned to one backend: nothing to compare", flows)
	}
	// The default spec's backends are 192.168.1.10, .11 and .12, in order.
	if err := lb.FailBackend(int(victim.IP[3]) - 10); err != nil {
		t.Fatal(err)
	}
	before := eng.Events().ProbesTotal()
	for i, r := range round("failover") {
		wantFired := 0
		if onVictim[i] {
			wantFired = 1
		}
		now, _ := lb.BackendOf(r.FID)
		if r.Path != core.PathFast || r.Fast.EventsFired != wantFired || now == victim {
			t.Errorf("%v (on the failed backend: %v) after the failure: path %v, %d fired, backend %v",
				r.FID, onVictim[i], r.Path, r.Fast.EventsFired, now)
		}
	}
	if got := eng.Events().ProbesTotal() - before; got != uint64(pinned) {
		t.Errorf("the failure cost %d locked probes, want one for each of the %d pinned flows", got, pinned)
	}
	if got := lb.Rerouted(); got != uint64(pinned) {
		t.Errorf("%d flows rerouted, want %d", got, pinned)
	}
	quiet("one backend failed, its flows rerouted")
}

// chain1Of returns the chain's load balancer and monitor.
func chain1Of(chain []core.NF) (lb *maglev.Maglev, mon *monitor.Monitor) {
	for _, nf := range chain {
		switch nf := nf.(type) {
		case *maglev.Maglev:
			lb = nf
		case *monitor.Monitor:
			mon = nf
		}
	}
	return lb, mon
}

// TestChain1RestoreBringsBackEveryRule: every Chain1 rule — two state
// functions and a failover guard each — comes back from a checkpoint
// plus the journal suffix, bound to the restored flows' state. A twin
// engine sees the traffic the restored state reflects, none of what the
// crash lost; from the restore on, both see the same packets, and the
// restored engine serves every flow's next packet from its rule with the
// twin's verdict and bytes. When a backend fails after the restore, the
// flows pinned to it are rerouted in place, their recording having come
// back with their rules, and match the twin, which does the same.
func TestChain1RestoreBringsBackEveryRule(t *testing.T) {
	const flows = 16
	liveChain, twinChain := chain1(t), chain1(t)
	live, err := core.NewEngine(liveChain, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	live.AttachWAL(wal.NewWriter(wal.Options{GroupCommit: 1}))
	twin, err := core.NewEngine(twinChain, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	send := func(eng *core.Engine, f int, payload string) (*core.PacketResult, *packet.Packet) {
		t.Helper()
		p := chain1Pkt(uint16(7500+f), packet.ProtoUDP, 0, payload)
		res, err := eng.ProcessPacket(p)
		if err != nil {
			t.Fatal(err)
		}
		return res, p
	}
	for round := 0; round < 3; round++ {
		for f := 0; f < flows; f++ {
			send(live, f, "before the checkpoint")
			send(twin, f, "before the checkpoint")
		}
	}
	cp, err := live.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp, err = wal.DecodeCheckpoint(cp.Encode()); err != nil {
		t.Fatal(err)
	}
	if len(cp.Rules) != flows {
		t.Fatalf("checkpoint holds %d rules, want all %d", len(cp.Rules), flows)
	}
	// After the checkpoint, on the live engine only: half the flows
	// re-record over a stale rule — the journal suffix carries their new
	// installs — and every flow passes a packet whose NF state the crash
	// loses.
	for f := 0; f < flows; f++ {
		res, _ := send(live, f, "after the checkpoint")
		if f%2 == 0 {
			live.Global().MarkStale(res.FID)
			send(live, f, "re-record")
		}
	}
	if live.WAL().Seq() <= cp.WALSeq {
		t.Fatal("nothing journaled after the checkpoint")
	}
	atCrash := live.Global().Len()

	freshChain := chain1(t)
	fresh, err := core.NewEngine(freshChain, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(cp, live.WAL().Bytes()); err != nil {
		t.Fatal(err)
	}
	if n := fresh.Global().Len(); n != atCrash || n != flows {
		t.Fatalf("restored %d rules, %d were live at the crash, want all %d", n, atCrash, flows)
	}
	if err := fresh.CheckRecords(); err != nil {
		t.Fatal(err)
	}

	// both sends one packet of each flow to the restored engine and the
	// twin and holds them to the same verdict and bytes.
	both := func(payload string, check func(f int, res *core.PacketResult)) {
		t.Helper()
		for f := 0; f < flows; f++ {
			fr, fp := send(fresh, f, payload)
			tr, tp := send(twin, f, payload)
			if fr.Verdict != tr.Verdict || !bytes.Equal(fp.Data(), tp.Data()) {
				t.Fatalf("%s: flow %d: verdict %v, twin %v; bytes equal %v", payload, f, fr.Verdict, tr.Verdict, bytes.Equal(fp.Data(), tp.Data()))
			}
			check(f, fr)
		}
	}
	both("after the restore", func(f int, res *core.PacketResult) {
		if res.Path != core.PathFast {
			t.Errorf("flow %d's first packet after the restore took the %v path, want its restored rule", f, res.Path)
		}
	})
	_, freshMon := chain1Of(freshChain)
	_, twinMon := chain1Of(twinChain)
	if got, want := freshMon.Totals(), twinMon.Totals(); got != want {
		t.Errorf("monitor totals %+v, twin %+v", got, want)
	}

	// A backend fails on both: the flows pinned to it fail over in place
	// on the restored engine too.
	freshLB, _ := chain1Of(freshChain)
	twinLB, _ := chain1Of(twinChain)
	fids := fidsOf(t, fresh)
	victim, _ := freshLB.BackendOf(fids[0])
	pinned := 0
	for _, fid := range fids {
		be, _ := freshLB.BackendOf(fid)
		if tbe, _ := twinLB.BackendOf(fid); tbe != be {
			t.Fatalf("%v is pinned to %v, on the twin to %v", fid, be, tbe)
		}
		if be == victim {
			pinned++
		}
	}
	if pinned == 0 || pinned == flows {
		t.Fatalf("%d of %d flows on the failed backend: nothing to compare", pinned, flows)
	}
	// The default spec's backends are 192.168.1.10, .11 and .12, in order.
	for _, lb := range []*maglev.Maglev{freshLB, twinLB} {
		if err := lb.FailBackend(int(victim.IP[3]) - 10); err != nil {
			t.Fatal(err)
		}
	}
	initial, fired := fresh.Stats().Initial, fresh.Stats().EventsFired
	both("after the failure", func(int, *core.PacketResult) {})
	both("rerouted", func(int, *core.PacketResult) {})
	if st := fresh.Stats(); st.Initial != initial || st.EventsFired-fired != uint64(pinned) {
		t.Errorf("after the failure: %d flows re-recorded, %d failovers fired; want none and one for each of the %d pinned to the failed backend",
			st.Initial-initial, st.EventsFired-fired, pinned)
	}
	both("steady", func(f int, res *core.PacketResult) {
		if res.Path != core.PathFast {
			t.Errorf("flow %d after the failover took the %v path", f, res.Path)
		}
	})
	if got, want := freshMon.Totals(), twinMon.Totals(); got != want {
		t.Errorf("after the failover: monitor totals %+v, twin %+v", got, want)
	}
	if err := fresh.CheckRecords(); err != nil {
		t.Error(err)
	}
}

// fidsOf lists the FIDs the engine's flows hold, in order.
func fidsOf(t *testing.T, eng *core.Engine) []flow.FID {
	t.Helper()
	var out []flow.FID
	for _, e := range eng.FlowEntries() {
		out = append(out, e.FID)
	}
	return out
}

// TestRestoredFlowFailsOverInPlace: a Chain1 flow restored from a
// checkpoint plus the journal suffix — its rule's image replayed from
// the log — brought its recording back with its rule, so when its
// Maglev backend fails, its next packet fires the failover and is served
// rerouted from the updated rule on the fast path: no slow-path packet,
// no removal for want of a recording.
func TestRestoredFlowFailsOverInPlace(t *testing.T) {
	live := chain1Engine(t, core.DefaultOptions())
	live.AttachWAL(wal.NewWriter(wal.Options{GroupCommit: 1}))
	const port = 7600
	first, err := live.ProcessPacket(chain1Pkt(port, packet.ProtoUDP, 0, "first"))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := live.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// The rule the restore brings back is the one the log holds: the flow
	// re-records after the checkpoint.
	live.Global().MarkStale(first.FID)
	if _, err := live.ProcessPacket(chain1Pkt(port, packet.ProtoUDP, 0, "re-record")); err != nil {
		t.Fatal(err)
	}
	if cp, err = wal.DecodeCheckpoint(cp.Encode()); err != nil {
		t.Fatal(err)
	}
	chain := chain1(t)
	hub := telemetry.NewHub()
	opts := core.DefaultOptions()
	opts.Telemetry = hub
	fresh, err := core.NewEngine(chain, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(cp, live.WAL().Bytes()); err != nil {
		t.Fatal(err)
	}
	lb, _ := chain1Of(chain)
	orig, _ := lb.BackendOf(first.FID)
	// The default spec's backends are 192.168.1.10, .11 and .12, in order.
	if err := lb.FailBackend(int(orig.IP[3]) - 10); err != nil {
		t.Fatal(err)
	}
	p := chain1Pkt(port, packet.ProtoUDP, 0, "after the failure")
	res, err := fresh.ProcessPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	nb, _ := lb.BackendOf(first.FID)
	if res.Path != core.PathFast || res.Fast.EventsFired != 1 || nb == orig || p.DstIP() != nb.IP {
		t.Errorf("after the failure: path %v, backend %v -> %v, packet to %v; want the fast path, rerouted in place",
			res.Path, orig, nb, p.DstIP())
	}
	if st := fresh.Stats(); st.SlowPath != 0 {
		t.Errorf("%d slow-path packets, want none", st.SlowPath)
	}
	if n := metricSum(t, hub, `speedybox_mat_removals_total{reason="event-unrecorded"`); n != 0 {
		t.Errorf("%d rules removed for want of a recording, want 0", n)
	}
	if err := fresh.CheckRecords(); err != nil {
		t.Error(err)
	}
}

// metricSum adds up every series of the hub's exposition whose name and
// labels start with prefix, failing the test if there is none.
func metricSum(t *testing.T, hub *telemetry.Hub, prefix string) uint64 {
	t.Helper()
	var out bytes.Buffer
	if err := hub.Registry.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	sum, seen := uint64(0), false
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		var v uint64
		if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &v); err != nil {
			t.Fatal(err)
		}
		sum, seen = sum+v, true
	}
	if !seen {
		t.Fatalf("no %s series in the exposition", prefix)
	}
	return sum
}
