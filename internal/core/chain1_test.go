package core_test

import (
	"fmt"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/chainspec"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/nf/maglev"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/server"
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
	t.Run("recording", func(t *testing.T) {
		// One flow set up and torn down per run: the recording packet
		// pays for the flow entry, its record and NF state block, the
		// recording, the consolidated rule, its event registration and
		// the NFs' own closures and values — the 12 objects a connection
		// costs in the root package's Chain1FlowLifecycle gate.
		const budget = 12
		eng := chain1Engine(t, core.DefaultOptions())
		vec := []*packet.Packet{chain1Pkt(7200, packet.ProtoUDP, 0, "first")}
		replay := replayer(t, eng, vec)
		run := func() {
			replay()
			eng.TeardownFlow(flow.FID(vec[0].Meta.FID))
		}
		run()
		if n := testing.AllocsPerRun(20, run); n > budget {
			t.Errorf("record, consolidate, install, tear down: %v allocs, budget %d", n, budget)
		}
		if st := eng.Stats(); st.Consolidations != st.Packets {
			t.Errorf("stats %+v: want every packet to record and consolidate", st)
		}
	})
}

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
	before := fmt.Sprintf("%v %x", rule, rule.Prog)
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
	// The failover's in-place edit stayed inside the load balancer's own
	// span of the record: its neighbours' are what they recorded.
	spans, _ := eng.Events().Recorded(fid)
	for i, want := range []string{"[modify(SIP) modify(SPort)]", "", "[forward]", "[forward]"} {
		if i == 1 {
			continue
		}
		if got := fmt.Sprint(spans[i].Actions); got != want {
			t.Errorf("Local MAT %d after the failover: %s, want %s", i, got, want)
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
	round := func(payload string) []*core.PacketResult {
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
