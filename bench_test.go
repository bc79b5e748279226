package speedybox_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	speedybox "github.com/fastpathnfv/speedybox"
	"github.com/fastpathnfv/speedybox/internal/chainspec"
	"github.com/fastpathnfv/speedybox/internal/harness"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/server"
)

// Benchmarks: one per table/figure of the paper's evaluation, each
// running the corresponding harness experiment and reporting the
// headline modeled metric alongside Go-level timings, plus
// micro-benchmarks of the hot code paths themselves.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem

func benchCfg() harness.Config { return harness.Config{Seed: 1, Flows: 30} }

// BenchmarkFig4HeaderActionConsolidation regenerates Figure 4:
// CPU cycles per packet vs number of header actions.
func BenchmarkFig4HeaderActionConsolidation(b *testing.B) {
	var last *harness.Fig4Result
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig4(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		if row.Platform == "BESS" {
			b.ReportMetric(row.SubSaving(), fmt.Sprintf("saving%%@%dHA", row.NumHA))
		}
	}
}

// BenchmarkTable3EarlyDrop regenerates Table III: early packet drop.
func BenchmarkTable3EarlyDrop(b *testing.B) {
	var last *harness.Table3Result
	for i := 0; i < b.N; i++ {
		res, err := harness.RunTable3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		if row.Platform == "BESS" {
			b.ReportMetric(row.Saving(), "drop-saving%")
			b.ReportMetric(row.SBoxAggregate, "sbox-cycles/pkt")
		}
	}
}

// BenchmarkFig5SFParallelism regenerates Figure 5: state-function
// parallelism rate and latency.
func BenchmarkFig5SFParallelism(b *testing.B) {
	var last *harness.Fig5Result
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig5(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.BESSSpeedupAt3SF(), "bess-rate-x@3SF")
	b.ReportMetric(last.BESSLatencyReductionAt3SF(), "bess-lat-cut%@3SF")
}

// BenchmarkFig6SnortMonitor regenerates Figure 6.
func BenchmarkFig6SnortMonitor(b *testing.B) {
	var last *harness.Fig6Result
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig6(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		if row.Platform == "BESS" {
			b.ReportMetric(row.WorkReduction(), "cycle-cut%")
			b.ReportMetric(row.RateImprovement(), "rate-gain%")
		}
	}
}

// BenchmarkFig7LatencyBreakdown regenerates Figure 7: ablation shares.
func BenchmarkFig7LatencyBreakdown(b *testing.B) {
	var last *harness.Fig7Result
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig7(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		ha, sf := row.Shares()
		if row.Platform == "BESS" {
			b.ReportMetric(row.TotalReduction(), "lat-cut%")
			b.ReportMetric(ha, "ha-share%")
			b.ReportMetric(sf, "sf-share%")
		}
	}
}

// BenchmarkFig8ChainLength regenerates Figure 8: 1-9 NF chains.
func BenchmarkFig8ChainLength(b *testing.B) {
	var last *harness.Fig8Result
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig8(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	sbox := last.Series("BESS", true)
	orig := last.Series("BESS", false)
	b.ReportMetric(orig[8].LatencyMicro, "bess-orig-us@9")
	b.ReportMetric(sbox[8].LatencyMicro, "bess-sbox-us@9")
}

// BenchmarkFig9Chain1 and BenchmarkFig9Chain2 regenerate Figure 9:
// flow-processing-time CDFs on the real-world chains.
func BenchmarkFig9Chain1(b *testing.B) { benchFig9(b, 1) }

// BenchmarkFig9Chain2 is the second real-world chain.
func BenchmarkFig9Chain2(b *testing.B) { benchFig9(b, 2) }

func benchFig9(b *testing.B, chain int) {
	b.Helper()
	var last *harness.Fig9Result
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig9(harness.Config{Seed: 1, Flows: 60}, chain)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		if row.Platform == "BESS" {
			b.ReportMetric(row.P50Reduction(), "p50-cut%")
		}
	}
}

// BenchmarkTable2Equivalence runs the §VII-C equivalence suite (the
// paper's correctness tables).
func BenchmarkEquivalenceSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunEquivalence(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllPassed() {
			b.Fatalf("equivalence failed:\n%s", res.Format())
		}
	}
}

// ---- Micro-benchmarks of the hot paths (real Go time, not modeled
// cycles) ----

func benchChain(b *testing.B) []speedybox.NF {
	b.Helper()
	fw, err := speedybox.NewIPFilter(speedybox.IPFilterConfig{
		Name: "fw", Rules: speedybox.PadIPFilterRules(nil, 100),
	})
	if err != nil {
		b.Fatal(err)
	}
	ids, err := speedybox.NewSnort("ids", speedybox.DefaultSnortRules())
	if err != nil {
		b.Fatal(err)
	}
	mon, err := speedybox.NewMonitor("mon")
	if err != nil {
		b.Fatal(err)
	}
	return []speedybox.NF{fw, ids, mon}
}

// benchPerPacket times Process on one replayed UDP packet (no
// handshake). The fw/ids/mon chain rewrites nothing and forwards it, so
// the same parsed descriptor is valid on every iteration and packet
// construction stays outside the timed loop. The untimed first call
// records and consolidates the flow, so with SpeedyBox on every timed
// packet is fast path; the baseline has only the one path.
func benchPerPacket(b *testing.B, p *speedybox.Platform) {
	defer p.Close()
	pkt, err := speedybox.BuildPacket(speedybox.PacketSpec{
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{20, 0, 0, 1},
		SrcPort: 7777, DstPort: 80, Proto: 17,
		Payload: []byte("bench payload bytes"),
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Process(pkt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Process(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFastPathPerPacket measures the Go-level cost of one
// fast-path packet through a 3-NF chain on BESS.
func BenchmarkFastPathPerPacket(b *testing.B) {
	p, err := speedybox.NewBESS(benchChain(b), speedybox.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	benchPerPacket(b, p)
}

// BenchmarkFastPathPerPacketTelemetry is BenchmarkFastPathPerPacket
// with a telemetry hub attached: the per-packet delta is the cost of
// live instrumentation (designed to be one atomic add per packet, zero
// extra allocations).
func BenchmarkFastPathPerPacketTelemetry(b *testing.B) {
	opts := speedybox.DefaultOptions()
	opts.Telemetry = speedybox.NewTelemetry()
	p, err := speedybox.NewBESS(benchChain(b), opts)
	if err != nil {
		b.Fatal(err)
	}
	benchPerPacket(b, p)
}

// BenchmarkSlowPathPerPacket measures the original-chain traversal.
func BenchmarkSlowPathPerPacket(b *testing.B) {
	p, err := speedybox.NewBESS(benchChain(b), speedybox.BaselineOptions())
	if err != nil {
		b.Fatal(err)
	}
	benchPerPacket(b, p)
}

// BenchmarkONVMPerPacket measures one packet through the ONVM model:
// the engine's ladder, priced by ONVM's per-hop formula.
func BenchmarkONVMPerPacket(b *testing.B) {
	p, err := speedybox.NewONVM(benchChain(b), speedybox.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	benchPerPacket(b, p)
}

// mqChain is the multi-queue benchmark chain: three IPFilters with
// forward-only ACLs, so fast-path packets touch no shared NF state and
// the measurement isolates the engine's sharded data path.
func mqChain(tb testing.TB) []speedybox.NF {
	tb.Helper()
	chain := make([]speedybox.NF, 3)
	for i := range chain {
		f, err := speedybox.NewIPFilter(speedybox.IPFilterConfig{
			Name: fmt.Sprintf("fw%d", i+1), Rules: speedybox.PadIPFilterRules(nil, 100),
		})
		if err != nil {
			tb.Fatal(err)
		}
		chain[i] = f
	}
	return chain
}

// mqBESS builds mqChain on the BESS model with full SpeedyBox, closed
// when tb ends.
func mqBESS(tb testing.TB) *speedybox.Platform {
	tb.Helper()
	p, err := speedybox.NewBESS(mqChain(tb), speedybox.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { p.Close() })
	return p
}

// mqTrace builds a subsequent-packet-dominated UDP trace: 256 flows of
// 64 data packets each (no handshakes, rules installed by the first
// packet of each flow).
func mqTrace(b *testing.B) []*speedybox.Packet {
	b.Helper()
	tr, err := speedybox.GenerateTrace(speedybox.TraceConfig{
		Seed: 1, Flows: 256, MeanPackets: 64, SigmaPackets: 0.01,
		UDPFraction: 1.0, Interleave: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	return tr.Packets()
}

// BenchmarkMultiQueue measures the RSS-style multi-queue runner at
// 1/2/4/8 workers over one engine's sharded state. "wall-Mpps" is real
// wall-clock throughput (it only scales with workers when the host has
// the cores); "model-Mpps" is the cost model's aggregate rate for the
// queue partition, the simulator's prediction for a real RSS NIC.
func BenchmarkMultiQueue(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			mq, err := speedybox.NewMultiQueue(mqBESS(b), workers)
			if err != nil {
				b.Fatal(err)
			}
			// Prime: the first pass records and consolidates every
			// flow; timed passes replay the same flows fast-path.
			if _, err := mq.Run(mqTrace(b)); err != nil {
				b.Fatal(err)
			}
			var (
				pkts int
				last *speedybox.RunResult
			)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				trace := mqTrace(b)
				b.StartTimer()
				out, err := mq.Run(trace)
				if err != nil {
					b.Fatal(err)
				}
				pkts += out.Packets
				last = out
			}
			b.StopTimer()
			b.ReportMetric(float64(pkts)/b.Elapsed().Seconds()/1e6, "wall-Mpps")
			b.ReportMetric(last.AggregateRateMpps(), "model-Mpps")
		})
	}
}

// fastTrace builds the batched-fast-path benchmark trace: 4 UDP flows
// of ~512 data packets, interleaved — the "handful of flows per vector"
// shape the per-worker 4-way flow-context cache is sized for. Forward-only
// IPFilters never rewrite the packets, so the same descriptors replay
// indefinitely.
func fastTrace(tb testing.TB) []*speedybox.Packet {
	tb.Helper()
	tr, err := speedybox.GenerateTrace(speedybox.TraceConfig{
		Seed: 1, Flows: 4, MeanPackets: 512, SigmaPackets: 0.01,
		UDPFraction: 1.0, Interleave: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return tr.Packets()
}

// BenchmarkFastPath is the vector-of-one half of the vector-size
// comparison: one Process call per packet — the engine's ladder over a
// one-packet vector on its pooled Batch, the result copied out to the
// caller — of a pre-built, replayable trace on the
// dispatch-dominated 3-IPFilter chain (no regex, no payload work — the
// measurement isolates classification, rule lookup and accounting).
// b.N counts packets, so ns/op and allocs/op read per packet.
func BenchmarkFastPath(b *testing.B) {
	p := mqBESS(b)
	pkts := fastTrace(b)
	// Prime: record and consolidate every flow; timed replays then run
	// pure fast path.
	if _, err := speedybox.Run(p, pkts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Process(pkts[i%len(pkts)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "pkts-Mpps")
}

// ---- Allocation gates ----
//
// The paper's fast path does no per-packet bookkeeping beyond the
// consolidated rule; in Go that is an allocation count. Each gated path
// is a gate: a fixture that builds and primes the path and returns one
// step (a pass over its input) and the units the step drives — packets,
// or TCP connections for the flow lifecycle. The path's benchmark times
// the steps; TestAllocationGates counts a step's allocations and holds
// them to the path's bound per unit.

// A gate is an allocation-gated path's fixture.
type gate func(testing.TB) (step func(), units int)

// vec is the gated paths' vector size.
const vec = 32

// benchGate times g's steps after one warm step. b.N counts units, so
// allocs/op reads per unit; pktsPerUnit scales the packet rate.
func benchGate(b *testing.B, g gate, pktsPerUnit int) {
	step, units := g(b)
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += units {
		step()
	}
	b.ReportMetric(float64(b.N*pktsPerUnit)/b.Elapsed().Seconds()/1e6, "pkts-Mpps")
}

// TestAllocationGates counts each gated path's allocations a step,
// after AllocsPerRun's warm-up step, and fails above the path's bound
// per unit. The counts are the same under the race detector: no gated
// path goes through a sync.Pool.
func TestAllocationGates(t *testing.T) {
	for _, tc := range []struct {
		name  string
		gate  gate
		bound int // allocations per unit
	}{
		{"FastPathBatch", fastPathBatch, 0},
		{"FastPathBatchWAL", fastPathBatchWAL, 0},
		{"TopoFastPathBatch", topoFastPathBatch, 0},
		{"ClusterFastPathBatch", clusterFastPathBatch, 0},
		{"Chain1FastPathBatch", chain1FastPathBatch, 0},
		{"Chain1SlowPathBatch", chain1SlowPathBatch, 0},
		{"Chain1FlowLifecycle", chain1FlowLifecycle, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			step, units := tc.gate(t)
			n := testing.AllocsPerRun(10, step)
			t.Logf("%v allocs a step of %d units", n, units)
			if n > float64(tc.bound*units) {
				t.Errorf("%.2f allocs a unit, want <= %d", n/float64(units), tc.bound)
			}
		})
	}
}

// fastPathVectors primes p with fastTrace and returns a pass over the
// trace's whole 32-packet vectors through ProcessBatch on one Batch.
func fastPathVectors(tb testing.TB, p *speedybox.Platform) (func(), int) {
	pkts := fastTrace(tb)
	if _, err := speedybox.Run(p, pkts); err != nil {
		tb.Fatal(err)
	}
	pkts = pkts[:len(pkts)/vec*vec]
	bat := speedybox.NewBatch(vec)
	return func() {
		for off := 0; off < len(pkts); off += vec {
			if _, err := p.ProcessBatch(pkts[off:off+vec], bat); err != nil {
				tb.Fatal(err)
			}
		}
	}, len(pkts)
}

// BenchmarkFastPathBatch is the batched half: the identical trace in
// 32-packet vectors through ProcessBatch with one per-worker Batch.
// b.N still counts packets, so the figures compare directly with
// BenchmarkFastPath; the acceptance bar is >=2x packets/sec. Gated at 0
// allocs/packet.
func BenchmarkFastPathBatch(b *testing.B) { benchGate(b, fastPathBatch, 1) }

func fastPathBatch(tb testing.TB) (func(), int) { return fastPathVectors(tb, mqBESS(tb)) }

// BenchmarkFastPathBatchWAL is BenchmarkFastPathBatch with a WAL
// attached before warmup: every install journals, then the steady-state
// batched fast path runs with durability on. The journal only sees
// control-plane mutations, so the path stays gated at 0 allocs/packet.
func BenchmarkFastPathBatchWAL(b *testing.B) { benchGate(b, fastPathBatchWAL, 1) }

func fastPathBatchWAL(tb testing.TB) (func(), int) {
	p := mqBESS(tb)
	p.Engine().AttachWAL(speedybox.NewWAL(speedybox.WALOptions{}))
	step, units := fastPathVectors(tb, p)
	if p.Engine().WAL().Seq() == 0 {
		tb.Fatal("warmup journaled nothing")
	}
	return step, units
}

// chain1BESS builds the paper's Chain1 (the daemon's boot chain) on the
// BESS model with full SpeedyBox, closed when tb ends.
func chain1BESS(tb testing.TB) *speedybox.Platform {
	tb.Helper()
	spec, err := chainspec.Parse([]byte(server.DefaultSpecJSON))
	if err != nil {
		tb.Fatal(err)
	}
	chain, err := spec.Build()
	if err != nil {
		tb.Fatal(err)
	}
	p, err := speedybox.NewBESS(chain, speedybox.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { p.Close() })
	return p
}

// chain1Replay returns a pass over pkts in 32-packet vectors on one
// Batch. The NAT and the load balancer rewrite the packets, so a pass
// first reloads the descriptors from the pristine frames, with the
// timer stopped when tb is a benchmark; parsing is inside the timed
// region, as on a real rx path.
func chain1Replay(tb testing.TB, p *speedybox.Platform, frames, pkts []*speedybox.Packet) func() {
	stop, start := func() {}, func() {}
	if b, ok := tb.(*testing.B); ok {
		stop, start = b.StopTimer, b.StartTimer
	}
	bat := speedybox.NewBatch(vec)
	return func() {
		stop()
		for i, pkt := range pkts {
			pkt.SetFrame(frames[i].Data())
		}
		start()
		for off := 0; off < len(pkts); off += vec {
			if _, err := p.ProcessBatch(pkts[off:min(off+vec, len(pkts))], bat); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// BenchmarkChain1FastPathBatch is the batched fast path on the paper's
// Chain1 (the daemon's boot chain: MazuNAT, Maglev, Monitor, IPFilter)
// — unlike the 3-IPFilter benchmarks around it, every packet here has
// header rewrites to apply, state functions to execute and events to
// probe, all on the calling core. b.N counts packets; gated at 0
// allocs/packet.
func BenchmarkChain1FastPathBatch(b *testing.B) { benchGate(b, chain1FastPathBatch, 1) }

func chain1FastPathBatch(tb testing.TB) (func(), int) {
	p := chain1BESS(tb)
	tr, err := speedybox.GenerateTrace(speedybox.TraceConfig{
		Seed: 1, Flows: 256, MeanPackets: 8, UDPFraction: 1.0, Interleave: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	frames, pkts := tr.Packets(), tr.Packets()
	// Prime: record and consolidate every flow (UDP flows never tear
	// down), so every later pass runs pure fast path.
	if _, err := speedybox.Run(p, pkts); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if st := p.Engine().Stats(); st.FastPath+uint64(len(pkts)) < st.Packets {
			tb.Errorf("passes left the fast path: %d of %d packets fast", st.FastPath, st.Packets)
		}
	})
	return chain1Replay(tb, p, frames, pkts), len(pkts)
}

// chain1Lifecycles builds the slow-path gates' input: conns short TCP
// connections (SYN, handshake ACK, 4 data packets, FIN; with data
// false, only the SYN and the ACK), one after the other, as pristine
// frames and the descriptors replayed from them.
func chain1Lifecycles(conns int, data bool) (frames, pkts []*speedybox.Packet) {
	for c := 0; c < conns; c++ {
		flags := []uint8{packet.TCPFlagSYN, packet.TCPFlagACK}
		if data {
			const ack = packet.TCPFlagACK
			flags = append(flags, ack, ack, ack, ack, ack|packet.TCPFlagFIN)
		}
		for i, f := range flags {
			payload := ""
			if i >= 2 && i < 6 {
				payload = "lifecycle data"
			}
			spec := packet.Spec{
				SrcIP: packet.IP4(10, 0, 1, 1), DstIP: packet.IP4(10, 0, 2, 1),
				SrcPort: uint16(20000 + c), DstPort: 80, Proto: packet.ProtoTCP,
				TCPFlags: f, Seq: uint32(i), Payload: []byte(payload),
			}
			frames = append(frames, packet.MustBuild(spec))
			pkts = append(pkts, packet.MustBuild(spec))
		}
	}
	return frames, pkts
}

// BenchmarkChain1SlowPathBatch is the slow path that records nothing:
// vectors of TCP handshake packets (SYN, ACK) walk all four Chain1 NFs
// on the worker's traversal scratch. b.N counts packets; gated at 0
// allocs/packet, in the engine and in the NFs.
func BenchmarkChain1SlowPathBatch(b *testing.B) { benchGate(b, chain1SlowPathBatch, 1) }

func chain1SlowPathBatch(tb testing.TB) (func(), int) {
	const conns = 512
	p := chain1BESS(tb)
	frames, pkts := chain1Lifecycles(conns, false)
	pass := chain1Replay(tb, p, frames, pkts)
	// Every SYN takes a fresh NAT port at the cursor, and the NAT pages
	// in its port map 64 ports at a time: until the cursor has wrapped,
	// a pass allocates the pages of its 512 new ports. 65536/512 passes
	// wrap it from any port base.
	for i := 0; i < 65536/conns; i++ {
		pass()
	}
	tb.Cleanup(func() {
		if st := p.Engine().Stats(); st.Handshake != st.Packets {
			tb.Errorf("%d of %d packets were not handshake packets", st.Packets-st.Handshake, st.Packets)
		}
	})
	return pass, len(pkts)
}

// BenchmarkChain1FlowLifecycle is flow set-up end to end: per op one
// TCP connection through ProcessBatch — SYN, ACK, the data packet that
// records, consolidates and installs the rule, three on the fast path,
// and the FIN that tears everything down. allocs/op is what a flow
// costs to set up and remove, gated at 3: the entry, its record with the
// NFs' state words, and the set-up block — the rule, the recording it
// is built from with the values NAT and Maglev record, and the event
// registration (DESIGN §16, "The set-up path").
func BenchmarkChain1FlowLifecycle(b *testing.B) { benchGate(b, chain1FlowLifecycle, 7) }

func chain1FlowLifecycle(tb testing.TB) (func(), int) {
	// Until MazuNAT's port cursor wraps, every other pass also pages in
	// 64 ports of its port map: 1/64 of an object a connection, below
	// AllocsPerRun's integer average over ten passes and amortized away
	// in a long benchmark run. Wrapping the cursor first, as the slow
	// path's fixture does, would cost 2048 passes here.
	const conns, perConn = 32, 7
	p := chain1BESS(tb)
	frames, pkts := chain1Lifecycles(conns, true)
	tb.Cleanup(func() {
		st := p.Engine().Stats()
		if st.Consolidations*perConn != st.Packets || p.Engine().Global().Len() != 0 {
			tb.Errorf("stats %+v, %d rules left: want one consolidation per connection and every rule removed",
				st, p.Engine().Global().Len())
		}
	})
	return chain1Replay(tb, p, frames, pkts), conns
}

// BenchmarkTopoFastPathBatch measures the multi-chain topology fast
// path: packets are classified per packet (policy match + tenant
// stamp) and drained through their chain's engine in 32-packet
// same-chain vectors on one Batch, the way Topology.ProcessRuns feeds
// chains under both runners. b.N counts packets; gated at 0
// allocs/packet, so the topology layer costs nothing of the
// single-chain zero-alloc property.
func BenchmarkTopoFastPathBatch(b *testing.B) { benchGate(b, topoFastPathBatch, 1) }

func topoFastPathBatch(tb testing.TB) (func(), int) {
	spec := &speedybox.TopologySpec{
		Name: "bench",
		Chains: []speedybox.TopologyChainSpec{
			{Name: "a", NFs: []speedybox.NFSpec{
				{Type: "ipfilter", ACLSize: 100},
				{Type: "ipfilter", ACLSize: 100},
				{Type: "ipfilter", ACLSize: 100},
			}},
			{Name: "b", NFs: []speedybox.NFSpec{
				{Type: "ipfilter", ACLSize: 100},
				{Type: "ipfilter", ACLSize: 100},
				{Type: "ipfilter", ACLSize: 100},
			}},
		},
		Policies: []speedybox.TopologyPolicySpec{
			{Chain: "a", Tenant: 1, DstPortMin: 80},
			{Chain: "b", Tenant: 2, DstPortMin: 9000},
		},
		Tenants: []speedybox.TenantSpec{{ID: 1}, {ID: 2}},
	}
	tp, err := speedybox.BuildTopology(spec, speedybox.TopologyBuildConfig{
		Options: speedybox.DefaultOptions(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { tp.Close() })

	// Two interleaved UDP services, one per chain.
	var pkts []*speedybox.Packet
	for i, port := range []uint16{80, 9000} {
		tr, err := speedybox.GenerateTrace(speedybox.TraceConfig{
			Seed: int64(i + 1), Flows: 4, MeanPackets: 512, SigmaPackets: 0.01,
			UDPFraction: 1.0, DstPort: port, Interleave: true,
		})
		if err != nil {
			tb.Fatal(err)
		}
		pkts = append(pkts, tr.Packets()...)
	}
	// Prime: record and consolidate every flow through the topology.
	if _, err := tp.RunBatch(pkts, vec); err != nil {
		tb.Fatal(err)
	}
	// Pre-split into maximal same-chain vectors, as RunBatch does.
	type chainVec struct {
		chain int
		pkts  []*speedybox.Packet
	}
	var vecs []chainVec
	for off := 0; off < len(pkts); {
		chain := tp.Route(pkts[off])
		end := off + 1
		for end < len(pkts) && end-off < vec && tp.Route(pkts[end]) == chain {
			end++
		}
		vecs = append(vecs, chainVec{chain: chain, pkts: pkts[off:end]})
		off = end
	}
	bat := speedybox.NewBatch(vec)
	return func() {
		for _, v := range vecs {
			// Classify per packet in the timed region — the dispatcher does.
			for _, pkt := range v.pkts {
				tp.Route(pkt)
			}
			if _, err := tp.Chain(v.chain).Platform.ProcessBatch(v.pkts, bat); err != nil {
				tb.Fatal(err)
			}
		}
	}, len(pkts)
}

// BenchmarkClusterFastPathBatch measures the clustered fast path in
// steady state: a 2-instance fleet behind the consistent-hash steerer,
// fed 32-packet vectors that ProcessRuns splits into same-instance
// runs. Steering (route + view recheck + instance RLock) is in the
// timed region — that is the cluster's per-packet overhead versus
// BenchmarkFastPathBatch. Gated at 0 allocs/packet: one
// generation-banded Batch serves every instance, so the migration
// machinery must cost nothing when no rebalance is in flight.
func BenchmarkClusterFastPathBatch(b *testing.B) { benchGate(b, clusterFastPathBatch, 1) }

func clusterFastPathBatch(tb testing.TB) (func(), int) {
	cl, err := speedybox.NewCluster(speedybox.ClusterConfig{
		Chain: mqChain(tb), Options: speedybox.DefaultOptions(), Instances: 2,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cl.Close() })
	tr, err := speedybox.GenerateTrace(speedybox.TraceConfig{
		Seed: 1, Flows: 8, MeanPackets: 256, SigmaPackets: 0.01,
		UDPFraction: 1.0, Interleave: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	pkts := tr.Packets()
	// Prime: record and consolidate every flow on its home instance;
	// later passes run pure fast path.
	if _, err := cl.RunBatch(pkts, vec, nil); err != nil {
		tb.Fatal(err)
	}
	spread := 0
	for _, in := range cl.Instances() {
		if in.Flows > 0 {
			spread++
		}
	}
	if spread < 2 {
		tb.Fatalf("trace landed on %d instance(s); steering not exercised", spread)
	}
	pkts = pkts[:len(pkts)/vec*vec]
	bat := speedybox.NewBatch(vec)
	return func() {
		for off := 0; off < len(pkts); off += vec {
			if err := cl.ProcessRuns(pkts[off:off+vec], vec, bat, nil); err != nil {
				tb.Fatal(err)
			}
		}
	}, len(pkts)
}

// BenchmarkPooledReplay measures a whole-trace replay cycle with pooled
// descriptors: draw the trace from the pool, run it batched, return
// every descriptor via RunBatch. Steady state allocates no packet
// descriptors — remaining allocs/op are the run's aggregation slices.
func BenchmarkPooledReplay(b *testing.B) {
	p := mqBESS(b)
	tr, err := speedybox.GenerateTrace(speedybox.TraceConfig{
		Seed: 1, Flows: 4, MeanPackets: 512, SigmaPackets: 0.01,
		UDPFraction: 1.0, Interleave: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	pool := speedybox.NewPacketPool()
	buf := make([]*speedybox.Packet, 0, tr.Len())
	if _, err := speedybox.RunBatch(p, tr.PacketsPooled(pool, buf), 32, pool); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkts := tr.PacketsPooled(pool, buf)
		if _, err := speedybox.RunBatch(p, pkts, 32, pool); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineParallel drives one BESS platform's fast path from
// GOMAXPROCS goroutines via RunParallel, each goroutine on its own
// flow — the per-packet figure under concurrency, comparable with
// BenchmarkFastPathPerPacket's serial figure.
func BenchmarkEngineParallel(b *testing.B) {
	p := mqBESS(b)
	var nextPort atomic.Uint32
	nextPort.Store(20000)
	b.RunParallel(func(pb *testing.PB) {
		port := uint16(nextPort.Add(1))
		mk := func() *speedybox.Packet {
			pkt, err := speedybox.BuildPacket(speedybox.PacketSpec{
				SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{20, 0, 0, 1},
				SrcPort: port, DstPort: 80, Proto: 17,
				Payload: []byte("bench payload bytes"),
			})
			if err != nil {
				b.Fatal(err)
			}
			return pkt
		}
		// Install this goroutine's rule.
		if _, err := p.Process(mk()); err != nil {
			b.Fatal(err)
		}
		for pb.Next() {
			if _, err := p.Process(mk()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTraceGeneration measures synthetic trace synthesis.
func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := speedybox.GenerateTrace(speedybox.TraceConfig{Seed: int64(i), Flows: 100, Interleave: true}); err != nil {
			b.Fatal(err)
		}
	}
}
