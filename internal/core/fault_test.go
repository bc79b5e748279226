package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
)

// faultEngine builds a SpeedyBox engine with a seeded injector and a
// live telemetry hub, over the standard modifier+counter chain.
func faultEngine(t *testing.T, rates map[fault.Kind]float64, nfs ...NF) (*Engine, *fault.Injector, *telemetry.Hub) {
	t.Helper()
	if len(nfs) == 0 {
		nfs = []NF{
			&fakeModifier{name: "nat", dip: [4]byte{99, 0, 0, 1}},
			&fakeCounter{name: "monitor"},
		}
	}
	inj := fault.New(fault.Config{Seed: 42, Rates: rates})
	hub := telemetry.NewHub()
	opts := DefaultOptions()
	opts.Faults = inj
	opts.Telemetry = hub
	eng, err := NewEngine(nfs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng, inj, hub
}

// establish walks a TCP flow through its handshake so the next data
// packet classifies as initial.
func establish(t *testing.T, eng *Engine, port uint16) {
	t.Helper()
	for i, pkt := range []*packet.Packet{
		tcpPkt(t, port, packet.TCPFlagSYN, 0, ""),
		tcpPkt(t, port, packet.TCPFlagACK, 1, ""),
	} {
		if _, err := eng.ProcessPacket(pkt); err != nil {
			t.Fatalf("handshake packet %d: %v", i, err)
		}
	}
}

// TestFaultKindsDegradeGracefully is the table: every fault kind, at
// full rate, must leave the engine processing every packet with the
// correct forward verdict — degradation means slower, never wrong and
// never dropped.
func TestFaultKindsDegradeGracefully(t *testing.T) {
	const packets = 40
	for _, tc := range []struct {
		kind fault.Kind
		// check runs after the workload with the engine's final state.
		check func(t *testing.T, eng *Engine, st Stats)
	}{
		{fault.KindNFError, func(t *testing.T, eng *Engine, st Stats) {
			// Recording never survives an NF restart, so nothing ever
			// consolidates and no flow reaches the fast path.
			if st.Consolidations != 0 {
				t.Errorf("consolidations = %d under always-failing NFs, want 0", st.Consolidations)
			}
			if st.FastPath != 0 {
				t.Errorf("fast-path packets = %d, want 0", st.FastPath)
			}
		}},
		{fault.KindInstallFail, func(t *testing.T, eng *Engine, st Stats) {
			if st.FastPath != 0 {
				t.Errorf("fast-path packets = %d with every install failing, want 0", st.FastPath)
			}
			if st.DegradedPackets == 0 {
				t.Error("no packets counted degraded; the ladder never engaged")
			}
			if eng.DegradedFlows() == 0 {
				t.Error("no flow on the degradation ladder")
			}
		}},
		{fault.KindEventStorm, func(t *testing.T, eng *Engine, st Stats) {
			if st.EventsFired == 0 {
				t.Error("storm registered but no event ever fired")
			}
			if st.FastPath == 0 {
				t.Error("storm must churn the fast path, not disable it")
			}
		}},
		{fault.KindRecomputeDrop, func(t *testing.T, eng *Engine, st Stats) {
			// Without events pending this kind is never even consulted;
			// the storm-free chain registers none, so just require the
			// engine stayed healthy (the focused test below covers the
			// stale-marking behaviour).
			if st.FastPath == 0 {
				t.Error("no fast-path packets")
			}
		}},
		{fault.KindRecomputeDelay, func(t *testing.T, eng *Engine, st Stats) {
			if st.FastPath == 0 {
				t.Error("no fast-path packets")
			}
		}},
		{fault.KindEvictPressure, func(t *testing.T, eng *Engine, st Stats) {
			if st.SlowPathFallbacks == 0 {
				t.Error("constant eviction produced no slow-path fallbacks")
			}
			if n := eng.Global().Len(); n != 0 {
				// The last packet's install survives only until the next
				// packet's eviction; with per-packet eviction the table
				// holds at most the final install per flow.
				t.Logf("global MAT holds %d rules after eviction storm", n)
			}
		}},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			eng, inj, _ := faultEngine(t, map[fault.Kind]float64{tc.kind: 1})
			var sent uint64
			for _, port := range []uint16{8101, 8102} {
				establish(t, eng, port)
				sent += 2
				for i := 0; i < packets; i++ {
					res, err := eng.ProcessPacket(tcpPkt(t, port, packet.TCPFlagACK, 2+i, "payload"))
					if err != nil {
						t.Fatalf("packet %d: %v", i, err)
					}
					sent++
					if res.Verdict != VerdictForward {
						t.Fatalf("packet %d verdict %v, want forward", i, res.Verdict)
					}
				}
			}
			st := eng.Stats()
			if st.Packets != sent {
				t.Errorf("Stats().Packets = %d, want %d", st.Packets, sent)
			}
			if st.Dropped != 0 {
				t.Errorf("Stats().Dropped = %d, want 0: faults must never drop packets", st.Dropped)
			}
			if tc.kind != fault.KindRecomputeDrop && tc.kind != fault.KindRecomputeDelay {
				if inj.Injected(tc.kind) == 0 {
					t.Errorf("injector never fired %v", tc.kind)
				}
			}
			tc.check(t, eng, st)
		})
	}
}

// TestFaultInstallFailRecovery walks the full ladder: every install
// fails, the flow degrades with backoff, the fault clears, and the next
// permitted retry reinstalls the rule and returns the flow to the fast
// path.
func TestFaultInstallFailRecovery(t *testing.T) {
	eng, inj, _ := faultEngine(t, map[fault.Kind]float64{fault.KindInstallFail: 1})
	const port = 8201
	establish(t, eng, port)

	// First data packet records; the install fails.
	res, err := eng.ProcessPacket(tcpPkt(t, port, packet.TCPFlagACK, 2, "data"))
	if err != nil {
		t.Fatal(err)
	}
	fid := res.FID
	if _, ok := eng.Global().LookupLive(fid); ok {
		t.Fatal("live rule present after a failed install")
	}
	if eng.DegradedFlows() != 1 {
		t.Fatalf("DegradedFlows = %d after failed install, want 1", eng.DegradedFlows())
	}

	// While degraded, packets stay on the slow path without retrying.
	before := inj.Decisions(fault.KindInstallFail)
	for i := 0; i < 5; i++ {
		res, err = eng.ProcessPacket(tcpPkt(t, port, packet.TCPFlagACK, 3+i, "data"))
		if err != nil {
			t.Fatal(err)
		}
		if res.Path != PathSlow {
			t.Fatalf("degraded packet %d took %v, want slow path", i, res.Path)
		}
	}
	if after := inj.Decisions(fault.KindInstallFail); after != before {
		t.Errorf("degraded flow burned %d consolidation attempts during backoff", after-before)
	}
	if st := eng.Stats(); st.DegradedPackets == 0 {
		t.Error("no degraded packets counted during backoff")
	}

	// The fault clears. After the backoff deadline (8 logical ticks for
	// the first failure) the next initial packet re-records and the
	// install lands.
	inj.SetRate(fault.KindInstallFail, 0)
	recovered := false
	for i := 0; i < 20 && !recovered; i++ {
		if _, err := eng.ProcessPacket(tcpPkt(t, port, packet.TCPFlagACK, 10+i, "data")); err != nil {
			t.Fatal(err)
		}
		_, recovered = eng.Global().LookupLive(fid)
	}
	if !recovered {
		t.Fatal("flow never recovered after the fault cleared")
	}
	st := eng.Stats()
	if st.FaultRecoveries == 0 {
		t.Error("recovery not counted in Stats().FaultRecoveries")
	}
	if eng.DegradedFlows() != 0 {
		t.Errorf("DegradedFlows = %d after recovery, want 0", eng.DegradedFlows())
	}
	res, err = eng.ProcessPacket(tcpPkt(t, port, packet.TCPFlagACK, 99, "data"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathFast {
		t.Errorf("post-recovery packet took %v, want fast path", res.Path)
	}
}

// TestFaultBackoffBoundsRetries verifies exponential backoff: under a
// persistent install fault, consolidation retries grow sparser, so a
// long packet stream burns few attempts.
func TestFaultBackoffBoundsRetries(t *testing.T) {
	eng, inj, _ := faultEngine(t, map[fault.Kind]float64{fault.KindInstallFail: 1})
	const port = 8301
	establish(t, eng, port)
	const n = 600
	for i := 0; i < n; i++ {
		if _, err := eng.ProcessPacket(tcpPkt(t, port, packet.TCPFlagACK, 2+i, "data")); err != nil {
			t.Fatal(err)
		}
	}
	// With backoff 8,16,32,...,1024 the retry schedule is logarithmic:
	// 600 packets admit at most ~7 attempts (8+16+32+64+128+256 > 500).
	attempts := inj.Decisions(fault.KindInstallFail)
	if attempts > 10 {
		t.Errorf("%d install attempts over %d packets; backoff is not escalating", attempts, n)
	}
	if attempts < 2 {
		t.Errorf("%d install attempts; the ladder never retried", attempts)
	}
}

// TestFaultNFErrorAbortsRecording: an NF crash-restart during recording
// must abandon the recording (the contribution is untrustworthy), leave
// the packet correctly processed, and degrade the flow.
func TestFaultNFErrorAbortsRecording(t *testing.T) {
	eng, _, _ := faultEngine(t, map[fault.Kind]float64{fault.KindNFError: 1})
	const port = 8401
	establish(t, eng, port)
	pkt := tcpPkt(t, port, packet.TCPFlagACK, 2, "data")
	res, err := eng.ProcessPacket(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slow == nil || res.Slow.FaultRestarts == 0 {
		t.Fatal("no NF restarts recorded on the slow-path result")
	}
	// The restarted NF reprocessed the hop: the packet still carries the
	// modifier's rewrite.
	dip, err := pkt.Get(packet.FieldDstIP)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dip, []byte{99, 0, 0, 1}) {
		t.Errorf("DIP = %v after NF restart, want the NAT rewrite", dip)
	}
	if _, ok := eng.Global().Lookup(res.FID); ok {
		t.Error("rule installed from an aborted recording")
	}
	if eng.DegradedFlows() != 1 {
		t.Errorf("DegradedFlows = %d, want 1", eng.DegradedFlows())
	}
}

// TestFaultRecomputeDropMarksStale: a lost rule recomputation must
// stale-mark the installed rule (it now disagrees with the Local MATs)
// and divert the packet to the slow path.
func TestFaultRecomputeDropMarksStale(t *testing.T) {
	evt := &fakeEventNF{name: "lb"}
	mod := &fakeModifier{name: "nat", dip: [4]byte{99, 0, 0, 1}}
	eng, inj, _ := faultEngine(t, fault.UniformRates(0), mod, evt)
	const port = 8501
	establish(t, eng, port)
	res, err := eng.ProcessPacket(tcpPkt(t, port, packet.TCPFlagACK, 2, "data"))
	if err != nil {
		t.Fatal(err)
	}
	fid := res.FID
	if _, ok := eng.Global().LookupLive(fid); !ok {
		t.Fatal("no rule installed")
	}

	// Arm the event and lose its recomputation.
	evt.armed.Store(1)
	inj.SetRate(fault.KindRecomputeDrop, 1)
	res, err = eng.ProcessPacket(tcpPkt(t, port, packet.TCPFlagACK, 3, "data"))
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Global().IsStale(fid) {
		t.Error("rule not stale-marked after a dropped recomputation")
	}
	if _, ok := eng.Global().LookupLive(fid); ok {
		t.Error("LookupLive served a stale rule")
	}
	if _, ok := eng.Global().Lookup(fid); !ok {
		t.Error("plain Lookup should still expose the stale rule for inspection")
	}
	if res.Path != PathSlow {
		t.Errorf("packet with a stale rule took %v, want slow-path fallback", res.Path)
	}
	if st := eng.Stats(); st.SlowPathFallbacks == 0 {
		t.Error("fallback not counted")
	}
}

// TestFaultRecomputeDelayRetriesImmediately: a delayed (not lost)
// recomputation parks the flow without escalating backoff, so the very
// next initial packet reinstalls.
func TestFaultRecomputeDelayRetriesImmediately(t *testing.T) {
	evt := &fakeEventNF{name: "lb"}
	mod := &fakeModifier{name: "nat", dip: [4]byte{99, 0, 0, 1}}
	eng, inj, _ := faultEngine(t, fault.UniformRates(0), mod, evt)
	const port = 8601
	establish(t, eng, port)
	res, err := eng.ProcessPacket(tcpPkt(t, port, packet.TCPFlagACK, 2, "data"))
	if err != nil {
		t.Fatal(err)
	}
	fid := res.FID

	evt.armed.Store(1)
	inj.SetRate(fault.KindRecomputeDelay, 1)
	if _, err := eng.ProcessPacket(tcpPkt(t, port, packet.TCPFlagACK, 3, "data")); err != nil {
		t.Fatal(err)
	}
	if !eng.Global().IsStale(fid) {
		t.Fatal("rule not stale-marked after a delayed recomputation")
	}
	// The control plane "catches up": the delay fault clears and the
	// next packet may re-record immediately — no 8-tick backoff.
	inj.SetRate(fault.KindRecomputeDelay, 0)
	for i := 0; i < 3; i++ {
		if _, err := eng.ProcessPacket(tcpPkt(t, port, packet.TCPFlagACK, 4+i, "data")); err != nil {
			t.Fatal(err)
		}
		if _, ok := eng.Global().LookupLive(fid); ok {
			break
		}
	}
	if _, ok := eng.Global().LookupLive(fid); !ok {
		t.Fatal("delayed recomputation never caught up")
	}
	if st := eng.Stats(); st.FaultRecoveries == 0 {
		t.Error("catch-up reinstall not counted as a recovery")
	}
}

// TestFaultEventStormBounded: the storm fault registers recurring
// events, but the per-flow cap bounds the table and the no-op updates
// keep verdicts and bytes unchanged.
func TestFaultEventStormBounded(t *testing.T) {
	eng, _, _ := faultEngine(t, map[fault.Kind]float64{fault.KindEventStorm: 1})
	const port = 8701
	establish(t, eng, port)
	res, err := eng.ProcessPacket(tcpPkt(t, port, packet.TCPFlagACK, 2, "data"))
	if err != nil {
		t.Fatal(err)
	}
	pending := eng.Events().Pending(res.FID)
	if pending == 0 {
		t.Fatal("storm registered no events")
	}
	for i := 0; i < 30; i++ {
		r, err := eng.ProcessPacket(tcpPkt(t, port, packet.TCPFlagACK, 3+i, "data"))
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != VerdictForward {
			t.Fatalf("storm changed packet %d's verdict to %v", i, r.Verdict)
		}
	}
	if n := eng.Events().Pending(res.FID); n > 64 {
		t.Errorf("event table holds %d events for one flow; the cap leaks", n)
	}
	if st := eng.Stats(); st.EventsFired == 0 {
		t.Error("storm events never fired")
	}
}

// TestFaultTelemetryCounters scrapes the Prometheus exposition under a
// mixed fault load and cross-checks it against the engine counters.
func TestFaultTelemetryCounters(t *testing.T) {
	eng, inj, hub := faultEngine(t, fault.UniformRates(0.3))
	for _, port := range []uint16{8801, 8802, 8803} {
		establish(t, eng, port)
		for i := 0; i < 40; i++ {
			if _, err := eng.ProcessPacket(tcpPkt(t, port, packet.TCPFlagACK, 2+i, "data")); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf bytes.Buffer
	if err := hub.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	st := eng.Stats()
	for metric, want := range map[string]uint64{
		"speedybox_slowpath_fallbacks_total": st.SlowPathFallbacks,
		"speedybox_fastpath_degraded_total":  st.DegradedPackets,
		"speedybox_fault_recoveries_total":   st.FaultRecoveries,
	} {
		line := fmt.Sprintf("%s %d", metric, want)
		if !strings.Contains(out, line) {
			t.Errorf("exposition missing %q:\n%s", line, grepLines(out, metric))
		}
	}
	total := uint64(0)
	for _, k := range fault.Kinds() {
		line := fmt.Sprintf("speedybox_faults_injected_total{kind=%q} %d", k.String(), inj.Injected(k))
		if !strings.Contains(out, line) {
			t.Errorf("exposition missing %q", line)
		}
		total += inj.Injected(k)
	}
	if total == 0 {
		t.Error("mixed load injected nothing")
	}
	if inj.InjectedTotal() != total {
		t.Errorf("InjectedTotal() = %d, per-kind sum = %d", inj.InjectedTotal(), total)
	}
}

// grepLines filters exposition output for assertion failure messages.
func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestSYNReuseClearsDegradedState is the 5-tuple-reuse audit under
// injected install failures: a connection restart must wipe the old
// connection's ladder state so the new connection is not born degraded.
func TestSYNReuseClearsDegradedState(t *testing.T) {
	eng, inj, _ := faultEngine(t, map[fault.Kind]float64{fault.KindInstallFail: 1})
	const port = 8901
	establish(t, eng, port)
	if _, err := eng.ProcessPacket(tcpPkt(t, port, packet.TCPFlagACK, 2, "data")); err != nil {
		t.Fatal(err)
	}
	if eng.DegradedFlows() != 1 {
		t.Fatalf("DegradedFlows = %d before restart, want 1", eng.DegradedFlows())
	}

	// The connection restarts; the fault has cleared meanwhile.
	inj.SetRate(fault.KindInstallFail, 0)
	r, err := eng.ProcessPacket(tcpPkt(t, port, packet.TCPFlagSYN, 0, ""))
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != classifier.KindHandshake {
		t.Fatalf("restart SYN classified %v, want handshake", r.Kind)
	}
	if eng.DegradedFlows() != 0 {
		t.Fatalf("DegradedFlows = %d after restart: backoff leaked across reincarnations", eng.DegradedFlows())
	}
	// The reborn connection accelerates immediately — no inherited
	// backoff delaying its first recording.
	if _, err := eng.ProcessPacket(tcpPkt(t, port, packet.TCPFlagACK, 1, "")); err != nil {
		t.Fatal(err)
	}
	res, err := eng.ProcessPacket(tcpPkt(t, port, packet.TCPFlagACK, 2, "data"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.Global().LookupLive(res.FID); !ok {
		t.Error("reborn connection failed to install a rule on its first try")
	}
}

// TestIdleExpiryClearsDegradedState is the idle-expiry audit: expiring
// an idle degraded flow must drop its ladder entry, not leak it.
func TestIdleExpiryClearsDegradedState(t *testing.T) {
	eng, inj, _ := faultEngine(t, map[fault.Kind]float64{fault.KindInstallFail: 1})
	const port = 9001
	establish(t, eng, port)
	if _, err := eng.ProcessPacket(tcpPkt(t, port, packet.TCPFlagACK, 2, "data")); err != nil {
		t.Fatal(err)
	}
	if eng.DegradedFlows() != 1 {
		t.Fatalf("DegradedFlows = %d, want 1", eng.DegradedFlows())
	}
	// Sweep, traffic, sweep: the first sweep ends the degraded flow's
	// epoch; another flow keeps the clock moving while it idles, the fault
	// cleared first so the mover itself never degrades.
	if n := eng.ExpireIdle(5); n != 0 {
		t.Fatalf("the first sweep tore down %d flows", n)
	}
	inj.SetRate(fault.KindInstallFail, 0)
	establish(t, eng, port+1)
	for i := 0; i < 10; i++ {
		if _, err := eng.ProcessPacket(tcpPkt(t, port+1, packet.TCPFlagACK, 2+i, "data")); err != nil {
			t.Fatal(err)
		}
	}
	if n := eng.ExpireIdle(5); n == 0 {
		t.Fatal("idle expiry tore down nothing")
	}
	if eng.DegradedFlows() != 0 {
		t.Errorf("DegradedFlows = %d after idle expiry: ladder entry leaked", eng.DegradedFlows())
	}
}

// TestFinTeardownClearsDegradedState: the FIN path must also drop
// ladder state.
func TestFinTeardownClearsDegradedState(t *testing.T) {
	eng, _, _ := faultEngine(t, map[fault.Kind]float64{fault.KindInstallFail: 1})
	const port = 9101
	establish(t, eng, port)
	if _, err := eng.ProcessPacket(tcpPkt(t, port, packet.TCPFlagACK, 2, "data")); err != nil {
		t.Fatal(err)
	}
	if eng.DegradedFlows() != 1 {
		t.Fatalf("DegradedFlows = %d, want 1", eng.DegradedFlows())
	}
	if _, err := eng.ProcessPacket(tcpPkt(t, port, packet.TCPFlagFIN|packet.TCPFlagACK, 3, "")); err != nil {
		t.Fatal(err)
	}
	if eng.DegradedFlows() != 0 {
		t.Errorf("DegradedFlows = %d after FIN teardown, want 0", eng.DegradedFlows())
	}
}
