package onvm

import (
	"errors"
	"sync/atomic"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/trace"
)

// flakyNF fails on demand.
type flakyNF struct {
	name string
	fail atomic.Bool
}

func (f *flakyNF) Name() string { return f.name }

func (f *flakyNF) Process(ctx *core.Ctx, pkt *packet.Packet) (core.Verdict, error) {
	ctx.Charge(100)
	if f.fail.Load() {
		return 0, errors.New("nf crashed")
	}
	return core.VerdictForward, nil
}

func udpPkt(t *testing.T, sport uint16) *packet.Packet {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: sport, DstPort: 53, Proto: packet.ProtoUDP, Payload: []byte("q"),
	})
}

// TestNFErrorMidPipeline: an NF failure must surface as an error from
// Process without wedging the pipeline — subsequent packets (and
// other flows) keep working once the NF recovers.
func TestNFErrorMidPipeline(t *testing.T) {
	flaky := &flakyNF{name: "flaky"}
	mon := &flakyNF{name: "stable"}
	p, err := New(Config{Chain: []core.NF{mon, flaky}, Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Healthy first.
	if _, err := p.Process(udpPkt(t, 1000)); err != nil {
		t.Fatal(err)
	}

	// Fail a different flow's initial packet (slow path traverses
	// the flaky NF; established flows keep fast-pathing).
	flaky.fail.Store(true)
	if _, err := p.Process(udpPkt(t, 2000)); err == nil {
		t.Fatal("NF failure swallowed")
	}
	// The original flow still works (fast path bypasses the chain).
	if _, err := p.Process(udpPkt(t, 1000)); err != nil {
		t.Fatalf("pipeline wedged after NF failure: %v", err)
	}
	// Recovery: the failed flow can retry.
	flaky.fail.Store(false)
	if _, err := p.Process(udpPkt(t, 2000)); err != nil {
		t.Fatalf("flow cannot recover after NF failure: %v", err)
	}
}

// TestProcessAfterCloseFails: injecting into a closed pipeline errors
// cleanly instead of blocking forever.
func TestProcessAfterCloseFails(t *testing.T) {
	flaky := &flakyNF{name: "nf"}
	p, err := New(Config{Chain: []core.NF{flaky}, Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Process(udpPkt(t, 1)); err == nil {
		t.Error("Process succeeded on a closed pipeline")
	}
}

// TestCloseWithInflightTraffic: closing immediately after a burst must
// terminate without deadlock (the runner drains each packet, but the
// close path must also be safe right after).
func TestCloseWithInflightTraffic(t *testing.T) {
	flaky := &flakyNF{name: "nf"}
	p, err := New(Config{Chain: []core.NF{flaky}, Options: core.BaselineOptions()})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(trace.Config{Seed: 5, Flows: 10, UDPFraction: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := platform.Run(p, tr.Packets()); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFailingInitialDoesNotInstallRule: when the chain errors on an
// initial packet, no (partial) rule may be installed.
func TestFailingInitialDoesNotInstallRule(t *testing.T) {
	flaky := &flakyNF{name: "nf"}
	flaky.fail.Store(true)
	p, err := New(Config{Chain: []core.NF{flaky}, Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Process(udpPkt(t, 1)); err == nil {
		t.Fatal("failure swallowed")
	}
	if n := p.Engine().Global().Len(); n != 0 {
		t.Errorf("failed initial packet installed %d rules", n)
	}
}

// TestInstallFaultHonoursBackoff: the RX thread passes initial packets
// through the engine's one recording gate, so under a persistent
// install fault a degraded flow retries consolidation on the ladder's
// backoff schedule (8, 16, 32, ... packets) and not on every initial
// packet, and the held-back packets are counted as degraded.
func TestInstallFaultHonoursBackoff(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 42, Rates: map[fault.Kind]float64{fault.KindInstallFail: 1}})
	opts := core.DefaultOptions()
	opts.Faults = inj
	p, err := New(Config{Chain: []core.NF{&flakyNF{name: "nf"}}, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const n = 600
	for i := 0; i < n; i++ {
		m, err := p.Process(udpPkt(t, 4000))
		if err != nil {
			t.Fatal(err)
		}
		if m.Result.Path != core.PathSlow || m.Result.Verdict != core.VerdictForward {
			t.Fatalf("packet %d: path %v verdict %v, want the slow path forwarding", i, m.Result.Path, m.Result.Verdict)
		}
	}
	// 8+16+32+64+128+256 > 500: 600 packets admit at most ~7 attempts.
	attempts := inj.Decisions(fault.KindInstallFail)
	if attempts < 2 || attempts > 10 {
		t.Errorf("%d install attempts over %d packets, want the backoff schedule's handful", attempts, n)
	}
	st := p.Engine().Stats()
	if st.Consolidations != attempts {
		t.Errorf("%d consolidations for %d install attempts", st.Consolidations, attempts)
	}
	if st.DegradedPackets != n-attempts {
		t.Errorf("DegradedPackets = %d, want the %d packets held back between retries", st.DegradedPackets, n-attempts)
	}
	if rules := p.Engine().Global().Len(); rules != 0 {
		t.Errorf("%d rules installed with every install failing", rules)
	}
}
