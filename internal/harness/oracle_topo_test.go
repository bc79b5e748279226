package harness

import (
	"strings"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// TestTopoOracleEquivalence runs the multi-chain topology oracle: three
// chains with different semantics sharing a monitor, three tenants with
// tight quotas, under the usual randomized fault chaos. Every packet
// must agree with its per-flow pure slow-path reference, and both the
// fault machinery and the degradation machinery must demonstrably
// engage.
func TestTopoOracleEquivalence(t *testing.T) {
	schedules := 40
	if testing.Short() {
		schedules = 8
	}
	res, err := RunOracle(OracleConfig{Seed: 1, Schedules: schedules, Topo: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("topo oracle failed:\n%s", res.Format())
	}
	if res.Injected == 0 {
		t.Error("no faults injected; the run was vacuous")
	}
	if res.Fallbacks == 0 {
		t.Error("no slow-path fallbacks; degradation never engaged")
	}
}

// TestTopoOracleComposed composes the topology oracle with everything
// at once: live reconfigurations on a rotating target chain, whole-
// topology crash/restore cycles, and batched fast-path execution with
// vectors clipped at chain boundaries and event indices.
func TestTopoOracleComposed(t *testing.T) {
	schedules := 20
	if testing.Short() {
		schedules = 4
	}
	for _, batch := range []int{0, 16} {
		res, err := RunOracle(OracleConfig{
			Seed: 1, Schedules: schedules, Topo: true,
			Reconfigs: 3, Crashes: 2, Batch: batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Passed() {
			t.Fatalf("composed topo oracle (batch=%d) failed:\n%s", batch, res.Format())
		}
		if res.Reconfigs == 0 || res.CrashRestores == 0 {
			t.Errorf("batch=%d: vacuous run: reconfigs=%d crashes=%d",
				batch, res.Reconfigs, res.CrashRestores)
		}
	}
}

// TestTopoOracleCatchesMisclassification proves the topology oracle has
// teeth: routing the VoIP chain's flows down the web chain (which lacks
// the gateway's MAC rewrite) must surface as a divergence — and as the
// first misrouted packet's own route divergence, not as whatever byte
// difference happens to follow. A classifier bug that silently sends
// flows to the wrong chain is exactly the failure mode this oracle
// exists to catch.
func TestTopoOracleCatchesMisclassification(t *testing.T) {
	res, err := RunOracle(OracleConfig{
		Seed: 1, Schedules: 4, Topo: true,
		Rates: fault.UniformRates(0), // isolate the tamper
		TamperRoute: func(pkt *packet.Packet, chain int) int {
			if chain == 1 { // voip -> web
				return 0
			}
			return chain
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("topo oracle passed a deliberately mis-classified flow")
	}
	if d := res.Divergences[0]; !strings.HasPrefix(d.Detail, "route: ref chain 1, fast chain 0") {
		t.Errorf("first divergence is not the misroute itself: %+v", d)
	}
}

// TestTopoOracleDeterministic re-runs the same seed and expects
// identical aggregate behaviour across the whole topology.
func TestTopoOracleDeterministic(t *testing.T) {
	run := func() *OracleResult {
		res, err := RunOracle(OracleConfig{Seed: 7, Schedules: 6, Topo: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Packets != b.Packets || a.Injected != b.Injected ||
		a.Fallbacks != b.Fallbacks || a.Recoveries != b.Recoveries {
		t.Errorf("equal seeds diverged: %+v vs %+v", a, b)
	}
}
