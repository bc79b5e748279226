package harness

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// TestOracleEquivalenceUnderFaults is the CI-sized differential run:
// dozens of randomized fault schedules across both real-world chains,
// zero divergences allowed, and the degradation machinery must
// demonstrably engage (a run that injects nothing proves nothing).
func TestOracleEquivalenceUnderFaults(t *testing.T) {
	schedules := 60
	if testing.Short() {
		schedules = 10
	}
	res, err := RunOracle(OracleConfig{Seed: 1, Schedules: schedules})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("oracle failed:\n%s", res.Format())
	}
	if res.Injected == 0 {
		t.Error("no faults injected; the run was vacuous")
	}
	if res.Fallbacks == 0 {
		t.Error("no slow-path fallbacks; degradation never engaged")
	}
	if res.Recoveries == 0 {
		t.Error("no recoveries; the retry ladder never reinstalled a rule")
	}
	if !strings.Contains(res.Format(), "PASS") {
		t.Errorf("Format() missing PASS:\n%s", res.Format())
	}
}

// TestOracleBatchEquivalence runs the oracle with the fast engine in
// 32-packet vector mode: it must stay bit-identical to the per-packet
// baseline reference under the same fault schedules, and the seeded
// runs must also agree packet-for-packet with an oracle run whose fast
// engine takes vectors of one (the vector size is not observable).
func TestOracleBatchEquivalence(t *testing.T) {
	schedules := 40
	if testing.Short() {
		schedules = 8
	}
	batched, err := RunOracle(OracleConfig{Seed: 1, Schedules: schedules, Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	if !batched.Passed() {
		t.Fatalf("batched oracle failed:\n%s", batched.Format())
	}
	if batched.Injected == 0 || batched.Fallbacks == 0 {
		t.Error("vacuous batched run: no faults or no fallbacks")
	}
	scalar, err := RunOracle(OracleConfig{Seed: 1, Schedules: schedules})
	if err != nil {
		t.Fatal(err)
	}
	if batched.Packets != scalar.Packets || batched.Injected != scalar.Injected ||
		batched.Fallbacks != scalar.Fallbacks || batched.Degraded != scalar.Degraded ||
		batched.Recoveries != scalar.Recoveries {
		t.Errorf("batched and scalar oracle runs disagree:\nbatched: %+v\nscalar:  %+v",
			batched, scalar)
	}
}

// TestOracleBatchCatchesTamper proves batch mode keeps the oracle's
// teeth: the flipped-verdict tamper must still be reported.
func TestOracleBatchCatchesTamper(t *testing.T) {
	res, err := RunOracle(OracleConfig{
		Seed: 1, Schedules: 2, Chain: 1, Batch: 32,
		Rates:      fault.UniformRates(0),
		TamperRule: func(r *mat.GlobalRule) { r.Drop = true; r.Compile() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("batched oracle passed a deliberately broken consolidation")
	}
}

// TestOracleCatchesBrokenConsolidation proves the oracle has teeth: a
// deliberately corrupted consolidated rule (verdict flipped to drop)
// must be reported as a divergence.
func TestOracleCatchesBrokenConsolidation(t *testing.T) {
	res, err := RunOracle(OracleConfig{
		Seed: 1, Schedules: 2, Chain: 1,
		Rates:      fault.UniformRates(0), // isolate the tamper
		TamperRule: func(r *mat.GlobalRule) { r.Drop = true; r.Compile() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("oracle passed a deliberately broken consolidation")
	}
	d := res.Divergences[0]
	if d.Seed == 0 || d.Packet < 0 {
		t.Errorf("divergence not pinpointed: %+v", d)
	}
	if !strings.Contains(res.Format(), "FAIL") {
		t.Errorf("Format() missing FAIL:\n%s", res.Format())
	}
}

// TestOracleCatchesCorruptedRewrite is a second tamper shape: silently
// corrupting the merged header rewrites must surface as a byte-level
// divergence, not as a drop mismatch.
func TestOracleCatchesCorruptedRewrite(t *testing.T) {
	res, err := RunOracle(OracleConfig{
		Seed: 3, Schedules: 2, Chain: 1,
		Rates: fault.UniformRates(0),
		TamperRule: func(r *mat.GlobalRule) {
			// The rule's rewrites, each value inverted, compiled into a
			// program of their own.
			acts, _ := r.HeaderActions()
			for _, a := range acts {
				if a.Kind == mat.ActionModify {
					v := slices.Clone(a.Value)
					for j := range v {
						v[j] ^= 0xff
					}
					r.Modifies = append(r.Modifies, mat.FieldValue{Field: a.Field, Value: v})
				}
			}
			r.Compile()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("oracle passed a corrupted header rewrite")
	}
}

// TestOracleReconfigEquivalence adds live chain reconfigurations to the
// fault schedules: gateways, filters and monitors are inserted, removed
// and reordered mid-trace on both engines at the same packet indices,
// in vectors of one and of 32, and every packet must still
// agree. Fault-aborted plans are skipped on both engines — the rollback
// contract — and at least some plans must actually land for the run to
// count.
func TestOracleReconfigEquivalence(t *testing.T) {
	schedules := 30
	if testing.Short() {
		schedules = 6
	}
	for _, batch := range []int{0, 32} {
		res, err := RunOracle(OracleConfig{Seed: 1, Schedules: schedules, Reconfigs: 3, Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Passed() {
			t.Fatalf("reconfig oracle (batch=%d) failed:\n%s", batch, res.Format())
		}
		if res.Reconfigs == 0 {
			t.Errorf("batch=%d: no reconfigurations applied; the run was vacuous", batch)
		}
		if res.Injected == 0 || res.Fallbacks == 0 {
			t.Errorf("batch=%d: vacuous run: no faults or no fallbacks", batch)
		}
	}
}

// TestOracleCatchesBrokenReconfig proves the reconfiguration oracle has
// teeth: resurrecting the pre-reconfiguration rules under the new epoch
// (a deliberately broken invalidation — exactly the bug the epoch
// machinery exists to prevent) must surface as a divergence, since the
// fast path then serves the retired chain's semantics while the
// reference runs the new chain.
func TestOracleCatchesBrokenReconfig(t *testing.T) {
	res, err := RunOracle(OracleConfig{
		Seed: 1, Schedules: 4, Chain: 1, Reconfigs: 2,
		Rates: fault.UniformRates(0), // isolate the tamper
		TamperReconfig: func(eng *core.Engine, pre []*mat.GlobalRule) {
			cur := eng.Global().Epoch()
			for _, r := range pre {
				broken := *r
				broken.Epoch = cur
				eng.Global().Install(&broken)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("oracle passed a deliberately broken epoch invalidation")
	}
}

// TestOracleCrashRestoreEquivalence kills and restores the fast engine
// mid-trace — checkpoint at the kill point, fresh chain, Restore from
// the encoded checkpoint plus the durable WAL prefix — under the usual
// fault chaos, in vectors of one and of 32, and demands zero divergence
// from the uninterrupted reference. Closure-bearing rules cannot
// survive a restore, so their flows must transparently re-record.
func TestOracleCrashRestoreEquivalence(t *testing.T) {
	schedules := 30
	if testing.Short() {
		schedules = 6
	}
	for _, batch := range []int{0, 32} {
		res, err := RunOracle(OracleConfig{Seed: 1, Schedules: schedules, Crashes: 2, Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Passed() {
			t.Fatalf("crash oracle (batch=%d) failed:\n%s", batch, res.Format())
		}
		if res.CrashRestores == 0 {
			t.Errorf("batch=%d: no crash/restore cycles; the run was vacuous", batch)
		}
		if res.Injected == 0 || res.Fallbacks == 0 {
			t.Errorf("batch=%d: vacuous run: no faults or no fallbacks", batch)
		}
	}
}

// TestOracleCrashWithReconfigs composes the two hardest schedules:
// live chain changes AND engine crashes in the same trace. A restore
// must rebuild the reconfigured chain composition (replaying surviving
// plans) and come back under the correct epoch, or rules consolidated
// before a reconfiguration would serve after it.
func TestOracleCrashWithReconfigs(t *testing.T) {
	schedules := 20
	if testing.Short() {
		schedules = 4
	}
	res, err := RunOracle(OracleConfig{Seed: 5, Schedules: schedules, Crashes: 2, Reconfigs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("crash+reconfig oracle failed:\n%s", res.Format())
	}
	if res.CrashRestores == 0 || res.Reconfigs == 0 {
		t.Errorf("vacuous run: crashes=%d reconfigs=%d", res.CrashRestores, res.Reconfigs)
	}
}

// TestOracleDeterministic re-runs the same seed and expects identical
// aggregate behaviour — the whole point of seeded schedules.
func TestOracleDeterministic(t *testing.T) {
	run := func() *OracleResult {
		res, err := RunOracle(OracleConfig{Seed: 7, Schedules: 6})
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

// TestOracleCatalogChain runs the rest of the NF catalog — the VPN pair
// around a synthetic NF, the shared-state RateLimiter, the DoS defender
// and a monitor behind them — under the one driver, as a vector of one,
// batched, composed with reconfigurations and crashes, and on the
// scaling cluster. Its teeth are the limiter's: with the parent
// commit's event condition the packet that takes a source past its
// quota is forwarded on the fast path, and with the limiter's state
// outside the checkpoint a crash forgets who was blocked.
func TestOracleCatalogChain(t *testing.T) {
	schedules := 200
	if testing.Short() {
		schedules = 40
	}
	for _, tc := range []struct {
		name string
		cfg  OracleConfig
	}{
		{"vector of one", OracleConfig{}},
		{"batch", OracleConfig{Batch: 32}},
		{"batch+reconfigs+crashes", OracleConfig{Batch: 32, Reconfigs: 2, Crashes: 2}},
		{"cluster composed", OracleConfig{Batch: 32, Reconfigs: 2, Crashes: 2, Cluster: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Seed, cfg.Schedules, cfg.Chain = 1, schedules, 4
			res, err := RunOracle(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Passed() {
				t.Fatalf("catalog-chain oracle failed:\n%s", res.Format())
			}
			if res.Fallbacks == 0 {
				t.Error("no slow-path fallbacks; degradation never engaged")
			}
			if cfg.Crashes > 0 && (res.CrashRestores == 0 || res.Reconfigs == 0) {
				t.Errorf("vacuous run: crashes=%d reconfigs=%d", res.CrashRestores, res.Reconfigs)
			}
			if cfg.Cluster && res.Migrations == 0 {
				t.Error("no flows migrated; the run was vacuous")
			}
		})
	}
}

// TestOracleRefusesWhatItCannotHonour: a mode combination or a teeth
// hook the selected system does not implement is an error, never a
// silently narrower run.
func TestOracleRefusesWhatItCannotHonour(t *testing.T) {
	tamperRule := func(*mat.GlobalRule) {}
	for name, cfg := range map[string]OracleConfig{
		"topo+cluster":             {Topo: true, Cluster: true},
		"topo with a chain":        {Topo: true, Chain: 2},
		"unknown chain":            {Chain: 9},
		"rule tamper on cluster":   {Cluster: true, TamperRule: tamperRule},
		"rule tamper on topo":      {Topo: true, TamperRule: tamperRule},
		"reconfig tamper on topo":  {Topo: true, TamperReconfig: func(*core.Engine, []*mat.GlobalRule) {}},
		"route tamper off topo":    {TamperRoute: func(_ *packet.Packet, c int) int { return c }},
		"migration tamper, single": {TamperMigration: func(*wal.MigrationRecord) {}},
	} {
		cfg.Schedules = 1
		if res, err := RunOracle(cfg); err == nil {
			t.Errorf("%s: accepted:\n%s", name, res.Format())
		}
	}
}

// TestOracleFiltersChainUnderEveryFault runs the three forward-only
// filters, whose every rule is plain and served from its flow entry's
// summary, under each fault kind alone, at vectors of 1 and 32, against
// the baseline engine. A storm registers its events after a plain
// install, so the next packet must see the guard; an eviction, a stale
// mark and a crash restore must each leave no summary behind to serve;
// every schedule ends with CheckRecords. The kinds a chain with no event,
// no Maglev or a single engine cannot inject run with what injects them:
// a storm's firings, reconfigurations, crashes, the cluster.
func TestOracleFiltersChainUnderEveryFault(t *testing.T) {
	schedules := 40
	if testing.Short() {
		schedules = 10
	}
	for _, k := range fault.Kinds() {
		for _, batch := range []int{1, 32} {
			t.Run(fmt.Sprintf("%v/batch%d", k, batch), func(t *testing.T) {
				cfg := OracleConfig{Seed: 1, Schedules: schedules, Chain: 5, Batch: batch, Rates: map[fault.Kind]float64{k: 0.3}}
				switch k {
				case fault.KindRecomputeDelay, fault.KindRecomputeDrop:
					cfg.Rates[fault.KindEventStorm] = 0.3
				case fault.KindReconfigAbort:
					cfg.Reconfigs = 2
				case fault.KindCrashRestore:
					cfg.Crashes = 2
				case fault.KindMigrationAbort:
					cfg.Cluster = true
				}
				res, err := RunOracle(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Passed() {
					t.Fatalf("filters-chain oracle under %v failed:\n%s", k, res.Format())
				}
				switch k {
				case fault.KindBackendFlap: // no Maglev to flap
				case fault.KindCrashRestore:
					if res.CrashRestores == 0 {
						t.Error("no crash restored: the run was vacuous")
					}
				default:
					if res.Injected == 0 {
						t.Errorf("%v never injected: the run was vacuous", k)
					}
				}
			})
		}
	}
}
