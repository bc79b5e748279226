package harness

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"github.com/fastpathnfv/speedybox/internal/bess"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/nf/gateway"
	"github.com/fastpathnfv/speedybox/internal/nf/ipfilter"
	"github.com/fastpathnfv/speedybox/internal/nf/maglev"
	"github.com/fastpathnfv/speedybox/internal/nf/monitor"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/trace"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// The differential equivalence oracle generalizes the paper's three
// hand-written §VII-C case studies into a property checked under
// thousands of randomized fault schedules: every trace runs through a
// pure slow-path reference (the unmodified chain, correct by definition)
// and through full SpeedyBox with a seeded fault injector attacking its
// control plane, and the comparator (equivalence.go) holds the two to
// chain-output equivalence. There is one schedule driver, runSchedule,
// over a pluggable system under test (one engine, a multi-chain
// topology, a scaling cluster) and a table of what runs on it
// (oracleRows). DESIGN.md §10 describes the event list, the clip rule,
// the comparator and the adapters.

// OracleConfig configures a differential-oracle run.
type OracleConfig struct {
	// Seed derives every schedule's trace and fault seeds; equal seeds
	// reproduce every divergence exactly.
	Seed int64
	// Schedules is how many randomized fault schedules to run
	// (default 200; CI runs 200, the acceptance bar is 1000).
	Schedules int
	// Flows is the per-schedule trace size (default 24).
	Flows int
	// Chain picks the service chain: 1 or 2 (§VII-B3), 3 (stateless), 4
	// (catalog) or 5 (three filters); 0 alternates 1 and 2 per schedule (1,
	// 2 and 3 under Cluster). Topo runs its fixed topology and takes no Chain.
	Chain int
	// Batch is the vector size the system under test is driven in
	// (<= 1: a vector of one, through the same code). The reference always
	// takes vectors of one, so a batched run proves the vector size is not
	// observable under the same fault schedules.
	Batch int
	// Rates overrides the per-kind injection rates; nil selects a
	// uniform moderate-chaos default across every fault kind.
	Rates map[fault.Kind]float64
	// TamperRule, when set, corrupts a copy of the flow's consolidated
	// rule after each fast-engine vector, which is installed in its place:
	// the tamper must reach the rule's program, its one executable form
	// (as Compile does from a hand-built Modifies and verdict). Test-only
	// teeth: a deliberately broken consolidation must be caught.
	// Single-engine system only.
	TamperRule func(*mat.GlobalRule)
	// Reconfigs is how many live chain reconfigurations to apply per
	// schedule, at mid-trace offsets derived from the schedule seed. Each
	// plan (insert a gateway or a pass-all filter, remove an insertion,
	// reorder) is applied to both systems at the same packet index; a
	// fault-aborted plan is skipped on both, which is exactly the rollback
	// contract under test.
	Reconfigs int
	// TamperReconfig, when set, runs after each successful fast-engine
	// reconfiguration with a copy of the rules installed before it.
	// Test-only teeth: re-installing them under the new epoch models a
	// broken invalidation. Single-engine system only.
	TamperReconfig func(eng *core.Engine, pre []*mat.GlobalRule)
	// Topo puts a fixed three-chain, three-tenant topology under test
	// (shared monitor, tight tenant quotas) against itself on baseline
	// options. Reconfigurations target one chain per schedule, rotating; a
	// crash kills the whole topology. Does not compose with Cluster.
	Topo bool
	// TamperRoute, when set with Topo, overrides the fast topology's
	// classifier (given each packet and the honest chain index). Test-only
	// teeth: a flow routed down the wrong chain must be caught.
	TamperRoute func(pkt *packet.Packet, chain int) int
	// Cluster puts a fleet under test that scales 1→2→4→3 at seeded
	// packet indices, live-migrating every reassigned flow, against a
	// static single engine. Reconfigurations apply cluster-wide; a crash
	// kills one instance, round-robin, and restores it from checkpoint+WAL.
	// Injected fault.KindMigrationAbort decisions roll whole rebalances
	// back, which must also be verdict-invisible.
	Cluster bool
	// TamperMigration, when set with Cluster, corrupts each decoded
	// migration record before the new owner adopts it. Test-only teeth: a
	// migration that delivers the wrong rule must be caught.
	TamperMigration func(*wal.MigrationRecord)
	// Crashes > 0 kills and restores the system under test at up to that
	// many (at most 4) seeded packet indices per schedule: the engine and
	// its NFs are discarded at a crash-consistent checkpoint, a fresh
	// chain is rebuilt (replaying surviving reconfigurations), and
	// Engine.Restore rehydrates it from the encoded checkpoint plus the
	// durable WAL prefix, exactly what a restart would find on disk. The
	// reference runs uninterrupted, so any state lost or invented diverges.
	Crashes int
}

// check refuses a configuration the selected system cannot honour: a
// hook or mode that would be silently ignored proves nothing.
func (cfg OracleConfig) check() error {
	switch {
	case cfg.Topo && cfg.Cluster:
		return errors.New("harness: oracle: Topo and Cluster do not compose: the cluster runs a single chain")
	case cfg.Topo && cfg.Chain != 0:
		return errors.New("harness: oracle: Topo runs its fixed topology and takes no Chain")
	case cfg.Chain < 0 || cfg.Chain >= len(oracleRows):
		return fmt.Errorf("harness: oracle: no chain %d (have 1-%d)", cfg.Chain, len(oracleRows)-1)
	case (cfg.TamperRule != nil || cfg.TamperReconfig != nil) && (cfg.Topo || cfg.Cluster):
		return errors.New("harness: oracle: TamperRule and TamperReconfig apply to the single-engine system only")
	case cfg.TamperRoute != nil && !cfg.Topo, cfg.TamperMigration != nil && !cfg.Cluster:
		return errors.New("harness: oracle: TamperRoute needs Topo, TamperMigration needs Cluster")
	}
	return nil
}

// OracleDivergence pinpoints one fast/slow-path disagreement.
type OracleDivergence struct {
	// Schedule and Seed identify the failing schedule (re-run with
	// this seed to reproduce).
	Schedule int
	Seed     int64
	// Packet is the trace index of the diverging packet, -1 for
	// end-of-trace state divergences.
	Packet int
	// Detail describes what disagreed.
	Detail string
}

// OracleResult aggregates a differential-oracle run.
type OracleResult struct {
	Schedules int
	Packets   int
	// Injected totals the faults fired across all schedules.
	Injected uint64
	// Fallbacks, Degraded and Recoveries total the fast engines'
	// degradation counters, proving the graceful-degradation machinery
	// actually engaged while equivalence held.
	Fallbacks  uint64
	Degraded   uint64
	Recoveries uint64
	// Reconfigs and ReconfigAborts total the live chain changes applied
	// and the fault-aborted (cleanly rolled back) ones.
	Reconfigs      uint64
	ReconfigAborts uint64
	// CrashRestores totals the fast-engine kill/restore cycles survived.
	CrashRestores uint64
	// Migrations, MigrationAborts and Rebalances total the cluster
	// oracle's live flow moves, rolled-back rebalances and completed
	// rebalances (zero outside Cluster mode).
	Migrations      uint64
	MigrationAborts uint64
	Rebalances      uint64
	// Divergences lists every disagreement (empty on a pass; capped —
	// a broken engine would otherwise produce one per packet).
	Divergences []OracleDivergence
}

// maxDivergences caps how many divergences a run collects before
// aborting early.
const maxDivergences = 16

// Passed reports whether every packet of every schedule agreed.
func (r *OracleResult) Passed() bool {
	return r.Schedules > 0 && len(r.Divergences) == 0
}

// bank folds one engine's (or fleet's) degradation counters into the run
// totals.
func (r *OracleResult) bank(st core.Stats) {
	r.Fallbacks += st.SlowPathFallbacks
	r.Degraded += st.DegradedPackets
	r.Recoveries += st.FaultRecoveries
}

// Format renders the oracle outcome.
func (r *OracleResult) Format() string {
	t := &tableWriter{}
	t.title("Differential fast/slow-path equivalence oracle (randomized fault schedules)")
	t.row("schedules", "packets", "faults injected", "fallbacks", "degraded pkts", "recoveries", "reconfigs", "aborted", "crashes", "migrations", "mig aborts", "divergences", "result")
	t.row(append(counts(r.Schedules, r.Packets, r.Injected, r.Fallbacks, r.Degraded, r.Recoveries,
		r.Reconfigs, r.ReconfigAborts, r.CrashRestores, r.Migrations, r.MigrationAborts,
		len(r.Divergences)), passFail(r.Passed()))...)
	out := t.String()
	for _, d := range r.Divergences {
		out += fmt.Sprintf("  divergence: schedule %d (seed %d) packet %d: %s\n",
			d.Schedule, d.Seed, d.Packet, d.Detail)
	}
	return out
}

// RunOracle executes the differential equivalence oracle.
func RunOracle(cfg OracleConfig) (*OracleResult, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	cfg.Seed = cmp.Or(cfg.Seed, 1)
	cfg.Schedules = cmp.Or(cfg.Schedules, 200)
	cfg.Flows = cmp.Or(cfg.Flows, 24)
	rates := cfg.Rates
	if rates == nil {
		rates = fault.UniformRates(0.08)
	}
	res := &OracleResult{}
	for s := 0; s < cfg.Schedules; s++ {
		seed := cfg.Seed + int64(s)*7919
		row := cfg.Chain
		switch {
		case cfg.Topo:
			row = 0
		case row == 0 && cfg.Cluster:
			// Cycle in the stateless chain so header-only rules migrate
			// alongside the monitor-bearing chains' referencing ones.
			row = 1 + s%3
		case row == 0:
			row = 1 + s%2
		}
		if err := runSchedule(cfg, oracleRows[row], s, seed, rates, res); err != nil {
			return nil, fmt.Errorf("harness: oracle schedule %d (seed %d): %w", s, seed, err)
		}
		res.Schedules++
		if len(res.Divergences) >= maxDivergences {
			break
		}
	}
	return res, nil
}

// oracleRow is one thing the oracle can put under test: how to generate
// a schedule's trace and build a system over it. The driver builds every
// row twice: on baseline options with a zero config (the reference), and
// on SpeedyBox options with the run's config and fault injector; sched
// is the schedule index, for rows that rotate something across them.
type oracleRow struct {
	trace func(seed int64, flows int) ([]*packet.Packet, error)
	build func(cfg OracleConfig, sched int, opts core.Options) (system, error)
}

// oracleRows is the table RunOracle iterates: row 0 is the fixed
// topology (OracleConfig.Topo), rows 1.. are OracleConfig.Chain. A new
// chain is a new row.
var oracleRows = [...]oracleRow{
	0: {trace: topoTrace, build: newTopoSystem},
	1: chainRow(chain1.Build),
	2: chainRow(chain2.Build),
	3: chainRow(statelessChain.Build),
	4: chainRow(catalogChain.Build),
	5: chainRow(filtersChain.Build),
}

// chainRow is the row of a single service chain: one engine, or, under
// OracleConfig.Cluster, a scaling fleet of them.
func chainRow(nfs func() ([]core.NF, error)) oracleRow {
	return oracleRow{
		trace: func(seed int64, flows int) ([]*packet.Packet, error) { return oracleTrace(seed, flows, 0) },
		build: func(cfg OracleConfig, _ int, opts core.Options) (system, error) {
			if cfg.Cluster {
				return newClusterSystem(nfs, cfg, opts)
			}
			s := &engineSystem{nfs: nfs, cfg: cfg, opts: opts, pb: platform.NewBatch(cfg.Batch)}
			return s, s.boot(nil, nil, nil)
		},
	}
}

// oracleTrace generates one schedule's interleaved trace towards
// dstPort (0 is trace's default service port).
func oracleTrace(seed int64, flows int, dstPort uint16) ([]*packet.Packet, error) {
	tr, err := trace.Generate(trace.Config{
		Seed: seed, Flows: flows,
		AlertFraction: 0.15, LogFraction: 0.15,
		DstPort:    dstPort,
		Interleave: true,
	})
	if err != nil {
		return nil, err
	}
	return tr.Packets(), nil
}

// system is what the schedule driver needs of a packet processor, the
// reference and the system under test alike.
type system interface {
	// run feeds pkts through the system in vectors of at most batch
	// (platform.Drain) and hands fold each vector's measurements while
	// they are valid, with the vector's offset in pkts and the index of
	// the chain that ran it (0 outside topologies).
	run(pkts []*packet.Packet, batch int, fold func(off, chain int, ms []platform.Measurement)) error
	// events returns the environmental events the system schedules for
	// itself on a trace of n packets (the cluster's scale walk).
	events(seed int64, n int) []oracleEvent
	// reconfigure applies one live chain change; an error means the
	// system is unchanged.
	reconfigure(plan core.ChainPlan) error
	// crash kills the system at this packet boundary and restores it
	// from what a restart would find; applied lists the committed
	// reconfigurations a rebuilt chain must replay.
	crash(applied []reconfigEvent) error
	// chain returns the NF names reconfigurations are planned over and
	// the observable NFs, as of the last (re)build.
	chain() *oracleChain
	// engines returns the system's live engines.
	engines() []*core.Engine
	// finish folds the system's counters into res and releases it; the
	// driver calls it on the system under test only.
	finish(res *OracleResult)
}

// oracleEvent is one scheduled environmental transition: apply runs
// before packet at, on a vector boundary.
type oracleEvent struct {
	at    int
	apply func() error
}

// reconfigEvent is one scheduled live chain change. mk builds a fresh
// plan on every call — a new NF instance each time — so the reference
// and the system under test never share an inserted NF's state.
type reconfigEvent struct {
	at int
	mk func() (core.ChainPlan, error)
}

// midTraceOffsets draws n sorted packet indices inside the middle 80%
// of a trace of pkts packets.
func midTraceOffsets(rng *rand.Rand, n, pkts int) []int {
	lo, hi := pkts/10, pkts*9/10
	if hi <= lo {
		hi = lo + 1
	}
	offsets := make([]int, n)
	for k := range offsets {
		offsets[k] = lo + rng.Intn(hi-lo)
	}
	sort.Ints(offsets)
	return offsets
}

// buildReconfigEvents derives n chain changes from the schedule seed, at
// sorted offsets inside the middle 80% of the trace. Operations cycle
// through inserting a gateway (a visible MAC rewrite), inserting a
// pass-all filter, removing the oldest surviving insertion (or inserting
// a monitor when none remains), and reordering a random NF. Positions
// track the chain as if every plan lands; after a fault-aborted plan a
// later one may fail validation, on both systems alike: a shared no-op.
func buildReconfigEvents(seed int64, n, pkts int, chain []string) []reconfigEvent {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	names := slices.Clone(chain)
	var inserted []string
	events := make([]reconfigEvent, 0, n)
	insert := func(at int, name string, mkNF func() (core.NF, error)) {
		pos := rng.Intn(len(names) + 1)
		events = append(events, reconfigEvent{at: at, mk: func() (core.ChainPlan, error) {
			nf, err := mkNF()
			return core.ChainPlan{Op: core.OpInsert, Pos: pos, NF: nf}, err
		}})
		names = slices.Insert(names, pos, name)
		inserted = append(inserted, name)
	}
	without := func(name string) []string {
		return slices.DeleteFunc(slices.Clone(names), func(n string) bool { return n == name })
	}
	for k, at := range midTraceOffsets(rng, n, pkts) {
		switch {
		case k%4 == 0:
			name := fmt.Sprintf("gw%d", k)
			insert(at, name, func() (core.NF, error) {
				return gateway.New(gateway.Config{Name: name, NextHopMAC: [6]byte{2, 0, 0, 0, 0, byte(k + 1)}})
			})
		case k%4 == 1:
			name := fmt.Sprintf("flt%d", k)
			insert(at, name, func() (core.NF, error) {
				return ipfilter.New(ipfilter.Config{Name: name, Rules: ipfilter.PadRules(nil, 50)})
			})
		case k%4 == 2 && len(inserted) > 0:
			name := inserted[0]
			inserted = inserted[1:]
			events = append(events, reconfigEvent{at: at, mk: func() (core.ChainPlan, error) {
				return core.ChainPlan{Op: core.OpRemove, Name: name}, nil
			}})
			names = without(name)
		case k%4 == 2:
			name := fmt.Sprintf("mon%d", k)
			insert(at, name, func() (core.NF, error) { return monitor.New(name) })
		default:
			name := names[rng.Intn(len(names))]
			pos := rng.Intn(len(names))
			events = append(events, reconfigEvent{at: at, mk: func() (core.ChainPlan, error) {
				return core.ChainPlan{Op: core.OpReorder, Name: name, Pos: pos}, nil
			}})
			names = slices.Insert(without(name), pos, name)
		}
	}
	return events
}

// replayReconfigs rebuilds, on a fresh engine, the chain composition a
// checkpoint was taken under: every reconfiguration that survived, with
// abort injection off — these plans already committed before the crash.
func replayReconfigs(eng *core.Engine, applied []reconfigEvent) error {
	inj := eng.Faults()
	abortRate := inj.Rate(fault.KindReconfigAbort)
	inj.SetRate(fault.KindReconfigAbort, 0)
	defer inj.SetRate(fault.KindReconfigAbort, abortRate)
	for _, ev := range applied {
		plan, err := ev.mk()
		if err != nil {
			return err
		}
		if err := eng.Reconfigure(plan); err != nil {
			return fmt.Errorf("crash rebuild reconfigure (%s): %v", plan, err)
		}
	}
	return nil
}

// flap applies one planned backend transition to a Maglev pool.
func flap(lb *maglev.Maglev, f fault.Flap) error {
	if f.Restore {
		return lb.RestoreBackend(f.Backend)
	}
	return lb.FailBackend(f.Backend)
}

// runSchedule is the one schedule driver: it replays one trace through
// the row's reference and its system under test, applying every event
// to both at the same packet index, and is the only place a divergence
// is recorded.
func runSchedule(cfg OracleConfig, row oracleRow, sched int, seed int64, rates map[fault.Kind]float64, res *OracleResult) error {
	refPkts, err := row.trace(seed, cfg.Flows)
	if err != nil {
		return err
	}
	fastPkts := make([]*packet.Packet, len(refPkts))
	for i, p := range refPkts {
		fastPkts[i] = p.Clone()
	}
	ref, err := row.build(OracleConfig{}, sched, core.BaselineOptions())
	if err != nil {
		return err
	}
	inj := fault.New(fault.Config{Seed: seed, Rates: rates})
	opts := core.DefaultOptions()
	opts.Faults = inj
	fast, err := row.build(cfg, sched, opts)
	if err != nil {
		return err
	}
	defer func() {
		fast.finish(res)
		res.Injected += inj.InjectedTotal()
	}()

	diverge := func(pkt int, detail string) {
		if detail != "" {
			res.Divergences = append(res.Divergences, OracleDivergence{
				Schedule: sched, Seed: seed, Packet: pkt, Detail: detail,
			})
		}
	}

	// The event list. Same-index order is scale, crash, flap, reconfig
	// (the append order; the sort is stable).
	n := len(refPkts)
	events := fast.events(seed, n)
	var applied []reconfigEvent
	if cfg.Crashes > 0 {
		// CrashPlan scales its count with the KindCrashRestore rate
		// (count = int(rate*4)+1, capped at 4), so (c-1)/4 plus a nudge
		// yields exactly min(c, 4) planned crashes.
		inj.SetRate(fault.KindCrashRestore, float64(cfg.Crashes-1)/4+0.05)
		for _, c := range inj.CrashPlan(n) {
			events = append(events, oracleEvent{c.At, func() error {
				res.CrashRestores++
				return fast.crash(applied)
			}})
		}
	}
	if ref.chain().lb != nil {
		// Backend flaps are pool changes, not SpeedyBox faults: both
		// Maglevs see the same schedule, and the reference re-picks for
		// unhealthy pins exactly as the fast engine's events reroute.
		for _, f := range inj.FlapPlan(n, 3) {
			events = append(events, oracleEvent{f.At, func() error {
				return errors.Join(flap(ref.chain().lb, f), flap(fast.chain().lb, f))
			}})
		}
	}
	for _, ev := range buildReconfigEvents(seed, cfg.Reconfigs, n, ref.chain().names) {
		events = append(events, oracleEvent{ev.at, func() error {
			plan, err := ev.mk()
			if err != nil {
				return err
			}
			if ferr := fast.reconfigure(plan); ferr != nil {
				// An aborted (or, after an earlier abort, rejected) plan
				// left the system untouched, the rollback contract, so the
				// reference skips it too.
				if errors.Is(ferr, core.ErrReconfigAborted) {
					res.ReconfigAborts++
				}
				return nil
			}
			if plan, err = ev.mk(); err != nil {
				return err
			}
			if rerr := ref.reconfigure(plan); rerr != nil {
				return fmt.Errorf("reference reconfigure (%s): %v", plan, rerr)
			}
			res.Reconfigs++
			applied = append(applied, ev)
			return nil
		}})
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].at < events[b].at })

	batch := max(cfg.Batch, 1)
	want := make([]outcome, batch)
	agree := true
	for i, next := 0, 0; i < n && agree; {
		for ; next < len(events) && events[next].at <= i; next++ {
			if err := events[next].apply(); err != nil {
				return fmt.Errorf("packet %d: %w", i, err)
			}
		}
		// One vector, clipped at the next event: events must interleave
		// with the packet stream identically on both sides.
		end := min(i+batch, n)
		if next < len(events) && events[next].at < end {
			end = events[next].at
		}
		err := ref.run(refPkts[i:end], 1, func(off, chain int, ms []platform.Measurement) {
			for j, m := range ms {
				want[off+j] = outcome{chain, m.Result.Verdict}
			}
		})
		if err != nil {
			return fmt.Errorf("packet %d: reference: %w", i, err)
		}
		err = fast.run(fastPkts[i:end], batch, func(off, chain int, ms []platform.Measurement) {
			for j := 0; j < len(ms) && agree; j++ {
				res.Packets++
				k := i + off + j
				d := packetDiff(refPkts[k], fastPkts[k], want[off+j], outcome{chain, ms[j].Result.Verdict})
				diverge(k, d)
				agree = d == ""
			}
		})
		if err != nil {
			return fmt.Errorf("packet %d: %w", i, err)
		}
		i = end
	}

	// End-of-trace NF-observable state: the consolidated fast path
	// must have driven every state function exactly as the chain did.
	counters, logs := stateDiff(ref.chain(), fast.chain())
	diverge(-1, counters)
	diverge(-1, logs)
	// What the trace left in each engine's flow records must hang
	// together, whether or not this trace exercised it.
	for _, eng := range fast.engines() {
		if err := eng.CheckRecords(); err != nil {
			diverge(-1, err.Error())
		}
	}
	return nil
}

// engineSystem is the single-engine adapter: one chain on one engine.
// It is also the reference of every chain row, the cluster's included.
type engineSystem struct {
	nfs  func() ([]core.NF, error)
	cfg  OracleConfig
	opts core.Options
	pb   *platform.Batch

	oc   *oracleChain
	plat *bess.Platform
	// retired banks the counters of engines a crash discarded.
	retired core.Stats
}

// boot builds a fresh chain and engine, replays the committed
// reconfigurations onto it and, after a crash, restores it from the
// checkpoint and the durable WAL prefix. A schedule that crashes
// journals to a new WAL from then on.
func (s *engineSystem) boot(applied []reconfigEvent, cp *wal.Checkpoint, durable []byte) error {
	nfs, err := s.nfs()
	if err != nil {
		return err
	}
	plat, err := bess.New(bess.Config{Chain: nfs, Options: s.opts})
	if err != nil {
		return err
	}
	if err := replayReconfigs(plat.Engine(), applied); err != nil {
		return err
	}
	if cp != nil {
		if err := plat.Engine().Restore(cp, durable); err != nil {
			return fmt.Errorf("crash restore: %w", err)
		}
	}
	if s.cfg.Crashes > 0 {
		plat.Engine().AttachWAL(wal.NewWriter(wal.Options{}))
	}
	s.oc, s.plat = observeChain(nfs), plat
	return nil
}

func (s *engineSystem) run(pkts []*packet.Packet, batch int, fold func(off, chain int, ms []platform.Measurement)) error {
	return platform.Drain(pkts, batch, nil,
		func(_ int, run []*packet.Packet) ([]platform.Measurement, error) {
			return s.plat.ProcessBatch(run, s.pb)
		},
		func(off int, ms []platform.Measurement) error {
			fold(off, 0, ms)
			if s.cfg.TamperRule == nil {
				return nil
			}
			// The vector has already run; tampering poisons every later
			// vector of its flows.
			global := s.plat.Engine().Global()
			for _, m := range ms {
				if r, ok := global.Lookup(m.Result.FID); ok {
					broken := *r
					s.cfg.TamperRule(&broken)
					global.Install(&broken)
				}
			}
			return nil
		})
}

func (s *engineSystem) events(int64, int) []oracleEvent { return nil }

func (s *engineSystem) reconfigure(plan core.ChainPlan) error {
	eng := s.plat.Engine()
	var pre []*mat.GlobalRule
	if s.cfg.TamperReconfig != nil {
		eng.Global().ForEach(func(r *mat.GlobalRule) {
			cp := *r
			pre = append(pre, &cp)
		})
	}
	err := eng.Reconfigure(plan)
	if err == nil && s.cfg.TamperReconfig != nil {
		s.cfg.TamperReconfig(eng, pre)
	}
	return err
}

// crash kills the engine and rehydrates a fresh one from exactly what a
// process restart would find on disk: the encoded crash-consistent
// checkpoint plus the durable (synced) WAL prefix.
func (s *engineSystem) crash(applied []reconfigEvent) error {
	eng := s.plat.Engine()
	cp, err := eng.Checkpoint()
	if err != nil {
		return fmt.Errorf("crash checkpoint: %w", err)
	}
	durable := slices.Clone(eng.WAL().DurableBytes())
	s.retired.Add(eng.Stats())
	rcp, err := wal.DecodeCheckpoint(cp.Encode())
	if err != nil {
		return fmt.Errorf("crash checkpoint decode: %w", err)
	}
	return s.boot(applied, rcp, durable)
}

func (s *engineSystem) chain() *oracleChain { return s.oc }

func (s *engineSystem) engines() []*core.Engine { return []*core.Engine{s.plat.Engine()} }

func (s *engineSystem) finish(res *OracleResult) {
	res.bank(s.retired)
	res.bank(s.plat.Engine().Stats())
}
