package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// Removal / reset causes journaled to the flight recorder and used as
// the reason label on speedybox_mat_removals_total.
const (
	// CauseFinTeardown is TCP FIN/RST cleanup (§VI-B).
	CauseFinTeardown = "fin-teardown"
	// CauseIdleExpiry is the idle-flow garbage collector.
	CauseIdleExpiry = "idle-expiry"
	// CauseSynReuse is a SYN restarting an already-tracked 5-tuple.
	CauseSynReuse = "syn-reuse"
	// CauseEventUnconsolidatable is an event update whose result no
	// longer folds into one rule, evicting the stale rule.
	CauseEventUnconsolidatable = "event-unconsolidatable"
	// CauseEventUnrecorded is an event firing on a flow whose rule was
	// built under a chain epoch retired under the firing (or is gone):
	// there is no recording of the live chain to update.
	CauseEventUnrecorded = "event-unrecorded"
	// CauseInstallFault is an injected Global MAT install failure; any
	// previous rule version is stale-marked.
	CauseInstallFault = "install-fault"
	// CauseRecomputeDrop is an injected lost rule recomputation; the
	// flow enters the escalating backoff ladder.
	CauseRecomputeDrop = "recompute-drop"
	// CauseRecomputeDelay is an injected deferred rule recomputation;
	// the flow's next packet may rebuild immediately.
	CauseRecomputeDelay = "recompute-delay"
	// CauseNFError is an injected transient NF crash-restart that
	// aborted a recording in progress.
	CauseNFError = "nf-error"
	// CauseUnconsolidatable, CauseRuleQuota and CauseEventCap refuse a
	// set-up: a recording no rule can carry, and the admission policy's
	// refusal of the flow's rule or of its recording's events.
	CauseUnconsolidatable, CauseRuleQuota, CauseEventCap = "unconsolidatable", "rule-quota", "event-cap"
	// CauseFaultEvict is injected flow-table eviction pressure.
	CauseFaultEvict = "fault-evict"
)

// engineTelemetry is the engine's pre-resolved metric set: every
// counter and histogram the hot paths touch is looked up once at
// construction, so per-packet recording is pure atomic adds — no map
// lookups, no locks, no allocations.
type engineTelemetry struct {
	hub *telemetry.Hub
	rec *telemetry.Recorder
	// chain is the Options.ChainLabel this engine's metric names carry
	// (empty for single-chain deployments — names stay unlabeled).
	chain string

	// Per-path work histograms (modeled cycles, the paper's
	// "CPU cycle per packet" currency — deterministic and free of
	// clock syscalls on the fast path).
	fastLat      *telemetry.Histogram
	slowLat      *telemetry.Histogram
	handshakeLat *telemetry.Histogram

	// Per-NF slow-path stage work, indexed by NF name. Held behind an
	// atomic pointer and rebuilt copy-on-write by Reconfigure, so inserted
	// NFs get histograms while concurrent workers keep reading the old map.
	nfStage atomic.Pointer[map[string]*telemetry.Histogram]

	// Global MAT churn; removals by cause.
	installs     *telemetry.Counter
	replacements *telemetry.Counter
	removals     map[string]*telemetry.Counter

	// Flow lifecycle.
	flowResets *telemetry.Counter

	// Fast-shaped packets served the handle of an earlier packet of
	// their vector versus those that probed the table; kept out of
	// Stats, the oracle-compared surface, as rates differ with the
	// vector size.
	flowCacheHits   *telemetry.Counter
	flowCacheMisses *telemetry.Counter

	// Consolidation attempts that did not fold into one rule.
	unconsolidatable *telemetry.Counter

	// Chain reconfiguration: completed reconfigurations by plan kind
	// (indexed by ReconfigOp-1), aborted-and-rolled-back attempts, and
	// the wall-clock nanoseconds of the post-publication stale sweep.
	reconfigs         [4]*telemetry.Counter
	reconfigRollbacks *telemetry.Counter
	reconfigSweep     *telemetry.Histogram

	// Durability (persist.go): checkpoint/restore counters and the
	// wall-clock cost of checkpointing, restore replay and WAL group
	// commits.
	checkpoints     *telemetry.Counter
	restores        *telemetry.Counter
	walReplayed     *telemetry.Counter
	checkpointNanos *telemetry.Histogram
	restoreNanos    *telemetry.Histogram
	walFsync        *telemetry.Histogram
}

// chainLabeled appends a {chain="..."} label to a metric name,
// splicing into an existing label set when the name already carries
// one. An empty chain returns the name unchanged, so single-chain
// deployments keep their historical metric names bit-for-bit.
func chainLabeled(name, chain string) string {
	if chain == "" {
		return name
	}
	if strings.HasSuffix(name, "}") {
		return name[:len(name)-1] + `,chain=` + fmt.Sprintf("%q", chain) + `}`
	}
	return name + `{chain=` + fmt.Sprintf("%q", chain) + `}`
}

// newEngineTelemetry resolves the engine's metrics against the hub and
// registers the scrape-time views over the engine's existing counters
// and table occupancies. chain (Options.ChainLabel) distinguishes the
// series of several engines sharing one hub.
func newEngineTelemetry(e *Engine, hub *telemetry.Hub, chain string) *engineTelemetry {
	reg := hub.Registry
	n := func(name string) string { return chainLabeled(name, chain) }
	t := &engineTelemetry{
		hub:   hub,
		rec:   hub.Recorder,
		chain: chain,
		fastLat: reg.Histogram(n(`speedybox_engine_path_work_cycles{path="fast"}`),
			"Per-packet modeled work cycles by data path"),
		slowLat: reg.Histogram(n(`speedybox_engine_path_work_cycles{path="slow"}`),
			"Per-packet modeled work cycles by data path"),
		handshakeLat: reg.Histogram(n(`speedybox_engine_path_work_cycles{path="handshake"}`),
			"Per-packet modeled work cycles by data path"),
		installs: reg.Counter(n("speedybox_mat_installs_total"),
			"Global MAT first-time rule installations"),
		replacements: reg.Counter(n("speedybox_mat_replacements_total"),
			"Global MAT rule replacements (an event firing's rebuild, or a re-recording over a rule not served)"),
		removals: make(map[string]*telemetry.Counter),
		flowResets: reg.Counter(n("speedybox_flow_resets_total"),
			"Flows reset by a SYN reusing a tracked 5-tuple"),
		flowCacheHits: reg.Counter(n("speedybox_flow_cache_hits_total"),
			"Fast-shaped packets served the flow handle of an earlier packet of their vector"),
		flowCacheMisses: reg.Counter(n("speedybox_flow_cache_misses_total"),
			"Fast-shaped packets that probed the flow table: the vector's staged lookup or a re-acquire"),
		unconsolidatable: reg.Counter(n("speedybox_consolidate_unconsolidatable_total"),
			"Consolidation attempts whose actions did not fold into one rule"),
		reconfigRollbacks: reg.Counter(n("speedybox_reconfig_rollbacks_total"),
			"Chain reconfigurations aborted mid-transition and rolled back"),
		reconfigSweep: reg.Histogram(n("speedybox_reconfig_sweep_nanos"),
			"Wall-clock nanoseconds stale-sweeping old-epoch rules after a reconfiguration"),
		checkpoints: reg.Counter(n("speedybox_checkpoints_total"),
			"Engine state checkpoints taken"),
		restores: reg.Counter(n("speedybox_restores_total"),
			"Engine restores from checkpoint plus WAL replay"),
		walReplayed: reg.Counter(n("speedybox_wal_replayed_records_total"),
			"WAL records replayed past the checkpoint during restores"),
		checkpointNanos: reg.Histogram(n("speedybox_checkpoint_nanos"),
			"Wall-clock nanoseconds per checkpoint"),
		restoreNanos: reg.Histogram(n("speedybox_wal_replay_nanos"),
			"Wall-clock nanoseconds per restore (checkpoint load plus journal replay)"),
		walFsync: reg.Histogram(n("speedybox_wal_fsync_nanos"),
			"Wall-clock nanoseconds per WAL group commit"),
	}
	for _, c := range []string{CauseFinTeardown, CauseIdleExpiry, CauseSynReuse, CauseEventUnconsolidatable, CauseEventUnrecorded, CauseFaultEvict} {
		t.removals[c] = reg.Counter(n(fmt.Sprintf("speedybox_mat_removals_total{reason=%q}", c)),
			"Global MAT rule removals by reason")
	}
	for _, op := range []ReconfigOp{OpInsert, OpRemove, OpReplace, OpReorder} {
		t.reconfigs[op-1] = reg.Counter(n(fmt.Sprintf("speedybox_reconfigs_total{kind=%q}", op)),
			"Completed chain reconfigurations by plan kind")
	}
	t.rebuildStages(e.state().chain)

	// Scrape-time views over state the engine already maintains. The
	// closures read sharded atomics / table sizes; they hold no engine
	// locks and may run concurrently with the data path.
	reg.CounterFunc(n("speedybox_engine_packets_total"),
		"Packets processed", func() uint64 { return e.Stats().Packets })
	reg.CounterFunc(n(`speedybox_engine_path_packets_total{path="fast"}`),
		"Packets by data path", func() uint64 { return e.Stats().FastPath })
	reg.CounterFunc(n(`speedybox_engine_path_packets_total{path="slow"}`),
		"Packets by data path", func() uint64 { return e.Stats().SlowPath })
	reg.CounterFunc(n("speedybox_engine_dropped_total"),
		"Packets dropped by the chain", func() uint64 { return e.Stats().Dropped })
	reg.CounterFunc(n("speedybox_engine_consolidations_total"),
		"Successful flow consolidations", func() uint64 { return e.Stats().Consolidations })
	reg.CounterFunc(n("speedybox_engine_events_fired_total"),
		"Event Table firings observed on the fast path", func() uint64 { return e.Stats().EventsFired })
	reg.GaugeFunc(n("speedybox_flow_table_flows"),
		"Tracked flows (flow table occupancy)", func() float64 { return float64(e.class.Flows().Len()) })
	reg.CounterFunc(n("speedybox_flow_table_rebuilds_total"),
		"Flow table slot arrays published (growth or compaction)", e.class.Flows().Rebuilds)
	reg.GaugeFunc(n("speedybox_flow_dead_slots"),
		"Flow table tombstones awaiting compaction", func() float64 { return float64(e.class.Flows().DeadSlots()) })
	reg.GaugeFunc(n("speedybox_flow_records"),
		"Flow entries holding a record (NF state or a standing)", func() float64 { return float64(e.class.Flows().Counts().Records) })
	reg.GaugeFunc(n("speedybox_flow_detached_entries"),
		"Flow-table entries no tuple maps to: rules installed under a FID no flow holds",
		func() float64 { return float64(e.class.Flows().Counts().Detached) })
	reg.GaugeFunc(n("speedybox_mat_global_rules"),
		"Installed Global MAT rules", func() float64 { return float64(e.global.Len()) })
	reg.GaugeFunc(n("speedybox_event_flows"),
		"Flows with registered events", func() float64 { return float64(e.global.Guarded()) })
	reg.CounterFunc(n("speedybox_event_registered_total"),
		"Event Table registrations", func() uint64 { return e.events.RegisteredTotal() })
	reg.CounterFunc(n("speedybox_event_fired_total"),
		"Event Table firings", func() uint64 { return e.events.FiredTotal() })

	// Fault-injection and graceful-degradation observability. The
	// fallback/degradation counters are registered unconditionally —
	// they also advance on organic rule loss (concurrent teardown) —
	// while the per-kind injection counters need an injector.
	reg.CounterFunc(n("speedybox_slowpath_fallbacks_total"),
		"Packets transparently redirected to the slow path by a missing or stale rule",
		func() uint64 { return e.Stats().SlowPathFallbacks })
	reg.CounterFunc(n("speedybox_fastpath_degraded_total"),
		"Initial packets held on the slow path by the degradation ladder",
		func() uint64 { return e.Stats().DegradedPackets })
	reg.CounterFunc(n("speedybox_fault_recoveries_total"),
		"Degraded flows recovered to the fast path by a successful reinstall",
		func() uint64 { return e.Stats().FaultRecoveries })
	reg.CounterFunc(n("speedybox_engine_rule_quota_denied_total"),
		"Consolidated-rule installs refused by the admission policy",
		func() uint64 { return e.Stats().RuleQuotaDenied })
	reg.CounterFunc(n("speedybox_engine_event_cap_denied_total"),
		"Rule installs refused on the event cap by the admission policy",
		func() uint64 { return e.Stats().EventCapDenied })
	reg.GaugeFunc(n("speedybox_fault_degraded_flows"),
		"Flows currently on the degradation ladder",
		func() float64 { return float64(e.DegradedFlows()) })
	reg.GaugeFunc(n("speedybox_mat_stale_rules"),
		"Stale-marked Global MAT rules awaiting reinstall",
		func() float64 { return float64(e.global.StaleLen()) })
	reg.GaugeFunc(n("speedybox_chain_epoch"),
		"Current chain epoch (bumped by every completed reconfiguration)",
		func() float64 { return float64(e.global.Epoch()) })
	reg.GaugeFunc(n("speedybox_checkpoint_age_seconds"),
		"Seconds since the last completed checkpoint (-1 before the first)",
		func() float64 {
			ns := e.lastCheckpoint.Load()
			if ns == 0 {
				return -1
			}
			return time.Since(time.Unix(0, ns)).Seconds()
		})
	if inj := e.faults; inj != nil {
		for _, k := range fault.Kinds() {
			reg.CounterFunc(n(fmt.Sprintf("speedybox_faults_injected_total{kind=%q}", k)),
				"Injected faults by kind", func() uint64 { return inj.Injected(k) })
		}
	}
	return t
}

// hookWAL points the attached writer's sync observer at the fsync
// histogram and publishes the durable log size as a scrape-time gauge.
// GaugeFunc replaces its closure on re-registration, so re-attaching a
// different writer swaps the view rather than duplicating it.
func (t *engineTelemetry) hookWAL(w *wal.Writer) {
	w.SetOnSync(func(_ int, d time.Duration) {
		t.walFsync.Record(uint64(d.Nanoseconds()), 0)
	})
	t.hub.Registry.GaugeFunc(chainLabeled("speedybox_wal_durable_bytes", t.chain),
		"Synced (crash-durable) WAL prefix length in bytes",
		func() float64 { return float64(w.DurableLen()) })
}

// accountPacket records one finished slow-path packet's work histogram
// and per-NF stage timings; Batch.tally folds the fast path's.
func (t *engineTelemetry) accountPacket(res *PacketResult) {
	hint := uint32(res.FID)
	if res.Kind == classifier.KindHandshake {
		t.handshakeLat.Record(res.WorkCycles, hint)
	} else {
		t.slowLat.Record(res.WorkCycles, hint)
	}
	stages := *t.nfStage.Load()
	for _, s := range res.Slow.PerNF {
		if h, ok := stages[s.Name]; ok {
			h.Record(s.Cycles, hint)
		}
	}
}

// rebuildStages (re)resolves the per-NF stage histograms for a chain
// layout. Registration is idempotent, so surviving NFs keep their
// histograms; the map itself is replaced wholesale (copy-on-write) so
// workers mid-accountPacket keep a consistent view.
func (t *engineTelemetry) rebuildStages(chain []NF) {
	reg := t.hub.Registry
	m := make(map[string]*telemetry.Histogram, len(chain))
	for _, nf := range chain {
		h := reg.Histogram(chainLabeled(fmt.Sprintf("speedybox_nf_stage_cycles{nf=%q}", nf.Name()), t.chain),
			"Per-NF slow-path stage work cycles")
		m[nf.Name()] = h
	}
	t.nfStage.Store(&m)
}

// ruleInstalled journals a Global MAT install or replacement.
func (t *engineTelemetry) ruleInstalled(fid uint32, replaced bool) {
	if replaced {
		t.replacements.Inc()
		t.rec.Append(telemetry.EvRuleReplace, fid, "")
		return
	}
	t.installs.Inc()
	t.rec.Append(telemetry.EvRuleInstall, fid, "")
}

// ruleRemoved journals a Global MAT removal with its cause.
func (t *engineTelemetry) ruleRemoved(fid uint32, cause string) {
	t.removals[cause].Inc()
	t.rec.Append(telemetry.EvRuleRemove, fid, cause)
}
