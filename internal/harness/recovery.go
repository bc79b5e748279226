package harness

import (
	"fmt"
	"slices"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/nf/gateway"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/trace"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// The recovery experiments replay a trace through one SpeedyBox engine
// in 512-packet windows, fire one event at the window boundary nearest
// mid-trace (replayWindows), and watch the per-window fast-path hit rate:
//
//   - reconfig inserts a gateway NF into Chain 1 live, a semantically
//     visible change: every later packet gets a MAC rewrite. Every flow
//     re-records under the new chain, so the rate dips, then recovers as
//     record-and-consolidate repopulates the Global MAT. The bar: zero
//     drops and a final window at 90% of the pre-change baseline or more.
//   - restart kills a 3-IPFilter engine (header-only rules, so no event
//     fires on a restored flow) that journals to a WAL and checkpoints
//     periodically, and continues on a fresh one: restored from the last
//     checkpoint plus the durable WAL prefix, and, as the control, cold.
//     The restored engine resumes consolidated forwarding almost at once
//     (only the group-commit tail and post-checkpoint churn re-record);
//     the cold one pays a slow-path traversal per live flow again.

// recoveryWindow is the window size in packets.
const recoveryWindow = 512

// window is one window of a recovery replay: eligible counts its
// fast-path-eligible (subsequent and final) packets, and after marks a
// window at or past the event.
type window struct {
	start, packets, eligible int
	hitRate                  float64
	after                    bool
}

// recovery is one windowed replay; at is the event's packet index.
type recovery struct {
	at, drops int
	windows   []window
}

// replayWindows replays pkts through eng in recoveryWindow-packet
// windows, each in batch-packet vectors (batch <= 1 means 32). Before
// every window it calls before with the window's offset and the event's
// index, and the engine before returns processes from then on: a new
// engine starts with a new vector buffer and its own counters. A
// window's hit rate is its fast-path packets over its eligible packets,
// or over all its packets when overAll is set.
func replayWindows(eng *core.Engine, pkts []*packet.Packet, batch int, overAll bool,
	before func(eng *core.Engine, off, at int) (*core.Engine, error)) (*recovery, error) {
	if batch <= 1 {
		batch = 32
	}
	r := &recovery{at: max(len(pkts)/2/recoveryWindow*recoveryWindow, recoveryWindow)}
	cb := core.NewBatch(batch)
	prev := eng.Stats()
	for off := 0; off < len(pkts); off += recoveryWindow {
		next, err := before(eng, off, r.at)
		if err != nil {
			return nil, err
		}
		if next != eng {
			eng, cb, prev = next, core.NewBatch(batch), next.Stats()
		}
		end := min(off+recoveryWindow, len(pkts))
		for i := off; i < end; i += batch {
			rs, err := eng.ProcessBatch(pkts[i:min(i+batch, end)], cb)
			if err != nil {
				return nil, fmt.Errorf("harness: batch at packet %d: %w", i, err)
			}
			for _, res := range rs {
				if res.Verdict == core.VerdictDrop {
					r.drops++
				}
			}
		}
		st := eng.Stats()
		w := window{start: off, packets: end - off, after: off >= r.at,
			eligible: int((st.Subsequent - prev.Subsequent) + (st.Final - prev.Final))}
		denom := w.eligible
		if overAll {
			denom = w.packets
		}
		if denom > 0 {
			w.hitRate = float64(st.FastPath-prev.FastPath) / float64(denom)
		}
		r.windows = append(r.windows, w)
		prev = st
	}
	return r, nil
}

// baseline is the mean hit rate of the windows before the event, less
// the first, which warms the tables up.
func (r *recovery) baseline() float64 {
	var sum float64
	n := 0
	for i, w := range r.windows {
		if i > 0 && !w.after {
			sum += w.hitRate
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ReconfigWindow is one measurement window of the run: Start is its
// first packet index, Eligible counts its fast-path-eligible packets
// (subsequent + final), and HitRate is FastPath/Eligible.
type ReconfigWindow struct {
	Start, Packets, Eligible int
	HitRate                  float64
	// AfterChange marks windows at or past the chain change.
	AfterChange bool
}

// ReconfigResult aggregates the reconfiguration experiment.
type ReconfigResult struct {
	Platform string
	Windows  []ReconfigWindow
	// ChangeAt is the packet index where the gateway was inserted.
	ChangeAt int
	// Baseline is the mean hit rate of the pre-change windows but the
	// first, which warms the tables up.
	Baseline float64
	// Dip is the lowest post-change window hit rate.
	Dip float64
	// Recovered is the final window's hit rate; RecoveredFrac is its
	// fraction of Baseline.
	Recovered     float64
	RecoveredFrac float64
	// Drops counts dropped packets across the run (must be 0).
	Drops int
	// Epoch is the engine's chain epoch after the run (1: one
	// reconfiguration applied).
	Epoch uint64
	// DegradedFlows is how many flows end the run on the degradation
	// ladder.
	DegradedFlows int
}

// Passed reports whether the acceptance bar held: no packet dropped and
// the fast-path hit rate recovered to at least 90% of the pre-change
// baseline by the end of the trace.
func (r *ReconfigResult) Passed() bool {
	return r.Drops == 0 && r.Baseline > 0 && r.RecoveredFrac >= 0.9
}

// Format renders the experiment outcome.
func (r *ReconfigResult) Format() string {
	t := &tableWriter{}
	t.title(fmt.Sprintf("Live reconfiguration: fast-path hit-rate recovery on %s (gateway inserted at packet %d)",
		r.Platform, r.ChangeAt))
	t.row("window start", "packets", "eligible", "hit rate", "phase")
	for _, w := range r.Windows {
		phase := "pre-change"
		if w.AfterChange {
			phase = "post-change"
		}
		t.row(append(counts(w.Start, w.Packets, w.Eligible), f3(w.HitRate), phase)...)
	}
	t.row("")
	t.row("baseline", "dip", "recovered", "recovered/baseline", "drops", "epoch", "result")
	t.row(f3(r.Baseline), f3(r.Dip), f3(r.Recovered),
		f3(r.RecoveredFrac), fmt.Sprint(r.Drops), fmt.Sprint(r.Epoch), passFail(r.Passed()))
	return t.String()
}

// RunReconfig executes the live-reconfiguration experiment.
func RunReconfig(cfg Config) (*ReconfigResult, error) {
	cfg = cfg.withDefaults(400)
	// All-TCP: every flow consolidates and tears down.
	tr, err := trace.Generate(trace.Config{Seed: cfg.Seed, Flows: cfg.Flows,
		MeanPackets: 24, UDPFraction: 0.0001, Interleave: true})
	if err != nil {
		return nil, err
	}
	chain, err := chain1.Build()
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(chain, cfg.options(core.DefaultOptions()))
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	run, err := replayWindows(eng, tr.Packets(), cfg.Batch, false, func(eng *core.Engine, off, at int) (*core.Engine, error) {
		if off != at {
			return eng, nil
		}
		gw, err := gateway.New(gateway.Config{Name: "gw-live", NextHopMAC: [6]byte{2, 0, 0, 0, 0, 1}})
		if err != nil {
			return nil, err
		}
		if err := eng.Reconfigure(core.ChainPlan{Op: core.OpInsert, Pos: eng.ChainLen(), NF: gw}); err != nil {
			return nil, fmt.Errorf("harness: reconfigure: %w", err)
		}
		return eng, nil
	})
	if err != nil {
		return nil, err
	}
	res := &ReconfigResult{
		Platform: platform.DisplayName("BESS", true), ChangeAt: run.at,
		Baseline: run.baseline(), Dip: 1, Drops: run.drops,
		Epoch: eng.Epoch(), DegradedFlows: eng.DegradedFlows(),
	}
	for _, w := range run.windows {
		res.Windows = append(res.Windows, ReconfigWindow{Start: w.start, Packets: w.packets,
			Eligible: w.eligible, HitRate: w.hitRate, AfterChange: w.after})
		if w.after {
			res.Dip = min(res.Dip, w.hitRate)
		}
	}
	if n := len(res.Windows); n > 0 {
		res.Recovered = res.Windows[n-1].HitRate
	}
	if res.Baseline > 0 {
		res.RecoveredFrac = res.Recovered / res.Baseline
	}
	return res, nil
}

// RestartWindow is one measurement window of the restored run, as
// ReconfigWindow but for HitRate, which is FastPath/Packets: a cold
// restart reclassifies every live flow's next packet as initial, and
// those slow-path traversals are the recovery cost being measured.
type RestartWindow struct {
	Start, Packets, Eligible int
	HitRate                  float64
	// AfterCrash marks windows at or past the kill/restore point.
	AfterCrash bool
}

// RestartResult aggregates the crash-restart recovery experiment.
type RestartResult struct {
	Windows []RestartWindow
	// CrashAt is the packet index where the engine was killed.
	CrashAt int
	// Checkpoints is how many periodic checkpoints were taken before
	// the crash; WALBytes is the durable journal size at the kill point.
	Checkpoints int
	WALBytes    int
	// RestoredRules is the Global MAT occupancy right after Restore.
	RestoredRules int
	// Baseline is the mean pre-crash window hit rate, as in reconfig.
	Baseline float64
	// Restored is the first full post-crash window's hit rate with
	// checkpoint+WAL restore; RestoredFrac is its fraction of Baseline.
	Restored     float64
	RestoredFrac float64
	// Cold is the same window's hit rate when the replacement engine
	// starts empty; ColdFrac is its fraction of Baseline.
	Cold     float64
	ColdFrac float64
	// Drops counts dropped packets across the restored run (must be 0).
	Drops int
}

// Passed reports whether the acceptance bar held: no packet dropped and
// the restored engine's first post-crash window at or above 90% of the
// pre-crash baseline.
func (r *RestartResult) Passed() bool {
	return r.Drops == 0 && r.Baseline > 0 && r.RestoredFrac >= 0.9
}

// Format renders the experiment outcome.
func (r *RestartResult) Format() string {
	t := &tableWriter{}
	t.title(fmt.Sprintf("Crash restart: hit-rate recovery, checkpoint+WAL restore vs cold start (killed at packet %d)", r.CrashAt))
	t.row("window start", "packets", "eligible", "hit rate", "phase")
	for _, w := range r.Windows {
		phase := "pre-crash"
		if w.AfterCrash {
			phase = "post-restore"
		}
		t.row(append(counts(w.Start, w.Packets, w.Eligible), f3(w.HitRate), phase)...)
	}
	t.row("")
	t.row("baseline", "restored", "restored/baseline", "cold", "cold/baseline", "ckpts", "wal bytes", "rules back", "drops", "result")
	t.row(f3(r.Baseline), f3(r.Restored), f3(r.RestoredFrac), f3(r.Cold), f3(r.ColdFrac),
		fmt.Sprint(r.Checkpoints), fmt.Sprint(r.WALBytes), fmt.Sprint(r.RestoredRules),
		fmt.Sprint(r.Drops), passFail(r.Passed()))
	return t.String()
}

// RunRestart executes the crash-restart recovery experiment.
func RunRestart(cfg Config) (*RestartResult, error) {
	cfg = cfg.withDefaults(256)
	tr, err := trace.Generate(trace.Config{Seed: cfg.Seed, Flows: cfg.Flows,
		MeanPackets: 64, UDPFraction: 1.0, Interleave: true})
	if err != nil {
		return nil, err
	}
	res := &RestartResult{}
	restored, err := replayRestart(cfg, tr.Packets(), true, res)
	if err != nil {
		return nil, err
	}
	cold, err := replayRestart(cfg, tr.Packets(), false, &RestartResult{})
	if err != nil {
		return nil, err
	}
	res.CrashAt, res.Baseline, res.Drops = restored.at, restored.baseline(), restored.drops
	for _, w := range restored.windows {
		res.Windows = append(res.Windows, RestartWindow{Start: w.start, Packets: w.packets,
			Eligible: w.eligible, HitRate: w.hitRate, AfterCrash: w.after})
	}
	if k := restored.at / recoveryWindow; k < len(restored.windows) {
		res.Restored, res.Cold = restored.windows[k].hitRate, cold.windows[k].hitRate
	}
	if res.Baseline > 0 {
		res.RestoredFrac = res.Restored / res.Baseline
		res.ColdFrac = res.Cold / res.Baseline
	}
	return res, nil
}

// replayRestart replays pkts through a 3-IPFilter engine that journals
// to a WAL and checkpoints every four windows, kills it at the event and
// continues on a fresh engine: restored from the last checkpoint plus
// the durable WAL prefix when restore is set, cold otherwise. It records
// the checkpoints, the journal size at the kill and the rules restored
// in res.
func replayRestart(cfg Config, pkts []*packet.Packet, restore bool, res *RestartResult) (*recovery, error) {
	mk := func() (*core.Engine, error) {
		chain, err := filterChain(3)
		if err != nil {
			return nil, err
		}
		return core.NewEngine(chain, cfg.options(core.DefaultOptions()))
	}
	eng, err := mk()
	if err != nil {
		return nil, err
	}
	eng.AttachWAL(wal.NewWriter(wal.Options{}))
	var lastCkpt []byte
	return replayWindows(eng, pkts, cfg.Batch, true, func(eng *core.Engine, off, at int) (*core.Engine, error) {
		if off > 0 && off < at && off%(4*recoveryWindow) == 0 {
			cp, err := eng.Checkpoint()
			if err != nil {
				return nil, fmt.Errorf("harness: checkpoint at packet %d: %w", off, err)
			}
			lastCkpt = cp.Encode()
			res.Checkpoints++
		}
		if off != at {
			return eng, nil
		}
		// The crash: only what reached the disk survives — the last
		// checkpoint image and the group-committed journal prefix.
		durable := slices.Clone(eng.WAL().DurableBytes())
		res.WALBytes = len(durable)
		eng, err := mk()
		if err != nil {
			return nil, err
		}
		if restore && lastCkpt != nil {
			cp, err := wal.DecodeCheckpoint(lastCkpt)
			if err != nil {
				return nil, fmt.Errorf("harness: decode checkpoint: %w", err)
			}
			if err := eng.Restore(cp, durable); err != nil {
				return nil, fmt.Errorf("harness: restore: %w", err)
			}
		}
		res.RestoredRules = eng.Global().Len()
		eng.AttachWAL(wal.NewWriter(wal.Options{}))
		return eng, nil
	})
}
