package core

import (
	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

// Path identifies which data path a packet took.
type Path int

// Paths. Enum starts at one.
const (
	// PathSlow is the original service chain (all packets when
	// SpeedyBox is disabled; handshake/initial packets otherwise).
	PathSlow Path = iota + 1
	// PathFast is the consolidated Global MAT path.
	PathFast
)

// String returns the path name.
func (p Path) String() string {
	if p == PathFast {
		return "fast"
	}
	return "slow"
}

// SlowPathInfo decomposes a slow-path traversal for the platform cost
// formulas.
type SlowPathInfo struct {
	// ClassifierCycles is the SpeedyBox classifier work (zero when
	// SpeedyBox is disabled — the baseline has no classifier stage).
	ClassifierCycles uint64
	// PerNF is the work cycles of each NF that charged any, including
	// Local MAT recording overhead, in first-charge order — chain order
	// for the traversed NFs, with an NF that never charged absent. The
	// BESS and ONVM formulas take len(PerNF) as the number of modules
	// or stages the packet crossed.
	PerNF []cost.StageCost
	// ConsolidateCycles is the Global MAT consolidation work after an
	// initial packet finishes the chain (zero otherwise).
	ConsolidateCycles uint64
	// DropIndex is the index of the NF that dropped the packet, or -1.
	DropIndex int
	// FaultRestarts counts injected transient NF crash-restarts
	// during this traversal (zero without a fault injector).
	FaultRestarts int
}

// FastPathInfo decomposes a fast-path execution.
type FastPathInfo struct {
	// FixedCycles is the per-packet fixed work: FID hash, metadata,
	// Event Table pre-check, Global MAT lookup, rule-size marginal.
	FixedCycles uint64
	// HeaderCycles is the consolidated header-action application.
	HeaderCycles uint64
	// SF is the state-function execution result: critical path, total
	// work, largest stage and stage count.
	SF sfunc.ExecResult
	// DispatchCycles is the batch dispatch overhead paid by the
	// dispatching core.
	DispatchCycles uint64
	// BatchCount is the number of executed state-function batches.
	BatchCount int
	// EventsFired counts Event Table firings during this packet
	// (pre-check and post-execution checks).
	EventsFired int
	// ReconsolidateCycles is the cost of event-driven rule rebuilds.
	ReconsolidateCycles uint64
}

// PacketResult is the engine's full account of one processed packet.
// ProcessBatch writes it by value into the packet's slot of the Batch,
// and Path is its one discriminant: a fast packet's account is the slot
// alone (Fast), a slow packet's points into the Batch's traversal
// scratch (Slow, and its PerNF).
type PacketResult struct {
	// FID is the flow identifier.
	FID flow.FID
	// Kind is the classifier's decision.
	Kind classifier.Kind
	// Path is the data path taken.
	Path Path
	// Verdict is the final fate of the packet.
	Verdict Verdict
	// WorkCycles is the total processing work — the paper's "CPU
	// cycle per packet" metric (framework overheads excluded).
	WorkCycles uint64
	// Slow is populated when Path == PathSlow, nil otherwise.
	Slow *SlowPathInfo
	// Fast is populated when Path == PathFast, zero otherwise.
	Fast FastPathInfo
	// TornDown reports that FIN/RST cleanup ran after processing.
	TornDown bool
}

// clone returns a caller-owned deep copy of a result in a Batch slot:
// one value copy on the fast path; on the slow path the result and its
// path info in one allocation, plus PerNF.
func (r *PacketResult) clone() *PacketResult {
	if r.Path == PathFast {
		o := *r
		return &o
	}
	o := &struct {
		PacketResult
		SlowPathInfo
	}{*r, *r.Slow}
	o.Slow = &o.SlowPathInfo
	o.Slow.PerNF = append([]cost.StageCost(nil), r.Slow.PerNF...)
	return &o.PacketResult
}

// NFWork sums the per-NF work on the slow path.
func (r *PacketResult) NFWork() uint64 {
	if r.Slow == nil {
		return 0
	}
	var sum uint64
	for _, s := range r.Slow.PerNF {
		sum += s.Cycles
	}
	return sum
}

// Stats aggregates engine-level counters across a run.
type Stats struct {
	Packets        uint64
	Initial        uint64
	Subsequent     uint64
	Handshake      uint64
	Final          uint64
	FastPath       uint64
	SlowPath       uint64
	Dropped        uint64
	EventsFired    uint64
	Consolidations uint64
	// SlowPathFallbacks counts packets that would have been
	// accelerated but transparently took the slow-path chain instead:
	// fast-path lookups that missed a removed or stale-marked rule,
	// plus initial packets held back by the degradation ladder.
	SlowPathFallbacks uint64
	// DegradedPackets counts initial packets whose recording attempt
	// the degradation ladder blocked (backoff not yet expired).
	DegradedPackets uint64
	// FaultRecoveries counts degraded flows that returned to the fast
	// path via a successful rule reinstall.
	FaultRecoveries uint64
	// RuleQuotaDenied counts set-ups the admission policy refused a rule
	// (the tenant's rule quota), and EventCapDenied those it refused the
	// events their recording registered (its event cap). A denial parks
	// the flow on the degradation ladder, on the always-correct slow
	// path, so a refused flow is denied again only once its backoff has
	// passed: each counts attempts, not packets, and changes no verdict.
	RuleQuotaDenied uint64
	EventCapDenied  uint64
}

// Add folds another snapshot into s. Multi-chain dispatchers use it to
// aggregate per-chain engine stats into one run total.
func (s *Stats) Add(o Stats) {
	s.Packets += o.Packets
	s.Initial += o.Initial
	s.Subsequent += o.Subsequent
	s.Handshake += o.Handshake
	s.Final += o.Final
	s.FastPath += o.FastPath
	s.SlowPath += o.SlowPath
	s.Dropped += o.Dropped
	s.EventsFired += o.EventsFired
	s.Consolidations += o.Consolidations
	s.SlowPathFallbacks += o.SlowPathFallbacks
	s.DegradedPackets += o.DegradedPackets
	s.FaultRecoveries += o.FaultRecoveries
	s.RuleQuotaDenied += o.RuleQuotaDenied
	s.EventCapDenied += o.EventCapDenied
}
