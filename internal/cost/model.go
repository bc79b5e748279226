// Package cost implements the deterministic cycle-cost model that
// stands in for the paper's hardware testbed (Intel Xeon E5-2660 v4 @
// 2.0 GHz, measured with CPU cycle counters).
//
// Functional behaviour in this reproduction is real — packets are
// byte buffers that NFs genuinely parse, match and rewrite — but
// performance is modeled: every primitive operation charges a
// calibrated number of cycles to a Ledger. The absolute constants are
// calibrated against the paper's reported single-NF numbers (e.g.
// ~530-580 cycles per IPFilter traversal in Table III); the shapes of
// the reproduced figures depend only on the relative costs.
//
// Two accounting channels exist, mirroring how the paper measures:
//
//   - Work cycles: the processing cycles attributable to NF and
//     SpeedyBox logic. This is the "CPU cycle per packet" metric of
//     Figures 4 and 6 and Table III.
//   - Platform cycles: framework overheads (RX/TX, module-graph or
//     ring-buffer handling, polling) that determine latency and
//     throughput but are not attributed to any NF. These live in the
//     platform constants below and are applied by internal/bess and
//     internal/onvm.
package cost

import "fmt"

// Model holds every calibrated cycle constant. The zero value is not
// usable; obtain a Model from DefaultModel and adjust fields as needed.
// All cycle fields are in CPU cycles at FreqHz.
type Model struct {
	// FreqHz is the virtual clock frequency; the paper's testbed CPU
	// runs at 2.0 GHz.
	FreqHz float64

	// ---- Per-NF work primitives ----

	// Parse is one full header parse (L2+L3+L4), the step every NF in
	// an unconsolidated chain repeats (redundancy R1).
	Parse uint64
	// Classify is one flow-table classification (hash + lookup) inside
	// an NF.
	Classify uint64
	// ACLPerRule is the per-rule cost of a linear ACL scan (IPFilter
	// initial packets).
	ACLPerRule uint64
	// FlowCacheHit is an NF-internal per-flow cache hit for
	// subsequent packets on the original path.
	FlowCacheHit uint64
	// ModifyField is one header-field rewrite.
	ModifyField uint64
	// ChecksumUpdate is one checksum recomputation pass (IP +
	// transport). On the original path every modifying NF pays it; on
	// the consolidated path it is paid once (part of the R3 saving).
	ChecksumUpdate uint64
	// DropAction releases a packet descriptor.
	DropAction uint64
	// EncapHeader and DecapHeader are header push/pop costs.
	EncapHeader uint64
	DecapHeader uint64
	// CounterUpdate is one per-flow counter update (Monitor).
	CounterUpdate uint64
	// ConnTrackLookup and ConnTrackInsert are connection-table
	// operations (Maglev, MazuNAT).
	ConnTrackLookup uint64
	ConnTrackInsert uint64
	// NATAllocate is allocation of a fresh external (IP, port) mapping.
	NATAllocate uint64
	// MaglevTableLookup is one consistent-hash lookup-table probe.
	MaglevTableLookup uint64
	// InspectBase and InspectPerByte model payload inspection (Snort):
	// fixed setup plus a per-payload-byte scan cost.
	InspectBase    uint64
	InspectPerByte uint64
	// LogEvent is writing one IDS log/alert record.
	LogEvent uint64

	// ---- SpeedyBox work primitives ----

	// HashFID is the Packet Classifier's 5-tuple hash producing the
	// 20-bit FID (paper §VI-B).
	HashFID uint64
	// FastPathBase is the fixed fast-path cost per subsequent packet:
	// metadata attach/detach and Global MAT array indexing. Together
	// with HashFID, EventCheck and GMATLookup it explains why a
	// 1-header-action chain is slightly *slower* with SpeedyBox
	// (Figure 4) while longer chains win.
	FastPathBase uint64
	// FastPathPerHA is the marginal fast-path cost per source NF whose
	// actions were folded into the consolidated rule (rule metadata is
	// proportionally larger). Not charged for consolidated drops,
	// which short-circuit (Table III early drop).
	FastPathPerHA uint64
	// EventCheck is one Event Table condition probe.
	EventCheck uint64
	// EventFire is the cost of applying a triggered event's update to
	// the Local MAT (excluding the reconsolidation, charged
	// separately).
	EventFire uint64
	// GMATLookup is one Global MAT rule fetch by FID.
	GMATLookup uint64
	// RecordHA, RecordSF and RecordEvent are Local MAT instrumentation
	// costs on the initial-packet path ("extra overhead for recording
	// the processing rules into the Local MAT", §VII-A1).
	RecordHA    uint64
	RecordSF    uint64
	RecordEvent uint64
	// ConsolidateBase and ConsolidatePerNF are the Global MAT
	// consolidation costs after the initial packet finishes the chain.
	ConsolidateBase  uint64
	ConsolidatePerNF uint64
	// ForkJoin is the per-parallel-stage dispatch/join overhead of the
	// state-function parallel executor (§V-C2).
	ForkJoin uint64

	// ---- BESS platform constants (run-to-completion, §VI-A) ----

	// BESSFramework is the per-packet framework cost on the original
	// path: RX, TX, mempool and module-graph traversal on the single
	// chain core.
	BESSFramework uint64
	// BESSFastFramework is the per-packet framework cost on the
	// SpeedyBox fast path, which executes in a single Global MAT
	// module and skips most of the module graph.
	BESSFastFramework uint64
	// BESSPerModule is the per-NF module-crossing latency cost.
	BESSPerModule uint64

	// ---- OpenNetVM platform constants (pipelined, §VI-A) ----

	// ONVMRx and ONVMTx are manager RX/TX thread costs per packet.
	ONVMRx uint64
	ONVMTx uint64
	// ONVMHop is the latency of one shared-memory ring transfer
	// between cores (enqueue + dequeue + cache-line migration).
	ONVMHop uint64
	// ONVMStageFramework is the per-packet, per-stage core occupancy
	// beyond NF work (descriptor handling, queue polling). It bounds
	// throughput — the pipeline bottleneck — but does not appear in
	// unloaded latency.
	ONVMStageFramework uint64
	// ONVMMsgHop is one inter-core message-queue hop, used when Local
	// MAT rules are collected to the manager for consolidation
	// (§VI-A: "We leverage the existing inter-core message queues").
	ONVMMsgHop uint64
	// ONVMCoreBudget is the testbed core count (14 physical cores);
	// with manager threads reserved it caps ONVM chains at length 5
	// (§VII-B2).
	ONVMCoreBudget int
}

// DefaultModel returns the calibrated model. See the package comment
// and EXPERIMENTS.md for the calibration rationale.
func DefaultModel() *Model {
	return &Model{
		FreqHz: 2.0e9,

		Parse:             150,
		Classify:          250,
		ACLPerRule:        12,
		FlowCacheHit:      150,
		ModifyField:       100,
		ChecksumUpdate:    80,
		DropAction:        20,
		EncapHeader:       180,
		DecapHeader:       140,
		CounterUpdate:     300,
		ConnTrackLookup:   120,
		ConnTrackInsert:   100,
		NATAllocate:       300,
		MaglevTableLookup: 150,
		InspectBase:       120,
		InspectPerByte:    2,
		LogEvent:          60,

		HashFID:          80,
		FastPathBase:     300,
		FastPathPerHA:    40,
		EventCheck:       60,
		EventFire:        150,
		GMATLookup:       120,
		RecordHA:         40,
		RecordSF:         40,
		RecordEvent:      50,
		ConsolidateBase:  150,
		ConsolidatePerNF: 70,
		ForkJoin:         120,

		BESSFramework:     2250,
		BESSFastFramework: 1600,
		BESSPerModule:     100,

		ONVMRx:             700,
		ONVMTx:             700,
		ONVMHop:            600,
		ONVMStageFramework: 3020,
		ONVMMsgHop:         200,
		ONVMCoreBudget:     14,
	}
}

// Validate reports whether every calibration constant is usable: the
// clock and all work primitives must be positive (a zeroed field is
// almost always a forgotten initialization after adding a constant).
func (m *Model) Validate() error {
	if m.FreqHz <= 0 {
		return fmt.Errorf("cost: FreqHz must be positive, got %g", m.FreqHz)
	}
	checks := []struct {
		name  string
		value uint64
	}{
		{"Parse", m.Parse}, {"Classify", m.Classify}, {"ACLPerRule", m.ACLPerRule},
		{"FlowCacheHit", m.FlowCacheHit}, {"ModifyField", m.ModifyField},
		{"ChecksumUpdate", m.ChecksumUpdate}, {"DropAction", m.DropAction},
		{"EncapHeader", m.EncapHeader}, {"DecapHeader", m.DecapHeader},
		{"CounterUpdate", m.CounterUpdate}, {"ConnTrackLookup", m.ConnTrackLookup},
		{"ConnTrackInsert", m.ConnTrackInsert}, {"NATAllocate", m.NATAllocate},
		{"MaglevTableLookup", m.MaglevTableLookup}, {"InspectBase", m.InspectBase},
		{"LogEvent", m.LogEvent}, {"HashFID", m.HashFID},
		{"FastPathBase", m.FastPathBase}, {"FastPathPerHA", m.FastPathPerHA},
		{"EventCheck", m.EventCheck}, {"EventFire", m.EventFire},
		{"GMATLookup", m.GMATLookup}, {"RecordHA", m.RecordHA},
		{"RecordSF", m.RecordSF}, {"RecordEvent", m.RecordEvent},
		{"ConsolidateBase", m.ConsolidateBase}, {"ConsolidatePerNF", m.ConsolidatePerNF},
		{"ForkJoin", m.ForkJoin}, {"BESSFramework", m.BESSFramework},
		{"BESSFastFramework", m.BESSFastFramework}, {"BESSPerModule", m.BESSPerModule},
		{"ONVMRx", m.ONVMRx}, {"ONVMTx", m.ONVMTx}, {"ONVMHop", m.ONVMHop},
		{"ONVMStageFramework", m.ONVMStageFramework}, {"ONVMMsgHop", m.ONVMMsgHop},
	}
	for _, c := range checks {
		if c.value == 0 {
			return fmt.Errorf("cost: %s is zero", c.name)
		}
	}
	if m.ONVMCoreBudget <= 0 {
		return fmt.Errorf("cost: ONVMCoreBudget must be positive, got %d", m.ONVMCoreBudget)
	}
	return nil
}

// Price names one of the model's work primitives, so a state function
// declared as data (sfunc.Func) is charged what the engine's model
// prices, by name, and no NF code computes its cost.
type Price uint8

// The primitives a declared state function may be priced at. The zero
// Price names none.
const (
	// CounterUpdate is Model.CounterUpdate: Monitor's count.
	CounterUpdate Price = iota + 1
	// ConnTrackLookup is Model.ConnTrackLookup: Maglev's
	// connection-tracking touch.
	ConnTrackLookup
)

// Valid reports whether p names a primitive.
func (p Price) Valid() bool { return p >= CounterUpdate && p <= ConnTrackLookup }

// Cycles returns the cycles of the primitive p names, 0 for none.
func (m *Model) Cycles(p Price) uint64 {
	switch p {
	case CounterUpdate:
		return m.CounterUpdate
	case ConnTrackLookup:
		return m.ConnTrackLookup
	}
	return 0
}

// InspectCost returns the payload-inspection cost for n payload bytes.
func (m *Model) InspectCost(n int) uint64 {
	return m.InspectBase + m.InspectPerByte*uint64(n)
}

// ACLScanCost returns the cost of linearly scanning rules ACL entries.
func (m *Model) ACLScanCost(rules int) uint64 {
	return m.ACLPerRule * uint64(rules)
}

// CyclesToMicros converts cycles to microseconds (the latency unit the
// paper reports).
func (m *Model) CyclesToMicros(cycles uint64) float64 {
	return float64(cycles) / m.FreqHz * 1e6
}

// RateMpps converts a per-packet bottleneck cost to a processing rate
// in millions of packets per second.
func (m *Model) RateMpps(bottleneckCycles float64) float64 {
	if bottleneckCycles <= 0 {
		return 0
	}
	return m.FreqHz / bottleneckCycles / 1e6
}
