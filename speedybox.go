// Package speedybox is a Go reproduction of "SpeedyBox: Low-Latency
// NFV Service Chains with Cross-NF Runtime Consolidation" (Jiang et
// al., ICDCS 2019).
//
// SpeedyBox builds a fast data path for flows in NFV service chains:
// as the initial packet of a flow traverses the chain, each network
// function records its per-flow behaviour — standardized header
// actions plus opaque state-function handlers — into a Local
// Match-Action Table; a Global MAT consolidates the recorded actions
// into a single rule that subsequent packets execute directly, and an
// Event Table keeps the consolidated rule in sync with runtime state
// changes (backend failures, threshold crossings).
//
// This package is the public facade over the implementation in
// internal/: the NF integration API, the execution platform with its
// two pricing formulas (BESS run-to-completion and the OpenNetVM
// core-per-NF topology), the synthetic datacenter trace generator, and
// the stock network functions from the paper's evaluation (Snort,
// Maglev, IPFilter, Monitor, MazuNAT) plus extras (VPN gateway, DoS
// defender, synthetic NF).
//
// # Quickstart
//
//	chain := []speedybox.NF{nat, lb, mon, fw}
//	p, err := speedybox.NewBESS(chain, speedybox.DefaultOptions())
//	if err != nil { ... }
//	defer p.Close()
//	tr, err := speedybox.GenerateTrace(speedybox.TraceConfig{Seed: 1, Flows: 100})
//	res, err := speedybox.Run(p, tr.Packets())
//	fmt.Println(res.RateMpps(), res.MeanLatencyMicros())
//
// See examples/ for runnable programs and cmd/speedybench for the
// harness that regenerates every table and figure of the paper's
// evaluation.
package speedybox

import (
	"github.com/fastpathnfv/speedybox/internal/bess"
	"github.com/fastpathnfv/speedybox/internal/chainspec"
	"github.com/fastpathnfv/speedybox/internal/cluster"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/onvm"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
	"github.com/fastpathnfv/speedybox/internal/topo"
	"github.com/fastpathnfv/speedybox/internal/trace"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// Core NF-integration types. An NF implements Process and applies and
// records its behaviour through the Ctx instrumentation APIs (the
// paper's localmat_add_HA, localmat_add_SF and register_event, Figure 2).
type (
	// NF is a network function integrated with SpeedyBox.
	NF = core.NF
	// Ctx is the per-packet instrumentation context passed to NFs.
	Ctx = core.Ctx
	// Verdict is an NF's forward/drop decision.
	Verdict = core.Verdict
	// Options selects baseline vs SpeedyBox and the two optimization
	// ablations.
	Options = core.Options
	// Engine is the SpeedyBox core: classifier, MATs and Event Table.
	Engine = core.Engine
	// PacketResult is the engine's per-packet accounting.
	PacketResult = core.PacketResult
	// FlowStates declares an NF's per-flow state — words on the flow
	// record the engine owns, frees with the flow and carries through
	// migration and checkpoints — and is the NF's view of it; an NF
	// that keeps any implements Stateful and reaches it through
	// Ctx.FlowState.
	FlowStates = core.FlowStates
	// Stateful is the optional NF interface declaring per-flow state.
	Stateful = core.Stateful
	// FlowState is one NF's words on one flow's record.
	FlowState = core.State
	// Stats aggregates engine counters over a run.
	Stats = core.Stats
)

// Live chain reconfiguration (DESIGN.md §12): a ChainPlan describes one
// insert/remove/replace/reorder, Engine.Reconfigure applies it with
// epoch-based rule invalidation, and Platform.Reconfigure applies it
// without stopping traffic.
type (
	// ChainPlan is one live chain change.
	ChainPlan = core.ChainPlan
	// ReconfigOp selects the plan operation.
	ReconfigOp = core.ReconfigOp
)

// Chain-plan operations.
const (
	OpInsert  = core.OpInsert
	OpRemove  = core.OpRemove
	OpReplace = core.OpReplace
	OpReorder = core.OpReorder
)

// Reconfiguration errors (match with errors.Is).
var (
	ErrPlanInvalid     = core.ErrPlanInvalid
	ErrPlanDuplicateNF = core.ErrPlanDuplicateNF
	ErrPlanEmptyChain  = core.ErrPlanEmptyChain
	ErrPlanOutOfRange  = core.ErrPlanOutOfRange
	ErrPlanUnknownNF   = core.ErrPlanUnknownNF
	ErrReconfigAborted = core.ErrReconfigAborted
)

// Verdicts.
const (
	VerdictForward = core.VerdictForward
	VerdictDrop    = core.VerdictDrop
)

// Fault-injection types: deterministic, seedable control-plane chaos.
// Attach an injector via Options.Faults; the engine degrades affected
// flows to the always-correct slow path and recovers them with bounded
// backoff (DESIGN.md §10).
type (
	// FaultInjector decides, deterministically per seed, which
	// control-plane operations fail.
	FaultInjector = fault.Injector
	// FaultConfig seeds an injector and sets per-kind rates.
	FaultConfig = fault.Config
	// FaultKind enumerates the injectable fault classes.
	FaultKind = fault.Kind
)

// Fault kinds.
const (
	FaultNFError        = fault.KindNFError
	FaultInstallFail    = fault.KindInstallFail
	FaultEventStorm     = fault.KindEventStorm
	FaultRecomputeDelay = fault.KindRecomputeDelay
	FaultRecomputeDrop  = fault.KindRecomputeDrop
	FaultBackendFlap    = fault.KindBackendFlap
	FaultEvictPressure  = fault.KindEvictPressure
	FaultReconfigAbort  = fault.KindReconfigAbort
	FaultCrashRestore   = fault.KindCrashRestore
	FaultMigrationAbort = fault.KindMigrationAbort
)

// Fault-injection constructors.
var (
	// NewFaultInjector builds a seeded injector.
	NewFaultInjector = fault.New
	// UniformFaultRates rates every fault kind equally.
	UniformFaultRates = fault.UniformRates
	// FaultKinds lists every injectable kind.
	FaultKinds = fault.Kinds
)

// Durability (DESIGN.md §13): an attached WAL journals every Global
// MAT mutation; Engine.Checkpoint
// snapshots the restorable state at a recorded log position and
// Engine.Restore rebuilds a fresh engine from a checkpoint plus the
// journal suffix, replaying transactionally so a torn tail is
// discarded whole.
type (
	// WAL is the group-commit write-ahead log; attach one via
	// Engine.AttachWAL before traffic flows.
	WAL = wal.Writer
	// WALOptions configures group-commit size, the durable byte sink
	// and the sync observer.
	WALOptions = wal.Options
	// WALRecord is one journaled control-plane mutation.
	WALRecord = wal.Record
	// Checkpoint is a consistent snapshot of the engine's restorable
	// state, serializable with Encode/DecodeCheckpoint.
	Checkpoint = wal.Checkpoint
	// Snapshotter is the optional NF interface for including NF state
	// in checkpoints.
	Snapshotter = core.Snapshotter
)

// Durability constructors and errors.
var (
	// NewWAL builds a write-ahead log writer.
	NewWAL = wal.NewWriter
	// DecodeCheckpoint parses an encoded checkpoint (ErrBadCheckpoint
	// on corruption — a damaged checkpoint has no usable prefix).
	DecodeCheckpoint = wal.DecodeCheckpoint
	// ErrBadCheckpoint reports a corrupt or truncated checkpoint blob.
	ErrBadCheckpoint = wal.ErrBadCheckpoint
	// ErrNilCheckpoint reports Restore called without a checkpoint.
	ErrNilCheckpoint = core.ErrNilCheckpoint
	// ErrPlatformClosed reports a platform used after Close.
	ErrPlatformClosed = platform.ErrClosed
)

// Packet and flow types.
type (
	// Packet is a packet descriptor backed by a real frame buffer.
	Packet = packet.Packet
	// PacketSpec describes a packet to synthesize.
	PacketSpec = packet.Spec
	// FiveTuple is the flow key.
	FiveTuple = packet.FiveTuple
	// Field identifies a modifiable header field.
	Field = packet.Field
	// FID is the 20-bit flow identifier.
	FID = flow.FID
)

// Transport protocol numbers for PacketSpec.Proto.
const (
	ProtoTCP = packet.ProtoTCP
	ProtoUDP = packet.ProtoUDP
)

// Header fields usable in Modify actions.
const (
	FieldSrcMAC  = packet.FieldSrcMAC
	FieldDstMAC  = packet.FieldDstMAC
	FieldSrcIP   = packet.FieldSrcIP
	FieldDstIP   = packet.FieldDstIP
	FieldTTL     = packet.FieldTTL
	FieldDSCP    = packet.FieldDSCP
	FieldSrcPort = packet.FieldSrcPort
	FieldDstPort = packet.FieldDstPort
)

// MAT types: the recorded behaviours and consolidated rules.
type (
	// HeaderAction is one of the five standardized header actions.
	HeaderAction = mat.HeaderAction
	// StateFunc is a declared state function: name, payload class and a
	// body — adds to the flow's words and a Price (data), or a handler
	// over the flow's StateArgs and the packet.
	StateFunc = sfunc.Func
	// StateAdd is one add of a state function declared as data.
	StateAdd = sfunc.Add
	// Price names the cost-model primitive a state function declared as
	// data is charged.
	Price = cost.Price
	// StateArgs is what a state function runs on: the flow, its NF's
	// state words and the cost model.
	StateArgs = sfunc.Args
	// PayloadClass describes payload interaction (Table I).
	PayloadClass = sfunc.PayloadClass
	// Event is a declared Event Table (condition -> update) pair over an
	// NF's state words, its condition a word and a threshold; NFs
	// register it for a flow by index.
	Event = event.Event
	// GlobalRule is a consolidated fast-path rule.
	GlobalRule = mat.GlobalRule
)

// Payload classes.
const (
	ClassIgnore = sfunc.ClassIgnore
	ClassRead   = sfunc.ClassRead
	ClassWrite  = sfunc.ClassWrite
)

// What a StateAdd adds to its word, and the prices a state function
// declared as data may name.
const (
	AddOne               = sfunc.One
	AddLength            = sfunc.Length
	PriceCounterUpdate   = cost.CounterUpdate
	PriceConnTrackLookup = cost.ConnTrackLookup
)

// Header-action constructors.
var (
	// Forward passes the packet unmodified.
	Forward = mat.Forward
	// Drop discards the packet.
	Drop = mat.Drop
	// Modify rewrites one header field.
	Modify = mat.Modify
	// Encap pushes an extra header.
	Encap = mat.Encap
	// Decap pops an extra header.
	Decap = mat.Decap
)

// Platform types.
type (
	// Platform is an execution platform hosting a chain: the engine,
	// its results priced on the BESS or the OpenNetVM topology.
	Platform = platform.Platform
	// Measurement is one packet's platform-level account.
	Measurement = platform.Measurement
	// RunResult aggregates a trace run.
	RunResult = platform.RunResult
	// Fleet is what a run drives: a Platform, a Topology or a Cluster,
	// each draining packets in arrival order through its own routing.
	Fleet = platform.Fleet
	// MultiQueue is an RSS-style runner: flows are hash-partitioned
	// across worker goroutines that drive the fleet concurrently.
	MultiQueue = platform.MultiQueue
	// Batch is per-worker scratch for the batched data path (rule
	// cache, pooled result and measurement storage).
	Batch = platform.Batch
	// PacketPool recycles packet descriptors so trace replay stops
	// allocating.
	PacketPool = packet.Pool
	// CostModel holds the calibrated cycle constants.
	CostModel = cost.Model
)

// Trace types.
type (
	// Trace is a generated packet trace.
	Trace = trace.Trace
	// TraceConfig controls trace synthesis.
	TraceConfig = trace.Config
	// AdversarialTraceConfig extends TraceConfig with hostile traffic
	// models: diurnal load, elephant/mice, SYN floods, event storms.
	AdversarialTraceConfig = trace.AdversarialConfig
)

// Multi-chain topologies (DESIGN.md §15): a Topology runs N named
// chains that share NF instances by name, classifies flows to chains
// and tenants by first-match policy, and isolates tenants from each
// other's fast-path resource consumption through per-tenant rule
// quotas and event caps.
type (
	// Topology is a built multi-chain, multi-tenant deployment.
	Topology = topo.Topology
	// TopologySpec is the declarative topology description.
	TopologySpec = topo.Spec
	// TopologyChainSpec is one named chain of a topology.
	TopologyChainSpec = topo.ChainSpec
	// TopologyPolicySpec is one flow-classification rule.
	TopologyPolicySpec = topo.PolicySpec
	// TenantSpec declares one tenant's isolation quotas.
	TenantSpec = topo.TenantSpec
	// TenantAdmission is the quota-enforcing core.Admission policy a
	// built topology shares across its chain engines.
	TenantAdmission = topo.TenantAdmission
	// TopologyBuildConfig configures topology construction.
	TopologyBuildConfig = topo.BuildConfig
	// Admission gates fast-path resource installs; set Options.Admission
	// to attach a custom policy to a single engine.
	Admission = core.Admission
	// NFSpec is the declarative NF notation used by chain and topology
	// specs.
	NFSpec = chainspec.NFSpec
)

// Engine clustering (DESIGN.md §17): a Cluster runs N engine instances
// behind a consistent-hash flow steerer keyed by home FID, and scaling
// the fleet live-migrates every reassigned flow — entry, consolidated
// rule and clock travel through the serialized migration record and
// commit transactionally on the new owner, with zero drops and zero
// verdict divergence.
type (
	// Cluster is an engine fleet behind the flow steerer.
	Cluster = cluster.Cluster
	// ClusterConfig configures a cluster.
	ClusterConfig = cluster.Config
	// ClusterInstanceStatus is one instance's status-rollup row.
	ClusterInstanceStatus = cluster.InstanceStatus
)

// Cluster constructors and errors (match errors with errors.Is).
var (
	// NewCluster builds an engine fleet over a shared chain.
	NewCluster = cluster.New
	// AdviseClusterInstances is the pure autoscaling hint over observed
	// per-worker queue depths.
	AdviseClusterInstances = cluster.AdviseInstances

	ErrClusterConfig           = cluster.ErrBadConfig
	ErrClusterUnknownInstance  = cluster.ErrUnknownInstance
	ErrClusterLastInstance     = cluster.ErrLastInstance
	ErrClusterScale            = cluster.ErrBadScale
	ErrClusterMigrationAborted = cluster.ErrMigrationAborted
)

// Topology spec errors (match with errors.Is).
var (
	ErrTopoSpecInvalid        = topo.ErrSpecInvalid
	ErrTopoNoChains           = topo.ErrNoChains
	ErrTopoDuplicateChain     = topo.ErrDuplicateChain
	ErrTopoPolicyUnknownChain = topo.ErrPolicyUnknownChain
	ErrTopoPolicyInvalid      = topo.ErrPolicyInvalid
	ErrTopoTenantInvalid      = topo.ErrTenantInvalid
	ErrTopoSharedNFMismatch   = topo.ErrSharedNFMismatch
)

// ParseTopology decodes and validates a JSON topology spec.
func ParseTopology(data []byte) (*TopologySpec, error) { return topo.Parse(data) }

// BuildTopology instantiates a topology: one labeled engine per chain,
// shared NF instances, compiled policies and the tenant admission
// policy.
func BuildTopology(spec *TopologySpec, cfg TopologyBuildConfig) (*Topology, error) {
	return topo.Build(spec, cfg)
}

// GenerateAdversarialTrace synthesizes a trace under the adversarial
// traffic models.
func GenerateAdversarialTrace(cfg AdversarialTraceConfig) (*Trace, error) {
	return trace.GenerateAdversarial(cfg)
}

// DefaultOptions returns full SpeedyBox: recording, consolidation,
// events and Table-I parallel state-function execution.
func DefaultOptions() Options { return core.DefaultOptions() }

// BaselineOptions returns the unmodified original chain, the paper's
// comparison baseline.
func BaselineOptions() Options { return core.BaselineOptions() }

// DefaultModel returns the calibrated cycle-cost model (2.0 GHz Xeon
// E5-2660 v4 class, per the paper's testbed).
func DefaultModel() *CostModel { return cost.DefaultModel() }

// NewBESS builds a BESS-style run-to-completion platform: the whole
// chain executes in one process on one core (paper §VI-A). There is no
// chain-length limit.
func NewBESS(chain []NF, opts Options) (*Platform, error) {
	return bess.New(bess.Config{Chain: chain, Options: opts})
}

// NewONVM builds an OpenNetVM-style platform (paper §VI-A): the model of
// one dedicated core per NF connected by shared-memory rings, with the
// classifier and the Global MAT at the NF manager. Packets run the same
// engine as on BESS; the platform prices them on that topology. Chains
// are limited to 5 NFs by the modeled 14-core budget (paper §VII-B2).
func NewONVM(chain []NF, opts Options) (*Platform, error) {
	return onvm.New(onvm.Config{Chain: chain, Options: opts})
}

// Run feeds every packet of a trace through the fleet, one packet per
// vector, and aggregates measurements: it is RunBatch with a batch
// size of 1.
func Run(f Fleet, pkts []*Packet) (*RunResult, error) {
	return platform.Run(f, pkts)
}

// RunBatch feeds a trace through the fleet — a Platform, a Topology or
// a Cluster — in batchSize-packet vectors (0 picks the canonical 32; 1
// is a vector of one): ProcessBatch amortizes classification, rule
// lookups, allocations and counter updates across each vector while
// preserving arrival order. The vector size changes performance, never
// results. A non-nil pool receives every packet back after
// measurement, so pooled trace replay recycles descriptors. On an
// error the result still aggregates every completed packet.
func RunBatch(f Fleet, pkts []*Packet, batchSize int, pool *PacketPool) (*RunResult, error) {
	return platform.RunBatch(f, pkts, batchSize, pool)
}

// NewBatch returns per-worker batch scratch for Platform.ProcessBatch
// (0 picks the canonical 32-packet vector size).
func NewBatch(n int) *Batch { return platform.NewBatch(n) }

// NewPacketPool returns an empty descriptor pool; Get/Clone draw
// recycled packets and Put returns them.
func NewPacketPool() *PacketPool { return packet.NewPool() }

// NewMultiQueue wraps a fleet — a Platform, a Topology or a Cluster —
// with a workers-way RSS dispatcher: MultiQueue.Run hash-partitions
// flows across the workers (parsing descriptors on demand), preserving
// per-flow packet order while disjoint flows are processed in parallel
// on the engines' FID-sharded state. Each worker drains its queue in
// arrival order through the fleet's routing, in vectors of one until
// SetBatchSize picks a larger vector; Run returns the aggregate of
// every completed packet even alongside an error.
func NewMultiQueue(f Fleet, workers int) (*MultiQueue, error) {
	return platform.NewMultiQueue(f, workers)
}

// Telemetry types. A Telemetry hub collects sharded metrics, latency
// histograms and a control-plane flight recorder; pass one via
// Options.Telemetry to instrument an engine, and serve it with
// NewTelemetryServer (endpoints: /metrics in Prometheus text format,
// /statusz as JSON with the flight-recorder tail, /debug/pprof).
type (
	// Telemetry is a metrics registry plus flight recorder shared by an
	// engine and its platform wrappers.
	Telemetry = telemetry.Hub
	// TelemetryServer is the admin HTTP endpoint over a hub.
	TelemetryServer = telemetry.Server
	// TelemetryStatus is the /statusz snapshot shape.
	TelemetryStatus = telemetry.StatusSnapshot
	// FlightRecord is one journaled control-plane transition.
	FlightRecord = telemetry.Record
)

// NewTelemetry returns an empty telemetry hub.
func NewTelemetry() *Telemetry { return telemetry.NewHub() }

// NewTelemetryServer binds addr (e.g. ":8080", or "127.0.0.1:0" for an
// ephemeral port) and serves the hub's admin endpoints until Close.
func NewTelemetryServer(addr string, hub *Telemetry) (*TelemetryServer, error) {
	return telemetry.NewServer(addr, hub)
}

// GenerateTrace synthesizes a deterministic datacenter-style trace.
func GenerateTrace(cfg TraceConfig) (*Trace, error) {
	return trace.Generate(cfg)
}

// BuildPacket synthesizes one checksum-correct packet.
func BuildPacket(spec PacketSpec) (*Packet, error) {
	return packet.Build(spec)
}
