package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/errcode"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// Options configures an Engine.
type Options struct {
	// Model is the cycle-cost model; nil selects cost.DefaultModel.
	Model *cost.Model
	// EnableSpeedyBox turns on recording, consolidation and the fast
	// path. When false the engine is the unmodified baseline chain.
	EnableSpeedyBox bool
	// ConsolidateHeaders enables header-action consolidation on the
	// fast path. Disabling it (with EnableSpeedyBox on) gives the
	// SF-parallelism-only ablation of Figure 7: header work is priced
	// as if each NF still applied its own actions.
	ConsolidateHeaders bool
	// ParallelSF enables Table-I parallel state-function execution.
	// Disabling it gives the header-consolidation-only ablation.
	ParallelSF bool
	// Telemetry attaches the engine to a runtime-telemetry hub:
	// per-path work histograms, MAT churn counters and flight-recorder
	// journaling. Nil disables telemetry (zero per-packet overhead).
	Telemetry *telemetry.Hub
	// Faults attaches a fault injector: the control plane consults it
	// at rule installs, event recomputations, NF hops and per-packet
	// table pressure, and degrades affected flows to the slow path
	// (see internal/fault). Nil disables injection entirely, with zero
	// data-path overhead.
	Faults *fault.Injector
	// Admission attaches a tenant-isolation policy: fresh rule
	// installs and event registrations are gated through it (see the
	// Admission interface). Nil admits everything with zero overhead.
	Admission Admission
	// ChainLabel, when set, is appended as a {chain="..."} label to
	// every engine metric name, so several chain engines sharing one
	// telemetry hub (a multi-chain topology) keep distinct series
	// instead of silently merging into one.
	ChainLabel string
}

// DefaultOptions returns full SpeedyBox: both optimizations on.
func DefaultOptions() Options {
	return Options{EnableSpeedyBox: true, ConsolidateHeaders: true, ParallelSF: true}
}

// BaselineOptions returns the unmodified original chain.
func BaselineOptions() Options { return Options{} }

// Sentinel errors. Each carries a registered errcode code so
// API-visible failures resolve to machine-assertable codes
// (errcode.CodeOf) while errors.Is identity matching is unchanged.
var (
	// ErrEmptyChain reports an engine built with no NFs.
	ErrEmptyChain = errcode.Sentinel("core.empty_chain", "core: empty service chain")
	// ErrDuplicateNF reports two NFs sharing a name.
	ErrDuplicateNF = errcode.Sentinel("core.duplicate_nf", "core: duplicate NF name")
	// ErrNFFailed wraps NF processing errors.
	ErrNFFailed = errcode.Sentinel("core.nf_failed", "core: NF processing failed")
	// ErrBadModel reports an engine built over an invalid cost model.
	ErrBadModel = errcode.Sentinel("core.bad_cost_model", "core: invalid cost model")
	// ErrNFIndex reports a ProcessNF index outside the live chain.
	ErrNFIndex = errcode.Sentinel("core.nf_index_out_of_range", "core: NF index out of range")
	// ErrUnknownEventNF reports an event firing from an NF absent from
	// the live chain snapshot.
	ErrUnknownEventNF = errcode.Sentinel("core.event_unknown_nf", "core: event from unknown NF")
)

// statsShardCount is the number of counter shards (power of two). A
// vector's packet counters land in the shard its Batch was dealt and
// the rare per-flow ones in the FID's, so workers of the multi-queue
// platform mostly hit distinct cache lines; Stats() sums the shards.
const statsShardCount = 32

// statsShardCore is one block of engine counters, updated with
// atomics — never a lock — on the per-packet accounting path.
type statsShardCore struct {
	packets, initial, subsequent, handshake, final  atomic.Uint64
	fastPath, slowPath, dropped                     atomic.Uint64
	eventsFired, consolidations                     atomic.Uint64
	slowFallbacks, degradedPackets, faultRecoveries atomic.Uint64
	ruleQuotaDenied, eventCapDenied                 atomic.Uint64
}

// statsShard pads the counters to a cache-line multiple against false
// sharing, sized from the real field layout so adding a counter can
// never silently leave two shards sharing a line.
type statsShard struct {
	statsShardCore
	_ [(cacheLine - unsafe.Sizeof(statsShardCore{})%cacheLine) % cacheLine]byte
}

// cacheLine is the coherence granule the shard padding targets.
const cacheLine = 64

// Engine wires a service chain to the SpeedyBox machinery. It is safe
// for concurrent use: the pipelined ONVM platform classifies,
// processes and consolidates from different goroutines, and the
// multi-queue platform calls ProcessBatch from one worker per RSS
// queue, each on its own Batch. A flow's state — tracking, rule,
// recording, events, recording claim — is its one entry in the flow
// table, which is sharded by FID as the counters and the ladder are, so
// workers handling disjoint flows do not contend.
type Engine struct {
	model *cost.Model
	opts  Options
	// cur is the live chain snapshot: the NF sequence and the chain
	// epoch, immutable once published.
	// Reconfigure swaps in a fresh snapshot atomically; data-path code
	// loads the pointer once per packet (or per batch element) and works
	// against that consistent view for the whole traversal.
	cur atomic.Pointer[chainState]
	// reconfigMu serializes Reconfigure: plan validation, epoch advance,
	// snapshot publication and the stale sweep form one critical section.
	reconfigMu sync.Mutex
	global     *mat.Global
	events     *event.Table
	class      *classifier.Classifier
	// hasRule is the classifier's Global MAT probe, built once at
	// construction (nil when SpeedyBox is disabled) so Classify does
	// not allocate a closure per packet.
	hasRule func(flow.FID) bool

	stats [statsShardCount]statsShard

	// faults is the optional injector (Options.Faults); nil means no
	// injection. All injection sites guard on the nil check.
	faults *fault.Injector
	// admission is the optional tenant-isolation policy
	// (Options.Admission); nil admits everything. Consulted only at
	// control-plane sites (consolidation, event registration,
	// teardown), never per fast-path packet.
	admission Admission
	// degraded is the graceful-degradation ladder (degrade.go).
	degraded [degradeShardCount]degradeShard

	// tel is the pre-resolved telemetry metric set, nil when
	// Options.Telemetry is unset. Hot paths guard every use with a
	// single nil check.
	tel *engineTelemetry

	// wal is the attached write-ahead log (persist.go), nil when
	// durability is off. Journaling happens inside the Global MAT and
	// Event Table via their journal hooks, never on the per-packet
	// data path.
	wal *wal.Writer

	// lastCheckpoint is the unix-nanosecond stamp of the most recent
	// successful Checkpoint (0 = never), read at scrape time by the
	// speedybox_checkpoint_age_seconds gauge and by daemon status.
	lastCheckpoint atomic.Int64

	// scalar pools the one-packet Batches behind ProcessPacket. The pool
	// is per engine: a Batch's flow handles and cached rules validate
	// against this engine's table generations only.
	scalar sync.Pool
}

// NewEngine builds an engine over the chain.
func NewEngine(chain []NF, opts Options) (*Engine, error) {
	if len(chain) == 0 {
		return nil, ErrEmptyChain
	}
	if opts.Model == nil {
		opts.Model = cost.DefaultModel()
	}
	if err := opts.Model.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadModel, err)
	}
	seen := make(map[string]bool, len(chain))
	for _, nf := range chain {
		if seen[nf.Name()] {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateNF, nf.Name())
		}
		seen[nf.Name()] = true
	}
	flows := flow.NewTable()
	e := &Engine{
		model:  opts.Model,
		opts:   opts,
		global: mat.NewGlobal(flows),
		events: event.NewTable(flows),
		class:  classifier.New(flows),
	}
	e.cur.Store(e.newChainState(chain, 0))
	e.events.SetJournal(e.eventRegistered)
	e.scalar.New = func() any { return NewBatch(1) }
	e.initLadder()
	e.faults = opts.Faults
	e.admission = opts.Admission
	if opts.EnableSpeedyBox {
		// LookupLive, not Lookup: a stale-marked rule must classify the
		// flow's packets as initial (re-record) rather than subsequent
		// (serve the outdated rule).
		e.hasRule = func(fid flow.FID) bool {
			_, ok := e.global.LookupLive(fid)
			return ok
		}
	}
	if opts.Telemetry != nil {
		e.tel = newEngineTelemetry(e, opts.Telemetry, opts.ChainLabel)
	}
	return e, nil
}

// statsFor returns the counter shard owning a FID.
func (e *Engine) statsFor(fid flow.FID) *statsShard {
	return &e.stats[uint32(fid)&(statsShardCount-1)]
}

// releaseRuleBudget returns the flow's rule admission budget (no-op
// without an admission policy). Called wherever the engine discards
// the flow's consolidated state, whether or not a rule was installed:
// an admitted-but-never-installed reservation (install fault,
// unconsolidatable actions) must not leak.
func (e *Engine) releaseRuleBudget(fid flow.FID) {
	if e.admission != nil {
		e.admission.ReleaseRule(fid)
	}
}

// releaseEventBudget returns the flow's event admission budget (no-op
// without an admission policy). Called wherever the engine empties the
// flow's Event Table entry.
func (e *Engine) releaseEventBudget(fid flow.FID) {
	if e.admission != nil {
		e.admission.ReleaseEvents(fid)
	}
}

// TryBeginRecording is the recording gate every initial packet passes,
// on the run-to-completion ladder and at the ONVM RX thread alike: a
// flow on the degradation ladder may only retry recording once its
// backoff deadline has passed (until then its packets are counted as
// degraded and stay on the slow path without burning consolidation
// work), and when several initial packets of one flow are in flight
// concurrently only the first claims the gate, a bit of the flow's entry
// — a second recorder would publish over the first's recording. The
// losers traverse the chain without recording, which is always correct.
// A true return must be paired with EndRecording. The baseline engine
// never records.
func (e *Engine) TryBeginRecording(fid flow.FID) bool {
	if !e.opts.EnableSpeedyBox {
		return false
	}
	if !e.recordingAllowed(fid) {
		e.countDegradedPacket(fid)
		return false
	}
	h, ok := e.class.Flows().AcquireFID(fid)
	return ok && h.Claim()
}

// EndRecording releases the flow's recording gate.
func (e *Engine) EndRecording(fid flow.FID) {
	if h, ok := e.class.Flows().AcquireFID(fid); ok {
		h.Unclaim()
	}
}

// Model returns the engine's cost model.
func (e *Engine) Model() *cost.Model { return e.model }

// Options returns the engine's configuration.
func (e *Engine) Options() Options { return e.opts }

// state returns the live chain snapshot. Callers traversing the chain
// load it once and use the same snapshot throughout, so a concurrent
// Reconfigure never shears a traversal.
func (e *Engine) state() *chainState { return e.cur.Load() }

// ChainLen returns the number of NFs in the live chain.
func (e *Engine) ChainLen() int { return len(e.state().chain) }

// ChainNames returns the live chain's NF names in order.
func (e *Engine) ChainNames() []string {
	cs := e.state()
	out := make([]string, len(cs.chain))
	for i, nf := range cs.chain {
		out[i] = nf.Name()
	}
	return out
}

// Epoch returns the current chain epoch (bumped by Reconfigure).
func (e *Engine) Epoch() uint64 { return e.global.Epoch() }

// DegradedFlows returns how many flows currently sit on the
// degradation ladder (slow-path only, awaiting rule reinstallation).
func (e *Engine) DegradedFlows() int { return e.degradedLen() }

// Global exposes the Global MAT (tests and platforms).
func (e *Engine) Global() *mat.Global { return e.global }

// Events exposes the Event Table.
func (e *Engine) Events() *event.Table { return e.events }

// Telemetry returns the hub this engine reports into, nil when
// telemetry is disabled. Platform wrappers use it to register their
// own metrics alongside the engine's.
func (e *Engine) Telemetry() *telemetry.Hub {
	if e.tel == nil {
		return nil
	}
	return e.tel.hub
}

// Stats returns a snapshot of the engine counters, folded across the
// counter shards. Counters are updated with atomics, so a snapshot
// taken while packets are in flight is internally consistent per
// counter but not across counters (Packets may momentarily exceed the
// sum of the kind counters, never the reverse by more than the number
// of in-flight packets).
func (e *Engine) Stats() Stats {
	var s Stats
	for i := range e.stats {
		sh := &e.stats[i]
		s.Packets += sh.packets.Load()
		s.Initial += sh.initial.Load()
		s.Subsequent += sh.subsequent.Load()
		s.Handshake += sh.handshake.Load()
		s.Final += sh.final.Load()
		s.FastPath += sh.fastPath.Load()
		s.SlowPath += sh.slowPath.Load()
		s.Dropped += sh.dropped.Load()
		s.EventsFired += sh.eventsFired.Load()
		s.Consolidations += sh.consolidations.Load()
		s.SlowPathFallbacks += sh.slowFallbacks.Load()
		s.DegradedPackets += sh.degradedPackets.Load()
		s.FaultRecoveries += sh.faultRecoveries.Load()
		s.RuleQuotaDenied += sh.ruleQuotaDenied.Load()
		s.EventCapDenied += sh.eventCapDenied.Load()
	}
	return s
}

// Faults returns the engine's fault injector, nil when injection is
// disabled (tests and CLI reporting).
func (e *Engine) Faults() *fault.Injector { return e.faults }

// Classify runs the Packet Classifier on one packet, deciding which
// path it takes. Exposed so pipelined platforms can run classification
// on a dedicated RX core. When the packet is a SYN restarting an
// already-tracked flow (5-tuple reuse without FIN/RST), the previous
// connection's consolidated rule, recording, events and
// NF-internal per-flow state are torn down here, before the new
// connection's packets can be routed — otherwise its established
// packets would classify as subsequent and execute the old
// connection's recorded actions.
func (e *Engine) Classify(pkt *packet.Packet) (classifier.Result, error) {
	res, err := e.class.Classify(pkt, e.hasRule)
	if err == nil && res.Reused {
		e.resetReusedFlow(res.FID)
	}
	return res, err
}

// resetReusedFlow tears down the consolidated state of the previous
// connection on a reused 5-tuple, and its NFs' per-flow state: the new
// connection starts every NF from zero. The flow-table entry itself
// stays (the classifier has already reset it to the handshake state).
func (e *Engine) resetReusedFlow(fid flow.FID) {
	removed := e.release(fid)
	if e.tel != nil {
		e.tel.flowResets.Inc()
		e.tel.rec.Append(telemetry.EvFlowReset, uint32(fid), CauseSynReuse)
		if removed {
			e.tel.ruleRemoved(uint32(fid), CauseSynReuse)
		}
	}
}

// ProcessNF runs the i-th NF on a slow-path packet, returning the
// verdict and the work cycles the NF charged. Pipelined platforms call
// it from per-NF goroutines, each on its own Batch (only the traversal
// scratch is used); PrepareRecording must have run first for recording
// packets. What the NF recorded is published to its position of the
// flow's recording when it returns without error.
func (e *Engine) ProcessNF(i int, fid flow.FID, pkt *packet.Packet, recording bool, b *Batch) (Verdict, uint64, error) {
	cs := e.state()
	if i < 0 || i >= len(cs.chain) {
		return 0, 0, fmt.Errorf("%w: %d", ErrNFIndex, i)
	}
	nf := cs.chain[i]
	t := b.slow
	t.ledger.Reset()
	ctx := e.beginTraversal(t, fid, pkt, recording, cs)
	ctx.nf, ctx.slot = nf.Name(), i
	v, err := nf.Process(ctx, pkt)
	if err != nil {
		return 0, t.ledger.Total(), fmt.Errorf("%w: %s: %w", ErrNFFailed, nf.Name(), err)
	}
	if len(ctx.acts) > 0 || len(ctx.funcs) > 0 {
		t.rules = append(t.rules[:0], mat.LocalRule{Actions: ctx.acts, Funcs: ctx.funcs})
		t.contribs = append(t.contribs[:0], mat.Contribution{Rule: &t.rules[0]})
		e.events.Publish(fid, cs.epoch, len(cs.chain), i, t.contribs)
	}
	return v, t.ledger.Total(), nil
}

// beginTraversal readies t's instrumentation context for one packet's
// walk over the chain snapshot: empty recording buffers, a fresh ledger
// span. The caller points ctx.nf at each NF in turn.
func (e *Engine) beginTraversal(t *traversal, fid flow.FID, pkt *packet.Packet, recording bool, cs *chainState) *Ctx {
	t.ledger.Begin()
	ctx := &t.ctx
	*ctx = Ctx{
		FID:       fid,
		Initial:   recording,
		Model:     e.model,
		ledger:    &t.ledger,
		events:    e.events,
		recording: recording,
		lay:       cs.lay,
		acts:      ctx.acts[:0],
		funcs:     ctx.funcs[:0],
		epoch:     cs.epoch,
		admit:     e.admission,
		tenant:    pkt.Meta.Tenant,
	}
	return ctx
}

// PrepareRecording drops the flow's recording — what its NFs recorded
// and the events they registered — and returns its event admission
// budget, so an initial packet re-records from scratch. The NFs'
// per-flow state is untouched.
func (e *Engine) PrepareRecording(fid flow.FID) {
	e.events.Remove(fid)
	e.releaseEventBudget(fid)
}

// dropConsolidated removes what consolidation built for the flow — the
// Global rule and the recording — and returns both admission budgets,
// reporting whether a rule was installed.
func (e *Engine) dropConsolidated(fid flow.FID) bool {
	removed := e.global.Remove(fid)
	e.PrepareRecording(fid)
	e.releaseRuleBudget(fid)
	return removed
}

// ConsolidateFlow snapshots the Local MATs and installs the Global MAT
// rule, returning the consolidation work cycles. A
// mat.ErrNotConsolidatable error means the flow stays on the slow
// path; the caller decides whether that is fatal.
func (e *Engine) ConsolidateFlow(fid flow.FID) (uint64, error) {
	return e.reconsolidate(fid, e.state())
}

// TeardownFlow removes all state for a finished flow (FIN/RST
// cleanup, §VI-B).
func (e *Engine) TeardownFlow(fid flow.FID) { e.teardown(fid, CauseFinTeardown) }

// Account folds a finished packet's result into the engine counters,
// for platforms that assemble results themselves (the ONVM pipeline)
// and so account once per packet outside ProcessBatch.
func (e *Engine) Account(res *PacketResult) {
	var d statsDelta
	d.add(res)
	e.statsFor(res.FID).fold(&d)
	if e.tel != nil {
		e.tel.accountPacket(res)
	}
}

// ProcessPacket classifies and processes one packet, returning the
// full accounting. The packet is mutated (or dropped) in place. It is
// ProcessBatch over a vector of one on a pooled Batch: the counters and
// the flow's bookkeeping are folded before it returns, and the result is
// caller-owned — a deep copy out of the Batch's storage.
func (e *Engine) ProcessPacket(pkt *packet.Packet) (*PacketResult, error) {
	b := e.scalar.Get().(*Batch)
	defer e.scalar.Put(b)
	vec := [1]*packet.Packet{pkt}
	out, err := e.ProcessBatch(vec[:], b)
	if err != nil {
		return nil, err
	}
	return out[0].clone(), nil
}

// slowPath runs the packet through the original service chain,
// recording behaviour when requested, and writes the account into res,
// the packet's slot in b. It runs on b's traversal scratch: a packet
// that records nothing allocates nothing here. What the NFs record is
// gathered in the scratch and published to the flow's record only once
// the whole chain has run — a traversal cut short by an NF error, an
// injected NF crash or a refused event leaves no recording behind.
func (e *Engine) slowPath(fid flow.FID, pkt *packet.Packet, recording bool, res *PacketResult, b *Batch) error {
	cs := e.state()
	t := b.slow
	info := t.nextInfo()
	if e.opts.EnableSpeedyBox {
		// The SpeedyBox classifier hashed the 5-tuple and attached
		// metadata; the baseline has no such stage.
		info.ClassifierCycles = e.model.HashFID
	}
	if recording {
		// Re-recording an initial packet (e.g. several packets raced
		// in before consolidation) starts from a clean record.
		e.PrepareRecording(fid)
		if cap(t.rules) < len(cs.chain) {
			t.rules = make([]mat.LocalRule, len(cs.chain))
			t.contribs = make([]mat.Contribution, len(cs.chain))
		}
		t.rules, t.contribs = t.rules[:len(cs.chain)], t.contribs[:len(cs.chain)]
		for i, nf := range cs.chain {
			t.contribs[i] = mat.Contribution{NF: nf.Name()}
		}
	}

	verdict := VerdictForward
	// One Ctx serves the whole traversal; only the NF name is repointed
	// between hops.
	ctx := e.beginTraversal(t, fid, pkt, recording, cs)
	abortRecording := false
	for i, nf := range cs.chain {
		ctx.nf, ctx.slot = nf.Name(), i
		if e.faults != nil && e.faults.Should(fault.KindNFError, fid) {
			// Fault: the NF "crashes" before touching the packet and
			// restarts. The restarted NF reprocesses the hop
			// identically (its per-flow state was never lost, only the
			// in-flight attempt), but a recording in progress is
			// abandoned: a restarted NF's Local MAT contribution is
			// untrustworthy, so the flow is degraded and re-records
			// after backoff.
			info.FaultRestarts++
			abortRecording = true
			if e.tel != nil {
				e.tel.rec.Append(telemetry.EvFaultInject, uint32(fid), fault.KindNFError.String())
			}
		}
		nActs, nFuncs := len(ctx.acts), len(ctx.funcs)
		v, err := nf.Process(ctx, pkt)
		if err != nil {
			return fmt.Errorf("%w: %s: %w", ErrNFFailed, nf.Name(), err)
		}
		if len(ctx.acts) > nActs || len(ctx.funcs) > nFuncs {
			// Capacity-limited: a span never grows into the next NF's.
			t.rules[i] = mat.LocalRule{
				Actions: ctx.acts[nActs:len(ctx.acts):len(ctx.acts)],
				Funcs:   ctx.funcs[nFuncs:len(ctx.funcs):len(ctx.funcs)],
			}
			t.contribs[i].Rule = &t.rules[i]
		}
		if v == VerdictDrop {
			verdict = VerdictDrop
			info.DropIndex = i
			if !pkt.Dropped() {
				pkt.Drop()
			}
			break
		}
	}
	info.PerNF = t.ledger.Stages()

	*res = PacketResult{Path: PathSlow, Verdict: verdict, Slow: info}
	if recording && abortRecording {
		// Drop the recording (its events are all that left the scratch)
		// and park the flow on the ladder; a later initial packet
		// re-records from scratch.
		e.PrepareRecording(fid)
		e.degradeFlow(fid, CauseNFError)
		recording = false
	}
	if recording && ctx.eventDenied {
		// An event registration ran into the tenant's cap: serving a
		// consolidated rule without the event would skip the NF's
		// update, so abandon the recording (releasing whatever events
		// were admitted) and keep the flow on the slow path. Unlike a
		// fault this is not degradation-laddered — the flow simply
		// retries on its next initial packet, succeeding as soon as
		// the tenant's other flows release budget.
		e.PrepareRecording(fid)
		e.statsFor(fid).eventCapDenied.Add(1)
		recording = false
	}
	if recording {
		e.events.Publish(fid, cs.epoch, len(cs.chain), 0, t.contribs)
		if err := e.consolidate(fid, ctx.tenant, info, cs, t.contribs, false); err != nil {
			if !errors.Is(err, mat.ErrNotConsolidatable) {
				return err
			}
			// No rule is installed: the flow stays on the (always
			// correct) slow path, just without acceleration.
		}
	}
	res.WorkCycles = info.ClassifierCycles + res.NFWork() + info.ConsolidateCycles
	return nil
}

// consolidate builds the flow's Global MAT rule from its per-NF
// contributions under the given chain snapshot and installs it,
// charging the consolidation cost into info. The installed rule carries
// the snapshot's epoch: if a reconfiguration raced this traversal, the
// rule is born under the retired epoch and LookupLive never serves it.
// tenant attributes the install for admission (-1 = resolve the flow's
// recorded tenant). contribs names the chain's NFs and, fromRecord
// unset, points at what each recorded; with fromRecord the spans are
// the flow's record's, read in place. Either way the rule copies what it
// keeps.
func (e *Engine) consolidate(fid flow.FID, tenant int32, info *SlowPathInfo, cs *chainState, contribs []mat.Contribution, fromRecord bool) error {
	if e.admission != nil {
		if _, exists := e.global.Lookup(fid); !exists {
			// Only a flow's first install consumes quota; replacements
			// (event-driven reconsolidation, re-records over a stale
			// rule) reuse the admission already held. AdmitRule is
			// idempotent per FID, so a retry after an install fault
			// does not double-charge.
			if !e.admission.AdmitRule(tenant, fid) {
				// Refused: the flow stays on the (always correct) slow
				// path with nothing installed, marked or degraded, and
				// retries on its next initial packet.
				e.statsFor(fid).ruleQuotaDenied.Add(1)
				return nil
			}
		}
	}
	var rule *mat.GlobalRule
	var err error
	if fromRecord {
		rule, err = e.events.Consolidate(fid, cs.epoch, contribs)
	} else {
		rule, err = mat.Consolidate(fid, contribs)
	}
	contributed := 0
	for _, c := range contribs {
		if c.Rule != nil {
			contributed++
		}
	}
	if err != nil {
		if e.tel != nil && errors.Is(err, mat.ErrNotConsolidatable) {
			e.tel.unconsolidatable.Inc()
		}
		return err
	}
	rule.Epoch = cs.epoch
	rule.SetGuards(e.events.Guards(fid))
	// The merge work was done whether or not the install below lands.
	info.ConsolidateCycles = e.model.ConsolidateBase + e.model.ConsolidatePerNF*uint64(contributed)
	if e.faults != nil && e.faults.Should(fault.KindInstallFail, fid) {
		// Fault: the consolidated rule never reaches the Global MAT.
		// Any previously installed version now disagrees with the
		// recording and must stop being served; the flow degrades to
		// the slow path and retries the install after backoff. The
		// packet itself was processed by the full chain and is
		// correct.
		stale := e.global.MarkStale(fid)
		e.degradeFlow(fid, CauseInstallFault)
		if e.tel != nil {
			e.tel.rec.Append(telemetry.EvFaultInject, uint32(fid), fault.KindInstallFail.String())
			if stale {
				e.tel.rec.Append(telemetry.EvRuleStale, uint32(fid), CauseInstallFault)
			}
		}
		return nil
	}
	replaced := e.install(rule)
	// A Register that raced the snapshot either ran before the Install,
	// and shows here, or after, and its hook found the installed rule.
	if !e.events.Guarded(fid, rule.Guards()) {
		e.eventRegistered(fid)
	}
	if e.tel != nil {
		e.tel.ruleInstalled(uint32(fid), replaced)
	}
	e.clearDegraded(fid)
	if !replaced {
		e.maybeStorm(fid, cs)
	}
	return nil
}

// install prices the rule and puts it in the Global MAT, reporting
// whether it replaced one. What a packet served from the rule is
// charged is constant per rule under this engine's model and options,
// so it is worked out here, once, and the fast path reads two words.
// Every install goes through here: a rule restored from a checkpoint,
// the journal or another instance carries no price of its own.
func (e *Engine) install(rule *mat.GlobalRule) bool {
	m := e.model
	rule.FixedCycles = m.HashFID + m.FastPathBase + m.EventCheck + m.GMATLookup
	if !rule.Drop {
		rule.FixedCycles += m.FastPathPerHA * uint64(rule.SourceNFs)
	}
	rule.HeaderCycles = 0
	switch {
	case rule.Drop:
		rule.HeaderCycles = m.DropAction
	case e.opts.ConsolidateHeaders:
		rule.HeaderCycles = uint64(len(rule.Modifies))*m.ModifyField +
			uint64(len(rule.Stack.Decaps))*m.DecapHeader + uint64(len(rule.Stack.Encaps))*m.EncapHeader
		if _, _, ck := rule.HeaderWork(); ck {
			rule.HeaderCycles += m.ChecksumUpdate
		}
	default:
		// Ablation: price the header work as if every contributing NF
		// still parsed the packet and applied its own actions with its
		// own checksum update (redundancies R1 and R3 back in place).
		for _, s := range rule.Sources {
			rule.HeaderCycles += m.Parse + uint64(s.Modifies)*m.ModifyField +
				uint64(s.Encaps)*m.EncapHeader + uint64(s.Decaps)*m.DecapHeader
			if s.Modifies+s.Encaps+s.Decaps > 0 {
				rule.HeaderCycles += m.ChecksumUpdate
			}
		}
	}
	return e.global.Install(rule)
}

// eventRegistered is the Event Table's registration hook, run inside the
// registering Edit of the flow's entry: the installed rule's guards no
// longer list every condition, so the flow's very next packet asks the
// table.
func (e *Engine) eventRegistered(fid flow.FID) {
	if r, ok := e.global.Lookup(fid); ok {
		r.SetGuards(event.AskTable)
	}
	// The log (a nil writer ignores it) learns the rule is not restorable.
	e.wal.Append(wal.Record{Type: wal.RecEventRegister, FID: fid, Epoch: e.global.Epoch()})
}

// maybeStorm is the event-storm fault: a burst of always-true no-op
// events registered against a freshly consolidated flow, forcing a
// reconsolidation on every fast-path packet until teardown. The no-op
// updates keep the rule semantically unchanged (the oracle proves it),
// but churn version counters, replacement metrics and the event
// tables — exactly the load a misbehaving condition handler creates.
func (e *Engine) maybeStorm(fid flow.FID, cs *chainState) {
	if e.faults == nil || !e.faults.Should(fault.KindEventStorm, fid) {
		return
	}
	nf := cs.chain[0].Name()
	for i := 0; i < 3; i++ {
		err := e.events.Register(fid, event.Event{
			NF:        nf,
			Condition: func(flow.FID) bool { return true },
			Update:    func(flow.FID, *mat.LocalRule) {},
			Epoch:     cs.epoch,
		})
		if err != nil {
			break // the per-flow cap bounds the storm
		}
	}
	if e.tel != nil {
		e.tel.rec.Append(telemetry.EvFaultInject, uint32(fid), fault.KindEventStorm.String())
	}
}

// evictConsolidated is the eviction-pressure fault: the flow's
// consolidated state (Global rule, recording, events) is
// dropped as if the tables ran out of space. Flow tracking and the NFs'
// per-flow state (NAT bindings, LB pins) survive — a real eviction
// does not reach into NFs — so the next packet re-records the same
// behaviour.
func (e *Engine) evictConsolidated(fid flow.FID) {
	removed := e.dropConsolidated(fid)
	if e.tel != nil {
		e.tel.rec.Append(telemetry.EvFaultInject, uint32(fid), fault.KindEvictPressure.String())
		e.tel.rec.Append(telemetry.EvFlowEvict, uint32(fid), CauseFaultEvict)
		if removed {
			e.tel.ruleRemoved(uint32(fid), CauseFaultEvict)
		}
	}
}

// reconsolidate rebuilds the flow's rule from its record against the
// given chain snapshot — after event updates, the snapshot the firings
// were validated under.
func (e *Engine) reconsolidate(fid flow.FID, cs *chainState) (uint64, error) {
	contribs := make([]mat.Contribution, len(cs.chain))
	for i, nf := range cs.chain {
		contribs[i].NF = nf.Name()
	}
	var info SlowPathInfo
	if err := e.consolidate(fid, -1, &info, cs, contribs, true); err != nil {
		return 0, err
	}
	return info.ConsolidateCycles, nil
}

// FastProcess runs the consolidated fast path for a subsequent packet,
// exposed for platforms that dispatch fast-path packets from their own
// cores (the ONVM manager) and account the result themselves. b is the
// calling core's Batch: the packet runs as its vector of one, on its
// FID-keyed scratch context, and the result is a caller-owned copy, as
// ProcessPacket's is.
func (e *Engine) FastProcess(fid flow.FID, pkt *packet.Packet, b *Batch) (*PacketResult, error) {
	b.begin(1)
	if err := e.fastPathInto(b.scratchFor(e.class.Flows(), fid), pkt, &b.info[0], &b.res[0], b); err != nil {
		return nil, err
	}
	return b.res[0].clone(), nil
}

// fastPathInto applies the consolidated rule, writing into the packet's
// (zeroed) info and res slots of b — per-worker arrays, so steady-state
// fast-path packets allocate nothing. fc is the flow's context: the rule
// is read off the entry its handle already points at, and both Event
// Table checks are made off the rule's guards, so only a flow with a
// guard that holds takes the table's locked probe. On a rule miss the
// packet falls back to the slow path, which fills res instead.
func (e *Engine) fastPathInto(fc *flowCtx, pkt *packet.Packet, info *FastPathInfo, res *PacketResult, b *Batch) error {
	m := e.model

	// Event pre-check: a previously-satisfied condition updates the rule
	// before this packet is processed (§III) — or revives a stale one.
	rule := e.global.Live(fc.h)
	if rule == nil || event.Holds(rule.Guards(), fc.fid) {
		fired, err := e.fireEvents(fc.fid, info)
		if err != nil {
			return err
		}
		if fired {
			// The rule was rebuilt; the fresh lookup sees it.
			info.FixedCycles += m.GMATLookup
		}
		rule = e.global.Live(fc.h)
	}
	if rule == nil {
		// The rule vanished (torn down or fault-evicted concurrently)
		// or went stale (failed install, lost recomputation). Fall
		// back to the original chain, which is always correct; the
		// flow re-records via the degradation ladder.
		e.countFallback(fc.fid)
		return e.slowPath(fc.fid, pkt, false, res, b)
	}
	// The rule carries its price (install).
	info.FixedCycles += rule.FixedCycles
	info.HeaderCycles = rule.HeaderCycles

	// State functions execute first, on the packet as it arrived at
	// the chain: payload-facing functions (the only kind with data
	// dependencies, per Table I) see the same bytes as on the original
	// path, and for consolidated drops the upstream NFs' functions
	// still observe the packet before it is discarded.
	if len(rule.Batches) > 0 {
		var exec sfunc.ExecResult
		var err error
		if e.opts.ParallelSF {
			exec, err = rule.Plan.Execute(rule.Batches, pkt, m.ForkJoin)
		} else {
			exec, err = sfunc.ExecuteSequential(rule.Batches, pkt)
		}
		if err != nil {
			return err
		}
		info.SF = exec
		info.BatchCount = len(rule.Batches)
		if e.opts.ParallelSF {
			// Worker dispatch overhead; sequential execution stays
			// inline and pays nothing extra.
			info.DispatchCycles = m.ForkJoin / 2 * uint64(len(rule.Batches))
		}
	}

	// Consolidated header work (functionally always the consolidated
	// rule; the ablation only changes the *charged* cost). ExecHeader
	// runs the rule's compiled action program — byte-identical to the
	// interpreted ApplyHeader, which it falls back to for uncompiled
	// rules.
	alive, err := rule.ExecHeader(pkt)
	if err != nil {
		return err
	}

	verdict := VerdictForward
	if !alive {
		verdict = VerdictDrop
	}

	// Post-execution event check: state updates from this packet may
	// arm a condition that changes processing for the next packet.
	if event.Holds(rule.Guards(), fc.fid) {
		if _, err := e.fireEvents(fc.fid, info); err != nil {
			return err
		}
	}

	res.Path = PathFast
	res.Verdict = verdict
	res.Fast = info
	// The "CPU cycle per packet" metric measures the primary
	// processing core, as the paper's rdtsc instrumentation does:
	// with parallel SF execution, worker-core cycles overlap the main
	// core's and only the critical path is observed. Sequential
	// execution keeps all SF work on the main core.
	// Batch dispatch (DispatchCycles) is scheduling overhead the
	// platform formulas account for; it is not NF-attributable work.
	sfCycles := info.SF.TotalCycles
	if e.opts.ParallelSF {
		sfCycles = info.SF.CriticalCycles
	}
	res.WorkCycles = info.FixedCycles + info.HeaderCycles + sfCycles +
		info.ReconsolidateCycles
	return nil
}

// fireEvents takes the Event Table's locked probe for the flow — the
// authority a rule's guards only summarize: it removes one-shot
// firings, applies the updates to the owning NFs' spans of the flow's
// record and reconsolidates, reporting whether anything fired.
func (e *Engine) fireEvents(fid flow.FID, info *FastPathInfo) (bool, error) {
	firings := e.events.Check(fid)
	if len(firings) == 0 {
		return false, nil
	}
	cs := e.state()
	for _, f := range firings {
		if f.Event.Epoch != cs.epoch {
			// The firings were registered under a retired chain: the
			// registering NF may no longer exist, and the flow's rule is
			// from the same epoch, so the caller's lookup misses anyway.
			// Drop the whole record — a flow's events and spans all share
			// one epoch (PrepareRecording wipes them before re-recording)
			// — and let the slow path re-record under the live chain.
			e.PrepareRecording(fid)
			return false, nil
		}
	}
	for _, f := range firings {
		at := cs.position(f.Event.NF)
		if at < 0 {
			return false, fmt.Errorf("%w: %q", ErrUnknownEventNF, f.Event.NF)
		}
		f.Apply(at, len(cs.chain))
		info.ReconsolidateCycles += e.model.EventFire
		if e.tel != nil {
			e.tel.rec.Append(telemetry.EvEventFire, uint32(fid), f.Event.NF)
		}
	}
	// Faults: the event updates are applied to the record (NF
	// state has already changed; the updates must not be lost), but
	// the Global-rule recomputation is dropped or delayed. The rule is
	// stale-marked so this packet's fresh lookup misses and falls back
	// to the slow path, which runs the NFs' new logic directly.
	if e.faults != nil {
		if e.faults.Should(fault.KindRecomputeDrop, fid) {
			stale := e.global.MarkStale(fid)
			e.degradeFlow(fid, CauseRecomputeDrop)
			if e.tel != nil {
				e.tel.rec.Append(telemetry.EvFaultInject, uint32(fid), fault.KindRecomputeDrop.String())
				if stale {
					e.tel.rec.Append(telemetry.EvRuleStale, uint32(fid), CauseRecomputeDrop)
				}
			}
			info.EventsFired += len(firings)
			return true, nil
		}
		if e.faults.Should(fault.KindRecomputeDelay, fid) {
			stale := e.global.MarkStale(fid)
			e.deferRetry(fid, CauseRecomputeDelay)
			if e.tel != nil {
				e.tel.rec.Append(telemetry.EvFaultInject, uint32(fid), fault.KindRecomputeDelay.String())
				if stale {
					e.tel.rec.Append(telemetry.EvRuleStale, uint32(fid), CauseRecomputeDelay)
				}
			}
			info.EventsFired += len(firings)
			return true, nil
		}
	}
	cycles, err := e.reconsolidate(fid, cs)
	switch {
	case err == nil:
		info.ReconsolidateCycles += cycles
	case errors.Is(err, mat.ErrNotConsolidatable):
		// The updated actions no longer fold into one rule: evict the
		// stale rule so this and future packets take the (always
		// correct) slow path instead of executing outdated actions.
		if e.global.Remove(fid) && e.tel != nil {
			e.tel.ruleRemoved(uint32(fid), CauseEventUnconsolidatable)
		}
		e.releaseRuleBudget(fid)
	default:
		return false, err
	}
	info.EventsFired += len(firings)
	return true, nil
}

// ExpireIdle tears down every flow that has been idle for more than
// idleFor classified packets (a logical-clock age), returning how many
// flows were expired. The paper's cleanup runs only on TCP FIN/RST
// (§VI-B), which never fires for UDP or abandoned flows; this
// extension bounds the MAT footprint for such traffic. Expired flows
// are not harmed: their next packet simply re-records as an initial
// packet.
func (e *Engine) ExpireIdle(idleFor uint64) int {
	now := e.class.Now()
	if now <= idleFor {
		return 0
	}
	stale := e.class.Flows().IdleSince(now - idleFor)
	for _, fid := range stale {
		e.teardown(fid, CauseIdleExpiry)
		if e.tel != nil {
			e.tel.rec.Append(telemetry.EvFlowEvict, uint32(fid), CauseIdleExpiry)
		}
	}
	return len(stale)
}

// teardown removes all state for a finished flow (§VI-B): what
// consolidation built, the ladder position, the NFs' per-flow state and
// the entry that held it all. The cause labels the removal in telemetry.
func (e *Engine) teardown(fid flow.FID, cause string) {
	removed := e.release(fid)
	e.class.Teardown(fid)
	if removed && e.tel != nil {
		e.tel.ruleRemoved(uint32(fid), cause)
	}
}
