package core

import (
	"errors"
	"fmt"
	"slices"
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
	// Admission attaches a tenant-isolation policy: the install of a
	// rule built from a traversal's recording is charged through it, for
	// the rule and its events (see the Admission interface). Nil admits
	// everything with zero overhead.
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
)

// statsShardCount is the number of counter shards (power of two). A
// vector's packet counters land in the shard its Batch was dealt and
// the rare per-flow ones in the FID's, so workers of the multi-queue
// platform mostly hit distinct cache lines; Stats() sums the shards.
const statsShardCount = 32

// statsShardCore is one block of engine counters, updated with
// atomics on the per-packet accounting path, and the shard's side of
// the packet-boundary fence (Engine.exclusive).
type statsShardCore struct {
	fence                                           sync.RWMutex
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
// for concurrent use: the multi-queue platform calls ProcessBatch from
// one worker per RSS queue, each on its own Batch, while the control
// plane reconfigures, checkpoints and expires flows. A flow's state is
// its one entry in the flow table, sharded by FID as the counters are,
// so workers of disjoint flows do not contend.
type Engine struct {
	model *cost.Model
	opts  Options
	// cur is the live chain snapshot, immutable once published:
	// Reconfigure swaps in a fresh one between vectors.
	cur    atomic.Pointer[chainState]
	global *mat.Global
	events *event.Table
	class  *classifier.Classifier

	// clock is the logical clock, one tick per classified packet: the unit
	// of the ladder's deadlines (§10). ProcessBatch publishes a vector's
	// ticks together (Engine.publish).
	clock atomic.Uint64

	stats [statsShardCount]statsShard

	// faults (Options.Faults) and admission (Options.Admission) are nil
	// when off; admission is consulted at control-plane sites only.
	faults    *fault.Injector
	admission Admission

	// tel is the pre-resolved telemetry metric set, nil when
	// Options.Telemetry is unset.
	tel *engineTelemetry

	// wal is the attached write-ahead log (persist.go), nil when
	// durability is off; the Global MAT's journal hook feeds it.
	wal *wal.Writer

	// lastCheckpoint is the unix-nanosecond stamp of the last successful
	// Checkpoint (0 = never).
	lastCheckpoint atomic.Int64

	// scalar pools ProcessPacket's one-packet Batches, per engine: a
	// Batch's handles validate against this engine's table only.
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
	e.scalar.New = func() any { return NewBatch(1) }
	e.faults = opts.Faults
	e.admission = opts.Admission
	if opts.Telemetry != nil {
		e.tel = newEngineTelemetry(e, opts.Telemetry, opts.ChainLabel)
	}
	return e, nil
}

// exclusive holds a packet boundary for a control-plane step, and so
// serialises the steps: it takes every shard's fence, waiting out the
// vectors in flight, and returns the release. The fence is not
// reentrant: no step calls another or ProcessBatch under it, and no NF
// calls a step. Lock order: cluster instance gate, fence, flow shard
// mutex, record lock.
func (e *Engine) exclusive() (release func()) {
	for i := range e.stats {
		e.stats[i].fence.Lock()
	}
	return func() {
		for i := range e.stats {
			e.stats[i].fence.Unlock()
		}
	}
}

// statsFor returns the counter shard owning a FID.
func (e *Engine) statsFor(fid flow.FID) *statsShard {
	return &e.stats[uint32(fid)&(statsShardCount-1)]
}

// tryBeginRecording is the recording gate every initial packet passes: a
// flow on the degradation ladder retries recording only once its backoff
// deadline has passed (its packets are counted as degraded until then),
// and of several in-flight initial packets of one flow only the first
// claims the gate, a bit of the flow's entry — a second recorder would
// publish over the first's recording; the losers traverse the chain
// without recording. Both are read off h, the entry the classification
// returned. A true return must be paired with h.Unclaim. The
// baseline engine never records.
func (e *Engine) tryBeginRecording(h flow.Handle) bool {
	if !e.opts.EnableSpeedyBox || h.Gone() {
		return false
	}
	if e.clock.Load() < event.RetryAt(h) {
		sh := e.statsFor(h.FID())
		sh.degradedPackets.Add(1)
		sh.slowFallbacks.Add(1)
		return false
	}
	return h.Claim()
}

// Model returns the engine's cost model.
func (e *Engine) Model() *cost.Model { return e.model }

// Options returns the engine's configuration.
func (e *Engine) Options() Options { return e.opts }

// state returns the live chain snapshot.
func (e *Engine) state() *chainState { return e.cur.Load() }

// ChainLen returns the number of NFs in the live chain.
func (e *Engine) ChainLen() int { return len(e.state().chain) }

// ChainNames returns the live chain's NF names in order.
func (e *Engine) ChainNames() []string { return wal.NamesOf(e.state().contribs) }

// Epoch returns the current chain epoch (bumped by Reconfigure).
func (e *Engine) Epoch() uint64 { return e.global.Epoch() }

// Global exposes the Global MAT (tests and platforms).
func (e *Engine) Global() *mat.Global { return e.global }

// Events exposes the Event Table.
func (e *Engine) Events() *event.Table { return e.events }

// Telemetry returns the hub this engine reports into, nil when
// telemetry is disabled.
func (e *Engine) Telemetry() *telemetry.Hub {
	if e.tel == nil {
		return nil
	}
	return e.tel.hub
}

// Stats returns a snapshot of the engine counters, folded across the
// counter shards: consistent per counter, not across counters, while
// packets are in flight.
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

// Faults returns the engine's fault injector, nil when disabled.
func (e *Engine) Faults() *fault.Injector { return e.faults }

// classify runs the Packet Classifier on one packet, filling res in
// place; the clock tick is ProcessBatch's to count (Engine.publish). A
// SYN restarting a tracked flow (5-tuple reuse without FIN/RST) tears
// the previous connection's rule, recording, events and NF state down
// here, or its established packets would run the old connection's
// recorded actions. A fast-shaped packet's stage record st keeps the
// handle, for the key's next packet of the vector (DESIGN §16).
func (e *Engine) classify(pkt *packet.Packet, st *staged, res *classifier.Result) error {
	err := e.class.ClassifyIn(pkt, e.serves, res)
	if err == nil && res.Reused {
		e.resetReusedFlow(res.Handle)
	}
	if err == nil && st.shaped && e.opts.EnableSpeedyBox {
		st.h = res.Handle
	}
	return err
}

// serves is the classifier's rule question, asked of the handle it has
// just found the flow by: a live rule makes the packet subsequent. The
// baseline engine serves none.
func (e *Engine) serves(h flow.Handle) bool {
	return e.opts.EnableSpeedyBox && e.global.Live(h) != nil
}

// resetReusedFlow ends the previous connection on a reused 5-tuple —
// consolidated state and NF state — keeping the entry, which the
// classifier has reset to the handshake state.
func (e *Engine) resetReusedFlow(h flow.Handle) {
	ed := e.class.Flows().EditHandle(h)
	removed := e.release(ed)
	ed.Done()
	if e.tel != nil {
		e.tel.flowResets.Inc()
		e.tel.rec.Append(telemetry.EvFlowReset, uint32(h.FID()), CauseSynReuse)
		if removed {
			e.tel.ruleRemoved(uint32(h.FID()), CauseSynReuse)
		}
	}
}

// beginTraversal readies t's instrumentation context for one packet's
// walk over the chain snapshot: empty recording buffers, a fresh ledger
// span. The caller points ctx.nf at each NF in turn.
func (e *Engine) beginTraversal(t *traversal, h flow.Handle, pkt *packet.Packet, recording bool, cs *chainState) *Ctx {
	t.ledger.Begin()
	ctx := &t.ctx
	*ctx = Ctx{
		FID:       h.FID(),
		Initial:   recording,
		Model:     e.model,
		h:         h,
		flows:     e.class.Flows(),
		ledger:    &t.ledger,
		events:    e.events,
		recording: recording,
		lay:       cs.lay,
		states:    ctx.states[:0],
		tenant:    pkt.Meta.Tenant,
	}
	return ctx
}

// dropConsolidated removes the rule of the flow under edit, with the
// recording and events it holds, refunding both budgets, and reports
// whether a rule was there.
func (e *Engine) dropConsolidated(ed flow.Edit) bool {
	removed := e.global.RemoveAt(ed)
	e.refund(ed)
	e.events.Remove(ed)
	return removed
}

// TeardownFlow removes all state for a finished flow (FIN/RST
// cleanup, §VI-B).
func (e *Engine) TeardownFlow(fid flow.FID) {
	e.teardown(e.class.Flows().Edit(fid, false), CauseFinTeardown)
}

// ProcessPacket classifies and processes one packet, mutating (or
// dropping) it in place: ProcessBatch over a vector of one on a pooled
// Batch, with the result deep-copied out for the caller.
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

// slowPath runs the packet, of kind, through the original service chain,
// recording behaviour when requested, and writes the account whole into
// res, the packet's slot in b, field by field: Fast zeroed, Slow pointing
// at an info of b's traversal scratch. It runs on that scratch; what the
// NFs record is published only once the whole chain has run, so a
// traversal cut short (an NF error, an injected crash) leaves no
// recording behind.
func (e *Engine) slowPath(h flow.Handle, kind classifier.Kind, pkt *packet.Packet, recording bool, res *PacketResult, b *Batch) error {
	cs := e.state()
	fid := h.FID()
	t := b.slow
	info := t.nextInfo()
	if e.opts.EnableSpeedyBox {
		// The baseline has no classifier stage.
		info.ClassifierCycles = e.model.HashFID
	}
	verdict := VerdictForward
	ctx := e.beginTraversal(t, h, pkt, recording, cs)
	if recording {
		if cap(t.spans) < len(cs.chain) {
			t.spans = make([]mat.LocalRule, len(cs.chain))
		}
		t.spans = t.spans[:len(cs.chain)]
		clear(t.spans)
	}
	abortRecording := false
	for i, nf := range cs.chain {
		ctx.nf, ctx.slot, ctx.decl = nf.Name(), i, cs.lay.Declared(i)
		if e.faults != nil && e.faults.Should(fault.KindNFError, fid) {
			// Fault: the NF crashes before touching the packet and
			// restarts, reprocessing the hop identically (its per-flow
			// state survives); a recording in progress is untrustworthy,
			// so it is abandoned and the flow re-records after backoff.
			info.FaultRestarts++
			abortRecording = true
			if e.tel != nil {
				e.tel.rec.Append(telemetry.EvFaultInject, uint32(fid), fault.KindNFError.String())
			}
		}
		nActs, nFuncs := len(ctx.acts), len(ctx.funcs)
		ctx.mark, ctx.fwd = nActs, false
		v, err := nf.Process(ctx, pkt)
		if err != nil {
			return fmt.Errorf("%w: %s: %w", ErrNFFailed, nf.Name(), err)
		}
		if len(ctx.acts) > nActs || len(ctx.funcs) > nFuncs || ctx.fwd {
			ctx.span(&t.spans[i], nActs, nFuncs)
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

	res.FID = fid
	res.Kind = kind
	res.Path = PathSlow
	res.Verdict = verdict
	res.Slow = info
	res.Fast = FastPathInfo{}
	res.TornDown = false
	if recording {
		ed := e.class.Flows().EditHandle(h)
		var err error
		if abortRecording {
			// The recording is dropped and the flow parked on the ladder.
			e.degrade(ed, CauseNFError, true)
		} else {
			rec := cs.recording(ctx, t.spans)
			err = e.consolidate(ed, ctx, info, cs, &rec)
		}
		ed.Done()
		if err != nil {
			return err
		}
	}
	res.WorkCycles = info.ClassifierCycles + res.NFWork() + info.ConsolidateCycles
	return nil
}

// consolidate builds the flow under edit's Global MAT rule from rec — the
// recording of the traversal on ctx with the events it registered, or
// (ctx nil) an event update's edited copy of the rule's with the events
// left — under the chain snapshot and installs it, charging the work
// into info. The rule carries the snapshot's epoch, so one racing a
// reconfiguration is never served. The install of a traversal's rule is
// the one place a tenant is charged (Engine.admit); a firing's rebuild is
// charged nothing. A refused set-up — a recording no rule can carry,
// an admission denial, an install fault — parks the flow on the ladder
// under its cause; of the refusals only a firing's unconsolidatable
// update is returned, for fireEvents. The build, the guards' binding,
// admission, the install and the ladder are one edit of the entry: a
// flow torn down under the traversal is charged and given nothing.
func (e *Engine) consolidate(ed flow.Edit, ctx *Ctx, info *SlowPathInfo, cs *chainState, rec *event.Recording) error {
	if !ed.Found() {
		return nil
	}
	fid := ed.Handle().FID()
	var blk *setupBlock
	if ctx != nil {
		blk = ctx.blk
	}
	rule, err := e.build(ed, cs, cs.epoch, rec, blk)
	refused := ""
	switch {
	case err == nil:
		if ctx != nil && e.admission != nil {
			refused = e.admit(ed, ctx.tenant, len(rec.Regs))
		}
	case errors.Is(err, mat.ErrNotConsolidatable):
		if e.tel != nil {
			e.tel.unconsolidatable.Inc()
		}
		if ctx == nil {
			return err
		}
		refused = CauseUnconsolidatable
	default:
		return err
	}
	if refused != "" {
		e.degrade(ed, refused, true)
		return nil
	}
	contributed := 0
	for _, sp := range rule.Spans {
		if sp.Actions != nil {
			contributed++
		}
	}
	// The merge work was done whether or not the install below lands.
	info.ConsolidateCycles = e.model.ConsolidateBase + e.model.ConsolidatePerNF*uint64(contributed)
	if e.faults != nil && e.faults.Should(fault.KindInstallFail, fid) {
		// Fault: the rule never reaches the Global MAT, and a previously
		// installed version, which disagrees with the recording, must
		// stop being served; the flow retries after backoff.
		e.markStale(ed, fault.KindInstallFail, CauseInstallFault, true)
		return nil
	}
	// Fault: an event storm — always-true no-op events guarding a flow's
	// first rule force a reconsolidation on every fast-path packet until
	// teardown, the load a misbehaving condition creates, leaving the
	// rule's behaviour unchanged.
	stormed := ed.Handle().Rule() == nil && e.faults != nil && e.faults.Should(fault.KindEventStorm, fid)
	if stormed {
		rule.Guards = event.Stormed(rule.Guards)
	}
	replaced := e.global.InstallAt(ed, rule)
	if e.tel != nil {
		e.tel.ruleInstalled(uint32(fid), replaced)
		if stormed {
			e.tel.rec.Append(telemetry.EvFaultInject, uint32(fid), fault.KindEventStorm.String())
		}
	}
	e.clearDegraded(ed)
	return nil
}

// build is the one way a rule is made — live install, event update,
// restore, log replay, AdoptFlow — from a recording over the flow under
// edit's state (event.Table.Consolidate), stamped with
// epoch and priced for the caller's Global.InstallAt. A traversal's rule
// is built in blk, the set-up block its recording is in, if it has one
// (Ctx.own); any other rule is allocated as mat.In allocates it.
func (e *Engine) build(ed flow.Edit, cs *chainState, epoch uint64, rec *event.Recording, blk *setupBlock) (*mat.GlobalRule, error) {
	var rule *mat.GlobalRule
	var made *mat.Room
	if blk != nil {
		rule, made = &blk.rule, &blk.made
	}
	rule, err := e.events.Consolidate(ed, cs.lay, cs.contribs, rec, rule, made)
	if err != nil {
		return nil, err
	}
	rule.Epoch = epoch
	e.price(rule)
	return rule, nil
}

// recording is what the traversal on ctx recorded, spans by chain
// position, as a rule is built from it. Spans go into the traversal's
// set-up block if it has one. Without one, every NF recorded a lone
// forward or nothing: all lone forwards are the chain's shared plain
// recording, and any other mix gets a copy of its own.
func (cs *chainState) recording(ctx *Ctx, spans []mat.LocalRule) event.Recording {
	switch {
	case ctx.blk != nil:
		spans = ctx.blk.rec.Spans(spans)
	case event.Forwarding(spans):
		spans = cs.plain
	default:
		spans = slices.Clone(spans)
	}
	return event.Recording{Spans: spans, Regs: ctx.regs}
}

// setupBlock is a flow's set-up in one allocation: its rule, at offset 0
// so a packet served from it reads the lines a GlobalRule alone would,
// the room the rule's slices are carved from, and the room the recording
// traversal recorded into (Ctx.own) — the recording the rule is built
// from and the events it registered, whose guards the rule carries.
// Sized for Chain1 (TestSetupBlockSizeClass). A firing builds its flow a
// new rule of its own (mat.In), and the new rule shares the block's
// spans until the flow re-records: a flow holds at most one dead rule's
// worth of a block.
type setupBlock struct {
	rule mat.GlobalRule
	made mat.Room
	rec  event.Room
}

// price works out what a packet served from the rule is charged, once,
// before every install: the fast path reads it as two words and, for
// state functions declared as data, its plan's charge.
func (e *Engine) price(rule *mat.GlobalRule) {
	m := e.model
	rule.Plan.Price(rule.Batches, m.ForkJoin, e.opts.ParallelSF)
	rule.FixedCycles = m.HashFID + m.FastPathBase + m.EventCheck + m.GMATLookup
	if !rule.Drop {
		rule.FixedCycles += m.FastPathPerHA * uint64(len(rule.Spans))
	}
	rule.HeaderCycles = 0
	switch {
	case rule.Drop:
		rule.HeaderCycles = m.DropAction
	case e.opts.ConsolidateHeaders:
		mods, decaps, encaps := rule.HeaderWork()
		rule.HeaderCycles = uint64(mods)*m.ModifyField + uint64(decaps)*m.DecapHeader + uint64(encaps)*m.EncapHeader
		if mods+decaps+encaps > 0 {
			rule.HeaderCycles += m.ChecksumUpdate
		}
	default:
		// Ablation: price the header work as if every NF that recorded
		// still parsed the packet and applied its own actions with its
		// own checksum update (redundancies R1 and R3 back in place).
		each := [...]uint64{mat.ActionModify: m.ModifyField, mat.ActionEncap: m.EncapHeader, mat.ActionDecap: m.DecapHeader}
		for _, sp := range rule.Spans {
			if sp.Actions != nil {
				rule.HeaderCycles += m.Parse
			}
			checksum := uint64(0)
			for _, a := range sp.Actions {
				if a.Kind >= mat.ActionModify && a.Kind <= mat.ActionDecap {
					rule.HeaderCycles += each[a.Kind]
					checksum = m.ChecksumUpdate
				}
			}
			rule.HeaderCycles += checksum
		}
	}
}

// evictConsolidated is the eviction-pressure fault: the flow's rule,
// recording and events go as if the tables ran out of space; its entry
// and NF state survive, as a real eviction leaves them, so the next
// packet re-records the same behaviour.
func (e *Engine) evictConsolidated(h flow.Handle) {
	if e.tel != nil {
		e.tel.rec.Append(telemetry.EvFaultInject, uint32(h.FID()), fault.KindEvictPressure.String())
		e.tel.rec.Append(telemetry.EvFlowEvict, uint32(h.FID()), CauseFaultEvict)
	}
	ed := e.class.Flows().EditHandle(h)
	e.drop(ed, CauseFaultEvict)
	ed.Done()
}

// drop drops the rule and the recording of the flow under edit, refunding
// both, and reports a removed rule under cause.
func (e *Engine) drop(ed flow.Edit, cause string) {
	if e.dropConsolidated(ed) && e.tel != nil {
		e.tel.ruleRemoved(uint32(ed.Handle().FID()), cause)
	}
}

// fastPathInto applies the consolidated rule to a packet of kind,
// writing into res, its slot of b — a per-worker array, so steady-state
// fast-path packets allocate nothing — with res.Fast zeroed first: the
// event checks add to it. h is the flow's handle and rule the live rule
// the caller read off its entry (nil: none); both Event Table checks are
// made off the rule's guards, so only a flow with a guard that holds
// takes the flow's edit and probes. On a rule miss the packet falls back
// to the slow path, which writes res whole instead.
func (e *Engine) fastPathInto(h flow.Handle, rule *mat.GlobalRule, kind classifier.Kind, pkt *packet.Packet, res *PacketResult, b *Batch) error {
	m := e.model
	info := &res.Fast
	*info = FastPathInfo{}

	// Event pre-check: a previously-satisfied condition updates the rule
	// before this packet is processed (§III). A firing's faults read the
	// clock.
	if rule != nil && event.Holds(rule.Guards) {
		e.publish(b)
		fired, err := e.fireEvents(h, info)
		if err != nil {
			return err
		}
		if fired {
			// The rule was rebuilt; the fresh lookup sees it.
			info.FixedCycles += m.GMATLookup
		}
		rule = e.global.Live(h)
	}
	if rule == nil {
		// The rule vanished (fault-evicted under the packet, or dropped
		// by a firing) or went stale (a lost recomputation). Fall back
		// to the original chain, which is always correct; the flow
		// re-records via the degradation ladder. The fallback is counted,
		// not journaled: a long degradation would flood the recorder.
		e.statsFor(h.FID()).slowFallbacks.Add(1)
		return e.slowPath(h, kind, pkt, false, res, b)
	}
	// State functions execute first, on the packet as it arrived at
	// the chain: payload-facing functions (the only kind with data
	// dependencies, per Table I) see the same bytes as on the original
	// path, and for consolidated drops the upstream NFs' functions
	// still observe the packet before it is discarded. Functions all
	// declared as data are their adds, at the charge priced at install.
	if x := rule.Plan; x != nil {
		var err error
		switch {
		case x.Priced():
			x.Add(pkt)
			info.SF = x.Charge.SF
		case e.opts.ParallelSF:
			info.SF, err = x.Execute(rule.Batches, pkt, m.ForkJoin)
		default:
			info.SF, err = sfunc.ExecuteSequential(rule.Batches, pkt)
		}
		if err != nil {
			return err
		}
		info.DispatchCycles, info.BatchCount = x.Charge.Dispatch, x.Charge.Batches
	}

	// Consolidated header work (functionally always the consolidated
	// rule; the ablation only changes the *charged* cost). ExecHeader
	// runs the rule's compiled action program, the one form of its header
	// work.
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
	if event.Holds(rule.Guards) {
		e.publish(b)
		if _, err := e.fireEvents(h, info); err != nil {
			return err
		}
	}

	info.FixedCycles += rule.FixedCycles
	info.HeaderCycles = rule.HeaderCycles
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
	served(res, h.FID(), kind, verdict,
		info.FixedCycles+info.HeaderCycles+sfCycles+info.ReconsolidateCycles)
	return nil
}

// served writes the rest of a fast-path result, whose Fast the caller
// wrote, field by field (DESIGN §16, "Stores in place").
func served(res *PacketResult, fid flow.FID, kind classifier.Kind, verdict Verdict, work uint64) {
	res.FID = fid
	res.Kind = kind
	res.Path = PathFast
	res.Verdict = verdict
	res.WorkCycles = work
	res.Slow = nil
	res.TornDown = false
}

// fireEvents takes h's flow's edit and, inside it, probes the guards of
// its installed rule (event.Table.Probe): each update of one that holds
// is applied to its NF's span of a copy of the recording the rule was
// built from, and the copy is consolidated, with the rule's events less
// the one-shots that fired, into the flow's next rule. It reports
// whether anything fired. The probe, the updates and the install are one
// edit of the entry, so a firing on another worker builds on this one's
// rule, never beside it, and a one-shot fires once.
func (e *Engine) fireEvents(h flow.Handle, info *FastPathInfo) (bool, error) {
	fid := h.FID()
	cs := e.state()
	ed := e.class.Flows().EditHandle(h)
	defer ed.Done()
	if !ed.Found() {
		return false, nil
	}
	firings, _ := e.events.Probe(fid)
	if len(firings) == 0 {
		return false, nil
	}
	r := e.global.Rule(ed.Handle())
	if r.Epoch != cs.epoch || len(r.Spans) != len(cs.chain) {
		// No rule of this chain to update: the flow re-records.
		e.drop(ed, CauseEventUnrecorded)
		return false, nil
	}
	spans := slices.Clone(r.Spans)
	// The firings are the guards that held, in the guards' order: the
	// walk pairs each with its guard and keeps every other guard's event.
	var regs []mat.Ref
	next := firings
	for g := r.Guards; g != nil; g = g.Next {
		if len(next) == 0 || next[0].Ref != g.Ref {
			regs = append(regs, g.Ref)
			continue
		}
		f := next[0]
		next = next[1:]
		// The update edits a span of its own: the rule's are immutable.
		ev, st := e.events.Bind(ed, cs.lay, f.Ref)
		spans[f.At] = *spans[f.At].Clone()
		ev.Update(st, &spans[f.At])
		if !ev.OneShot {
			regs = append(regs, g.Ref)
		}
		info.ReconsolidateCycles += e.model.EventFire
		if e.tel != nil {
			e.tel.rec.Append(telemetry.EvEventFire, uint32(fid), cs.chain[f.At].Name())
		}
	}
	info.EventsFired += len(firings)
	// Faults: the recomputation is dropped or delayed — NF state has
	// changed, the edited copy is lost — and the rule is stale-marked, so
	// this packet falls back to the slow path.
	for _, f := range recomputeFaults {
		if e.faults != nil && e.faults.Should(f.kind, fid) {
			e.markStale(ed, f.kind, f.cause, f.escalate)
			return true, nil
		}
	}
	var built SlowPathInfo
	switch err := e.consolidate(ed, nil, &built, cs, &event.Recording{Spans: spans, Regs: regs}); {
	case err == nil:
		info.ReconsolidateCycles += built.ConsolidateCycles
	case errors.Is(err, mat.ErrNotConsolidatable):
		// The updated actions no longer fold into one rule: the flow
		// re-records.
		e.drop(ed, CauseEventUnconsolidatable)
	default:
		return false, err
	}
	return true, nil
}

// recomputeFaults are the faults that drop (escalating the ladder) or
// delay a reconsolidation, in the order they are consulted.
var recomputeFaults = [...]struct {
	kind     fault.Kind
	cause    string
	escalate bool
}{{fault.KindRecomputeDrop, CauseRecomputeDrop, true}, {fault.KindRecomputeDelay, CauseRecomputeDelay, false}}

// ExpireIdle sweeps the flow table (flow.Table.Sweep) and tears down
// the flows idle for idleFor clock ticks, returning how many: never one
// with a packet in the last idleFor ticks, always one idle for longer
// than idleFor plus the gap between two sweeps. The paper cleans up on
// TCP FIN/RST only (§VI-B), which never fires for UDP or abandoned flows;
// an expired flow's next packet re-records.
func (e *Engine) ExpireIdle(idleFor uint64) int {
	flows := e.class.Flows()
	idle := flows.Sweep(e.clock.Load(), idleFor)
	for _, h := range idle {
		e.teardown(flows.EditHandle(h), CauseIdleExpiry)
		if e.tel != nil {
			e.tel.rec.Append(telemetry.EvFlowEvict, uint32(h.FID()), CauseIdleExpiry)
		}
	}
	return len(idle)
}

// teardown removes all state of a finished flow (§VI-B), the entry
// included, in the edit it is given and ends: budgets are refunded in
// the edit that unlinks the entry, which a charge must find linked, so
// none outlives the flow. cause labels the removal.
func (e *Engine) teardown(ed flow.Edit, cause string) {
	removed := e.release(ed)
	if removed && e.tel != nil {
		e.tel.ruleRemoved(uint32(ed.Handle().FID()), cause)
	}
	if ed.Found() && !ed.Handle().Detached() {
		ed.Unlink()
	}
	ed.Done()
}
