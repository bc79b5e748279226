// Package core implements the SpeedyBox engine: the NF integration
// API (paper Figure 2), the slow path that records behaviour into
// Local MATs while the initial packet traverses the chain, and the
// fast path that applies consolidated Global MAT rules to subsequent
// packets, with Event Table checks preserving stateful semantics.
//
// The paper's C APIs map to this package as follows:
//
//	nf_extract_fid(pkt)          -> Ctx.FID (assigned by the classifier)
//	localmat_add_HA(fid, ha, a)  -> Ctx.AddHeaderAction(pkt, mat.HeaderAction),
//	                                Ctx.AddModify(pkt, field, value)
//	localmat_add_SF(fid, h, t, a)-> Ctx.Run(v, i, pkt), Ctx.AddStateFunc(i)
//	register_event(fid, c, a, u) -> Ctx.RegisterEvent(i)
//
// The state function h — adds to a's words and a price, or a handler —
// (or condition c — a word of a and a threshold — and update u) is
// declared once, by index, on the NF's FlowStates; the argument a is the
// flow's words on its record (state.go): data. Each call also applies
// and charges its effect, recording or not, as the fast path would.
package core

import (
	"fmt"

	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

// Verdict is an NF's per-packet decision on the slow path.
type Verdict int

// Verdicts. Enum starts at one so a zero Verdict is detectably unset.
const (
	// VerdictForward passes the packet to the next NF.
	VerdictForward Verdict = iota + 1
	// VerdictDrop discards the packet; downstream NFs never see it.
	VerdictDrop
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case VerdictForward:
		return "forward"
	case VerdictDrop:
		return "drop"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// NF is a network function integrated with SpeedyBox. Process runs the
// NF's genuine logic on a packet traversing the original chain; inside
// it, the NF applies its header actions and state functions through the
// Ctx instrumentation APIs, which also record them as its per-flow
// behaviour. They record nothing when recording is disabled (original
// chain baseline, handshake packets), so one implementation serves
// both the baseline and the SpeedyBox configurations.
type NF interface {
	// Name identifies the NF; it labels ledger stages and Local MATs.
	Name() string
	// Process handles one slow-path packet.
	Process(ctx *Ctx, pkt *packet.Packet) (Verdict, error)
}

// Ctx is the per-NF, per-packet instrumentation context.
type Ctx struct {
	// FID is the flow identifier the classifier assigned.
	FID flow.FID
	// Model exposes the cycle-cost model so NFs charge calibrated
	// costs for their work.
	Model *cost.Model

	nf string
	// h is the packet's flow entry, in flows: what the context writes to
	// the flow's record through.
	h         flow.Handle
	flows     *flow.Table
	ledger    *cost.Ledger
	events    *event.Table
	recording bool
	// lay is the chain's state layout and slot the NF's position in it
	// (nil: a standalone context, which keeps its NF's state in a layout
	// of one slot, on rec); decl is the NF's declaration, what
	// AddStateFunc and RegisterEvent record from. states are every NF's
	// words on the flow by chain position, resolved by the traversal's
	// first FlowState (empty until then) in storage traversals reuse.
	lay    *event.StateLayout
	slot   int
	decl   *FlowStates
	rec    *event.Record
	states []State
	// acts, funcs and regs are the recording buffers, everything recorded
	// through this context in order, and vals the values of its modifies
	// (AddModify). An engine traversal records into blk, the set-up block
	// its recording and the rule built from it share, made on the first
	// record that takes storage (own): until then the buffers are empty.
	// Once the chain has run, the flow's rule is built from them. mark is
	// where the current NF's actions start, and fwd says it has recorded a
	// forward, which takes no storage unless the NF records another action
	// (a lone forward's span is event.LoneForward).
	acts  []mat.HeaderAction
	funcs []uint8
	regs  []mat.Ref
	vals  []byte
	blk   *setupBlock
	mark  int
	fwd   bool
	// sum is the packet the NF was charged a checksum update for.
	sum *packet.Packet
	// tenant is the packet's, which the install of the rule built from
	// the recording is charged to (Engine.admit).
	tenant int32
}

// Snapshotter is an optional NF interface for crash-safe cross-flow
// state — what the NF shares between flows and so keeps itself (quotas,
// allocation cursors, backend health, aggregates over ended flows):
// Engine.Checkpoint calls SnapshotState on every chain NF implementing
// it and stores the blob by NF name; Engine.Restore hands the blob
// back via RestoreState on the freshly constructed replacement NF,
// before the flows' own state arrives (FlowStates.Arrive). Per-flow
// state is not its business: that travels on the flow records. The
// encoding is the NF's own (the bundled NFs use encoding/gob) — the
// engine only moves opaque bytes.
type Snapshotter interface {
	// SnapshotState serializes the NF's internal state. It must not
	// run concurrently with Process (checkpointing happens at packet
	// boundaries, like reconfiguration).
	SnapshotState() ([]byte, error)
	// RestoreState replaces the NF's internal state with a blob a
	// previous SnapshotState produced.
	RestoreState(data []byte) error
}

// CtxConfig assembles a standalone instrumentation context, used by NF
// unit tests and by tools that drive a single NF outside an Engine.
type CtxConfig struct {
	// FID is the flow identifier.
	FID flow.FID
	// Model defaults to cost.DefaultModel when nil.
	Model *cost.Model
	// Ledger defaults to a fresh ledger when nil.
	Ledger *cost.Ledger
	// Events is the Event Table, whose flow records also hold the NF's
	// per-flow state: contexts that are to see one another's state share
	// one. Defaults to a fresh one.
	Events *event.Table
	// Recording makes the instrumentation APIs record.
	Recording bool
	// Flows is the NF's declaration, which AddStateFunc and RegisterEvent
	// record from; nil for an NF that declares none.
	Flows *FlowStates
}

// NewCtx builds a context for the named NF.
func NewCtx(nf string, cfg CtxConfig) *Ctx {
	if cfg.Model == nil {
		cfg.Model = cost.DefaultModel()
	}
	if cfg.Ledger == nil {
		cfg.Ledger = cost.NewLedger()
	}
	if cfg.Events == nil {
		cfg.Events = event.NewTable(flow.NewTable())
	}
	return &Ctx{
		FID:       cfg.FID,
		Model:     cfg.Model,
		nf:        nf,
		h:         cfg.Events.Entry(cfg.FID),
		ledger:    cfg.Ledger,
		events:    cfg.Events,
		recording: cfg.Recording,
		decl:      cfg.Flows,
	}
}

// Charge attributes work cycles to this NF's ledger stage. A stage
// exists from its first charge: an NF that never charges has none.
func (c *Ctx) Charge(cycles uint64) {
	c.ledger.Charge(c.nf, cycles)
}

// AddHeaderAction applies and charges header action a (apply), which is
// then valid, and records it for the NF's Local MAT (localmat_add_HA)
// when recording. The recording itself costs Model.RecordHA cycles,
// charged to the NF — this is the "extra overhead for recording"
// visible in Figure 4's one-action case. The action, a stack argument,
// is read through pointers and stored field by field: a copy of it
// whole would reload it in 16-byte halves (DESIGN §16, "Stores in place").
func (c *Ctx) AddHeaderAction(pkt *packet.Packet, a mat.HeaderAction) error {
	if err := c.apply(pkt, &a); err != nil || !c.recording {
		return err
	}
	c.Charge(c.Model.RecordHA)
	// An NF's first action, a forward, is held back (fwd): if it stays
	// the NF's only one, its span is the shared lone forward.
	if c.lay != nil && a.Kind == mat.ActionForward && !c.fwd && len(c.acts) == c.mark && a.Equal(&event.LoneForward()[0]) {
		c.fwd = true
		return nil
	}
	n := c.next()
	n.Kind, n.Field, n.Value, n.Header, n.HeaderType = a.Kind, a.Field, a.Value, a.Header, a.HeaderType
	return nil
}

// apply executes a on pkt by the fast path's reference
// (mat.HeaderAction.Apply) and charges its primitive, a rewrite's with
// one checksum update per NF and packet.
func (c *Ctx) apply(pkt *packet.Packet, a *mat.HeaderAction) error {
	if _, err := a.Apply(pkt); err != nil {
		return fmt.Errorf("core: %s: %w", c.nf, err)
	}
	m := c.Model
	cycles := [...]uint64{mat.ActionDrop: m.DropAction, mat.ActionModify: m.ModifyField, mat.ActionEncap: m.EncapHeader, mat.ActionDecap: m.DecapHeader}[a.Kind]
	if a.Kind >= mat.ActionModify && c.sum != pkt {
		c.sum, cycles = pkt, cycles+m.ChecksumUpdate
	}
	if cycles != 0 {
		c.Charge(cycles)
	}
	return nil
}

// next appends an action to the recording, after the held-back forward
// if there is one, and returns it zeroed, to be written in place.
func (c *Ctx) next() *mat.HeaderAction {
	if c.lay != nil {
		c.own()
		if c.fwd {
			c.acts, c.fwd = append(c.acts, mat.HeaderAction{Kind: mat.ActionForward}), false
		}
	}
	c.acts = append(c.acts, mat.HeaderAction{})
	return &c.acts[len(c.acts)-1]
}

// own gives an engine traversal's recording its set-up block, on the
// first record that takes storage: a recording of lone forwards takes
// none, and its rule is built without one.
func (c *Ctx) own() {
	if c.blk == nil && c.lay != nil {
		c.blk = new(setupBlock)
		c.acts, c.funcs, c.vals, c.regs = c.blk.rec.Buffers()
	}
}

// span writes into r, in place, the Local MAT entry of the NF that
// recorded from the recording buffers' positions nActs and nFuncs on:
// capacity-limited, so it never grows into the next NF's, and with
// non-nil actions.
func (c *Ctx) span(r *mat.LocalRule, nActs, nFuncs int) {
	r.Actions, r.Funcs = c.acts[nActs:len(c.acts):len(c.acts)], c.funcs[nFuncs:len(c.funcs):len(c.funcs)]
	switch {
	case c.fwd:
		r.Actions = event.LoneForward()
	case r.Actions == nil:
		r.Actions = []mat.HeaderAction{}
	}
}

// AddModify is AddHeaderAction(pkt, mat.Modify(f, value)) without a copy
// of its own: the recorded value goes into the traversal's recording
// buffer, so the caller may reuse its storage, and with the recording
// into the flow's set-up block, in place (DESIGN §16, "Stores in place").
func (c *Ctx) AddModify(pkt *packet.Packet, f packet.Field, value []byte) error {
	var a mat.HeaderAction
	a.Kind, a.Field, a.Value = mat.ActionModify, f, value
	if err := c.apply(pkt, &a); err != nil || !c.recording {
		return err
	}
	c.Charge(c.Model.RecordHA)
	c.own()
	n := len(c.vals)
	c.vals = append(c.vals, value...)
	r := c.next()
	r.Kind, r.Field, r.Value = mat.ActionModify, f, c.vals[n:len(c.vals):len(c.vals)]
	return nil
}

// declared checks that the calling NF declares state function (event,
// with event set) i.
func (c *Ctx) declared(i int, event bool) error {
	if err := c.decl.Declares(i, event); err != nil {
		return fmt.Errorf("core: %s %w", c.nf, err)
	}
	return nil
}

// Run runs the NF's declared state function i over its words on the
// flow, by the body its rule runs (sfunc.Func.Call), and charges it.
func (c *Ctx) Run(v *FlowStates, i int, pkt *packet.Packet) error {
	cycles, err := v.Funcs[i].Call(sfunc.Args{FID: c.FID, State: c.FlowState(v), Model: c.Model}, pkt)
	c.Charge(cycles)
	return err
}

// AddStateFunc records the NF's declared state function i for the flow
// (localmat_add_SF): the flow's rule runs it on the NF's state words.
func (c *Ctx) AddStateFunc(i int) error {
	if !c.recording {
		return nil
	}
	c.Charge(c.Model.RecordSF)
	err := c.declared(i, false)
	if err == nil {
		c.own()
		c.funcs = append(c.funcs, uint8(i))
	}
	return err
}

// Recorded returns what has been recorded through the context so far —
// the Local MAT entry an engine would publish for it — and whether that
// is anything. NF unit tests read a standalone context's recording here.
func (c *Ctx) Recorded() (*mat.LocalRule, bool) {
	return &mat.LocalRule{Actions: c.acts, Funcs: c.funcs}, len(c.acts)+len(c.funcs) > 0
}

// RegisterEvent registers the NF's declared event i for the flow
// (register_event): the recording takes a reference to it, which the
// rule built from the recording binds into a guard
// (event.Table.Consolidate), holding a flow to event.MaxPerFlow, and
// whose install is charged for it (Engine.admit): it takes no lock. A
// standalone context, which builds no rule, only records the reference.
func (c *Ctx) RegisterEvent(i int) error {
	if !c.recording {
		return nil
	}
	c.Charge(c.Model.RecordEvent)
	if err := c.declared(i, true); err != nil {
		return err
	}
	c.own()
	c.regs = append(c.regs, mat.Ref{At: uint16(c.slot), Index: uint16(i)})
	c.events.Registered()
	return nil
}
