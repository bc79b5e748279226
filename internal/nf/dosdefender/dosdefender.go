// Package dosdefender implements the DoS Prevention NF from the
// paper's Event Table walkthrough (Figure 3): it monitors TCP SYN
// flags per flow and, when a flow's SYN count exceeds a threshold,
// triggers an event that replaces the flow's forward action with a
// drop action in the consolidated rule.
package dosdefender

import (
	"fmt"
	"sync/atomic"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

// Config configures the defender.
type Config struct {
	// Name is the NF instance name.
	Name string
	// SYNThreshold is the per-flow SYN count above which the flow is
	// blocked; Figure 3 uses flow_cnt > 100. Defaults to 100.
	SYNThreshold uint64
}

// Defender is the DoS prevention NF. A flow's SYN counter and block mark
// are two words of per-flow state on its flow record, which the declared
// counting function writes and the event's condition reads directly.
type Defender struct {
	name      string
	threshold uint64
	flows     core.FlowStates
}

// New builds a Defender.
func New(cfg Config) (*Defender, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("dosdefender: empty name")
	}
	th := cfg.SYNThreshold
	if th == 0 {
		th = 100
	}
	d := &Defender{name: cfg.Name, threshold: th}
	d.flows.Words = 2
	// The SYN counting handler inspects TCP flags only, so it ignores the
	// payload (parallel-compatible with anything).
	d.flows.Funcs = []sfunc.Func{{Name: "syncount", Class: sfunc.ClassIgnore, Run: d.count}}
	// Figure 3's event: once the counter crosses the threshold, replace
	// the forward action with drop and reconsolidate.
	d.flows.Events = []event.Event{{Word: blockMark, AtLeast: 1, Update: drop, OneShot: true}}
	return d, nil
}

var _ core.Stateful = (*Defender)(nil)

// Name implements core.NF.
func (d *Defender) Name() string { return d.name }

// FlowStates implements core.Stateful.
func (d *Defender) FlowStates() *core.FlowStates { return &d.flows }

// SYNCount returns a live flow's SYN counter.
func (d *Defender) SYNCount(fid flow.FID) uint64 {
	if st := d.flows.Of(fid); st != nil {
		return st[0].Load()
	}
	return 0
}

// Blocked reports whether the live flow crossed the threshold.
func (d *Defender) Blocked(fid flow.FID) bool {
	st := d.flows.Of(fid)
	return st != nil && st[1].Load() != 0
}

// observe counts a packet's SYN flag and returns whether the flow is
// (now) over threshold.
func (d *Defender) observe(st core.State, pkt *packet.Packet) bool {
	syns := st[0].Load()
	if flags, ok := pkt.TCPFlags(); ok && flags&packet.TCPFlagSYN != 0 {
		syns = st[0].Add(1)
	}
	if syns > d.threshold {
		st[1].Store(1)
	}
	return st[1].Load() != 0
}

// count is the declared SYN counting state function.
func (d *Defender) count(a sfunc.Args, p *packet.Packet) (uint64, error) {
	d.observe(a.State, p)
	return a.Model.CounterUpdate, nil
}

// blockMark is the word of the event's condition: flow_cnt > threshold,
// as observe last left it.
func blockMark(st core.State) *atomic.Uint64 { return &st[1] }

// drop is the event's update.
func drop(_ core.State, r *mat.LocalRule) { r.Actions = []mat.HeaderAction{mat.Drop()} }

// Process implements core.NF.
func (d *Defender) Process(ctx *core.Ctx, pkt *packet.Packet) (core.Verdict, error) {
	ctx.Charge(ctx.Model.Parse + ctx.Model.Classify)
	st := ctx.FlowState(&d.flows)
	over := d.observe(st, pkt)
	ctx.Charge(ctx.Model.CounterUpdate)
	if over {
		if err := ctx.AddHeaderAction(mat.Drop()); err != nil {
			return 0, err
		}
		ctx.Charge(ctx.Model.DropAction)
		return core.VerdictDrop, nil
	}
	if !ctx.Recording() {
		return core.VerdictForward, nil
	}

	if err := ctx.AddHeaderAction(mat.Forward()); err != nil {
		return 0, err
	}
	if err := ctx.AddStateFunc(0); err != nil {
		return 0, err
	}
	if err := ctx.RegisterEvent(0); err != nil {
		return 0, err
	}
	return core.VerdictForward, nil
}
