// Package dosdefender implements the DoS Prevention NF from the
// paper's Event Table walkthrough (Figure 3): it monitors TCP SYN
// flags per flow and, when a flow's SYN count exceeds a threshold,
// triggers an event that replaces the flow's forward action with a
// drop action in the consolidated rule.
package dosdefender

import (
	"fmt"
	"math"
	"sync/atomic"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/cost"
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
	// blocked; Figure 3 uses flow_cnt > 100. Defaults to 100; at most
	// math.MaxUint64 - 1, as a count can never exceed the largest.
	SYNThreshold uint64
}

// Defender is the DoS prevention NF. A flow's SYN counter is its one
// word of per-flow state on its flow record, which the declared counting
// function adds to and the event's condition reads directly.
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
	switch th {
	case 0:
		th = 100
	case math.MaxUint64:
		return nil, fmt.Errorf("dosdefender: SYN threshold %d: no count exceeds it", th)
	}
	d := &Defender{name: cfg.Name, threshold: th}
	d.flows.Words = 1
	// The SYN count reads TCP flags only, so it ignores the payload
	// (parallel-compatible with anything).
	d.flows.Funcs = []sfunc.Func{{Name: "syncount", Class: sfunc.ClassIgnore,
		Adds: []sfunc.Add{{Word: 0, Operand: sfunc.SYN}}, Price: cost.CounterUpdate}}
	// Figure 3's event: once the counter crosses the threshold, replace
	// the forward action with drop and reconsolidate.
	d.flows.Events = []event.Event{{Word: synCount, AtLeast: th + 1, Update: event.Drop, OneShot: true}}
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
func (d *Defender) Blocked(fid flow.FID) bool { return d.SYNCount(fid) > d.threshold }

// synCount is the word of the event's condition: flow_cnt, which holds
// once it exceeds the threshold.
func synCount(st core.State) *atomic.Uint64 { return &st[0] }

// Process implements core.NF.
func (d *Defender) Process(ctx *core.Ctx, pkt *packet.Packet) (core.Verdict, error) {
	ctx.Charge(ctx.Model.Parse + ctx.Model.Classify)
	st := ctx.FlowState(&d.flows)
	if flags, ok := pkt.TCPFlags(); ok && flags&packet.TCPFlagSYN != 0 {
		st[0].Add(1)
	}
	ctx.Charge(ctx.Model.CounterUpdate)
	if st[0].Load() > d.threshold {
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
