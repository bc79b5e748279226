// Package synthetic implements the configurable synthetic NF the
// paper uses for the state-function parallelism microbenchmark
// (§VII-A2): "The synthetic NF has no header action, and has one state
// function that is equivalent to the Snort packet inspection (does not
// modify payload)."
package synthetic

import (
	"fmt"
	"sync/atomic"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

// Config configures a synthetic NF.
type Config struct {
	// Name is the NF instance name.
	Name string
	// Class is the state function's payload class; defaults to
	// ClassRead (the Snort-equivalent of §VII-A2).
	Class sfunc.PayloadClass
	// Cycles is the state function's modeled cost per packet; when 0
	// the cost is Snort-equivalent: Model.InspectCost(payload length).
	Cycles uint64
	// TouchPayload makes the handler genuinely read (or write, for
	// ClassWrite) the payload bytes, so a handler that broke its
	// declared class would show in the output-equivalence checks.
	TouchPayload bool
}

// NF is the synthetic network function. It keeps no per-flow state; its
// FlowStates declares its one state function.
type NF struct {
	name         string
	class        sfunc.PayloadClass
	cycles       uint64
	touchPayload bool
	flows        core.FlowStates
	invocations  atomic.Uint64
}

// New builds a synthetic NF.
func New(cfg Config) (*NF, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("synthetic: empty name")
	}
	class := cfg.Class
	if class == 0 {
		class = sfunc.ClassRead
	}
	if !class.Valid() {
		return nil, fmt.Errorf("synthetic: invalid class %d", int(class))
	}
	n := &NF{
		name:         cfg.Name,
		class:        class,
		cycles:       cfg.Cycles,
		touchPayload: cfg.TouchPayload,
	}
	n.flows.Funcs = []sfunc.Func{{Name: "synthetic", Class: class, Run: n.fn}}
	return n, nil
}

var _ core.Stateful = (*NF)(nil)

// Name implements core.NF.
func (n *NF) Name() string { return n.name }

// FlowStates implements core.Stateful.
func (n *NF) FlowStates() *core.FlowStates { return &n.flows }

// Invocations returns how many times the state function ran (slow or
// fast path).
func (n *NF) Invocations() uint64 { return n.invocations.Load() }

// run is the state-function body shared by both paths.
func (n *NF) run(model interface{ InspectCost(int) uint64 }, pkt *packet.Packet) (uint64, error) {
	n.invocations.Add(1)
	payload := pkt.Payload()
	if n.touchPayload {
		switch n.class {
		case sfunc.ClassRead:
			var sum byte
			for _, b := range payload {
				sum ^= b
			}
			_ = sum
		case sfunc.ClassWrite:
			for i := range payload {
				payload[i] ^= 0x55
			}
		}
	}
	if n.cycles != 0 {
		return n.cycles, nil
	}
	return model.InspectCost(len(payload)), nil
}

// fn is the declared state function.
func (n *NF) fn(a sfunc.Args, p *packet.Packet) (uint64, error) { return n.run(a.Model, p) }

// Process implements core.NF: no header action (forward by default),
// one recorded state function.
func (n *NF) Process(ctx *core.Ctx, pkt *packet.Packet) (core.Verdict, error) {
	ctx.Charge(ctx.Model.Parse + ctx.Model.Classify)
	cycles, err := n.run(ctx.Model, pkt)
	if err != nil {
		return 0, err
	}
	ctx.Charge(cycles)
	if !ctx.Recording() {
		return core.VerdictForward, nil
	}
	if err := ctx.AddStateFunc(0); err != nil {
		return 0, err
	}
	return core.VerdictForward, nil
}
