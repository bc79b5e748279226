package core

import "github.com/fastpathnfv/speedybox/internal/event"

// State is one NF's per-flow state, the words it declared, on the flow's
// record; FlowStates is the NF's declaration of them and its window onto
// them across flows (event.State, event.FlowStates).
type (
	State      = event.State
	FlowStates = event.FlowStates
)

// Stateful is an NF that keeps per-flow state on the flow record.
type Stateful interface {
	NF
	FlowStates() *FlowStates
}

// FlowState returns the calling NF's state on the packet's flow: the
// words v declares, zero on the flow's first use, and the same words on
// every later packet until the flow ends, what the functions and events
// it records run on. In an engine's traversal the first call resolves
// every NF's words on the flow in one lock of its record
// (event.Table.Resolve), and the NFs after it read them off the context.
func (c *Ctx) FlowState(v *FlowStates) State {
	if v.Words == 0 {
		return nil
	}
	if c.lay == nil {
		if c.rec == nil {
			c.rec = c.events.Record(c.h, nil)
		}
		return c.rec.State(v.Standalone(c.nf, c.events), 0)
	}
	if len(c.states) == 0 {
		c.states = c.events.Resolve(c.h, c.lay, c.states)
	}
	return c.states[c.slot]
}

// Close ends the engine's part in its NFs' per-flow views: a platform
// closes its engine, or NF objects that outlive it (a cluster's, when an
// instance retires or is replaced) would go on reporting its flows.
func (e *Engine) Close() {
	for _, nf := range e.state().chain {
		if s, ok := nf.(Stateful); ok {
			s.FlowStates().Detach(e.events)
		}
	}
}
