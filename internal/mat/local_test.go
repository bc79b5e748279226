package mat_test

import (
	"sync/atomic"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
	. "github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

// The Local MAT tests. An NF's Local MAT entry for a flow is its span of
// the recording the flow's rule was built from (GlobalRule.Spans), which
// package event copies out of a traversal's scratch and builds the rule
// from (Table.Consolidate), so these drive it from outside the package.

// newTable returns an Event Table over a flow table of its own.
func newTable() (*flow.Table, *event.Table) {
	flows := flow.NewTable()
	return flows, event.NewTable(flows)
}

// publish builds a rule from spans as a traversal's recording for the
// FID, as a detached entry's if no flow holds it, registering regs, and
// returns the rule. Each NF of the chain declares two state functions and
// an event.
func publish(t *testing.T, flows *flow.Table, tbl *event.Table, fid flow.FID, spans []LocalRule, regs ...Ref) *GlobalRule {
	t.Helper()
	lay, chain := layChain(len(spans))
	ed := flows.Edit(fid, true)
	defer ed.Done()
	rule, err := tbl.Consolidate(ed, lay, chain, &event.Recording{Spans: spans, Regs: regs}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rule
}

// never is the event layChain's NFs declare: its condition never holds.
var never = event.Event{Word: func(sfunc.State) *atomic.Uint64 { return new(atomic.Uint64) }, AtLeast: 1, Update: func(sfunc.State, *LocalRule) {}}

// layChain is a chain of n NFs that keep no per-flow state and declare
// two state functions and one event each.
func layChain(n int) (*event.StateLayout, []Contribution) {
	fn := sfunc.Func{Name: "f", Class: sfunc.ClassIgnore, Run: func(sfunc.Args, *packet.Packet) (uint64, error) { return 0, nil }}
	decl := &event.FlowStates{Events: []event.Event{never}}
	slots, chain := make([]event.StateSlot, n), make([]Contribution, n)
	for i := range chain {
		slots[i], chain[i].NF = decl.Slot("x"), "x"
		chain[i].Site = &sfunc.Site{NF: "x", At: i, Funcs: []sfunc.Func{fn, fn}}
	}
	return event.NewStateLayout(slots), chain
}

func TestLocalMATRecordingOrder(t *testing.T) {
	flows, tbl := newTable()
	spans := publish(t, flows, tbl, 1, []LocalRule{{
		Actions: []HeaderAction{
			Modify(packet.FieldDstIP, []byte{1, 1, 1, 1}),
			Modify(packet.FieldDstPort, packet.PutUint16(8080)),
		},
		Funcs: []uint8{1, 0},
	}}).Spans
	if len(spans) != 1 {
		t.Fatal("rule missing")
	}
	r := spans[0]
	if len(r.Actions) != 2 || r.Actions[0].Field != packet.FieldDstIP {
		t.Errorf("actions = %v", r.Actions)
	}
	if len(r.Funcs) != 2 || r.Funcs[0] != 1 || r.Funcs[1] != 0 {
		t.Errorf("funcs out of order: %v", r.Funcs)
	}
}

// TestLocalMATIsTheRules: the rule built from a traversal's recording
// holds what it recorded and the events it registered, as its guards;
// the flow's record keeps neither, so a publication by NFs that keep no
// per-flow state hangs nothing off the flow's entry.
func TestLocalMATIsTheRules(t *testing.T) {
	flows, tbl := newTable()
	spans := publish(t, flows, tbl, 3, []LocalRule{{Actions: []HeaderAction{Forward()}}}).Spans
	lay, chain := layChain(1)
	ed := flows.Edit(3, true)
	rule, err := tbl.Consolidate(ed, lay, chain, &event.Recording{Spans: spans}, nil, nil)
	ed.Done()
	if err != nil || len(rule.Spans) != 1 || &rule.Spans[0] != &spans[0] {
		t.Fatalf("rule %v (err %v): want it to hold the published spans", rule, err)
	}
	rule = publish(t, flows, tbl, 4, []LocalRule{{Actions: []HeaderAction{Drop()}}}, Ref{})
	if c := flows.Counts(); c.Records != 0 || rule.Guards == nil || rule.Guards.Ref != (Ref{}) || rule.Guards.Next != nil {
		t.Errorf("after a publication with an event: %+v, guards %+v; want no record and the event guarded", c, rule.Guards)
	}
}
