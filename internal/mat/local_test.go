package mat_test

import (
	"testing"

	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
	. "github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

// The Local MAT tests. An NF's Local MAT entry for a flow is its span of
// the recording the flow's rule was built from (GlobalRule.Spans), which
// package event copies out of a traversal's scratch (Table.Publish) and
// builds the rule from (Table.Consolidate), so these drive it from
// outside the package.

// newTable returns an Event Table over a flow table of its own.
func newTable() (*flow.Table, *event.Table) {
	flows := flow.NewTable()
	return flows, event.NewTable(flows)
}

// publish copies spans as a traversal's recording for the FID, as a
// detached entry's if no flow holds it, registering regs.
func publish(t *testing.T, flows *flow.Table, tbl *event.Table, fid flow.FID, spans []LocalRule, regs ...event.Registration) []LocalRule {
	t.Helper()
	ed := flows.Edit(fid, true)
	defer ed.Done()
	out, err := tbl.Publish(ed, spans, regs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestLocalMATRecordingOrder(t *testing.T) {
	flows, tbl := newTable()
	spans := publish(t, flows, tbl, 1, []LocalRule{{
		Actions: []HeaderAction{
			Modify(packet.FieldDstIP, []byte{1, 1, 1, 1}),
			Modify(packet.FieldDstPort, packet.PutUint16(8080)),
		},
		Funcs: []uint8{1, 0},
	}})
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

// TestLocalMATReplaceIsExactCopy pins what publication promises: the
// rule gets its own exactly sized copy, so the publisher may reuse its
// buffers and an append to a copied span (an event Update on a copy of
// it) reallocates instead of growing into storage it does not own — the
// publisher's, or the next NF's span carved from the same array. An NF
// that recorded nothing stays the zero span; one that recorded only
// state functions gets non-nil actions.
func TestLocalMATReplaceIsExactCopy(t *testing.T) {
	flows, tbl := newTable()
	buf := make([]HeaderAction, 1, 8)
	buf[0] = Modify(packet.FieldDSCP, []byte{1})
	spans := publish(t, flows, tbl, 1, []LocalRule{
		{Actions: buf},
		{Actions: []HeaderAction{Drop()}},
		{},
		{Funcs: []uint8{0}},
	})
	buf[0] = Drop()
	buf = append(buf, Drop())
	if r := spans[0]; len(r.Actions) != 1 || cap(r.Actions) != 1 || r.Actions[0].Kind != ActionModify {
		t.Errorf("copied actions = %v (cap %d), want an exact copy of [modify]", r.Actions, cap(r.Actions))
	}
	spans[0].Actions = append(spans[0].Actions, Forward())
	if buf[1].Kind != ActionDrop {
		t.Error("append to the copied span wrote into the publisher's buffer")
	}
	if len(spans[1].Actions) != 1 || spans[1].Actions[0].Kind != ActionDrop {
		t.Errorf("append to one span reached its neighbour: %v", spans)
	}
	if spans[2].Actions != nil || spans[3].Actions == nil || len(spans[3].Funcs) != 1 {
		t.Errorf("spans %v: want the silent NF's zero and the counter's non-nil", spans)
	}
}

// TestLocalMATIsTheRules: the flow's record keeps the events a
// traversal registered and nothing of what it recorded, which the rule
// built from it holds; without events a publication hangs nothing off
// the flow's entry, and Remove takes the events away with the record.
func TestLocalMATIsTheRules(t *testing.T) {
	flows, tbl := newTable()
	chain := []Contribution{{NF: "x"}}
	spans := publish(t, flows, tbl, 3, []LocalRule{{Actions: []HeaderAction{Forward()}}})
	if c := flows.Counts(); c.Records != 0 {
		t.Errorf("a publication without events kept a record: %+v", c)
	}
	ed := flows.Edit(3, true)
	rule, err := tbl.Consolidate(ed, event.NewStateLayout([]event.StateSlot{{NF: "x"}}), chain, spans)
	ed.Done()
	if err != nil || len(rule.Spans) != 1 || &rule.Spans[0] != &spans[0] {
		t.Fatalf("rule %v (err %v): want it to hold the published spans", rule, err)
	}
	never := event.Event{Condition: func(sfunc.State) bool { return false }, Update: func(sfunc.State, *LocalRule) {}}
	publish(t, flows, tbl, 4, []LocalRule{{Actions: []HeaderAction{Drop()}}}, event.Registration{Event: &never})
	if c := flows.Counts(); c.Records != 1 || tbl.Pending(4) != 1 {
		t.Errorf("after a publication with an event: %+v, %d pending", c, tbl.Pending(4))
	}
	ed = flows.Edit(4, false)
	tbl.Remove(ed)
	ed.Done()
	if c := flows.Counts(); c.Records != 0 || tbl.Pending(4) != 0 {
		t.Errorf("the record outlived its events: %+v", c)
	}
}
