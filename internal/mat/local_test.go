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
// the flow's record, which package event keeps on the flow's entry, so
// these drive it from outside the package: publish is Table.Publish, the
// snapshot read Table.Recorded, an event's in-place edit Firing.Apply,
// deletion Table.Remove.

// newTable returns an Event Table over a flow table of its own.
func newTable() (*flow.Table, *event.Table) {
	flows := flow.NewTable()
	return flows, event.NewTable(flows)
}

// publishAll records spans for an n-NF chain under the FID, as a detached
// entry's if no flow holds it.
func publishAll(flows *flow.Table, tbl *event.Table, fid flow.FID, n int, spans []Contribution) {
	ed := flows.Edit(fid, true)
	tbl.Publish(ed, 0, n, 0, spans, nil)
	ed.Done()
}

// publish records rule as the one NF of a one-NF chain.
func publish(flows *flow.Table, tbl *event.Table, fid flow.FID, rule *LocalRule) {
	publishAll(flows, tbl, fid, 1, []Contribution{{NF: "x", Rule: rule}})
}

// mutate runs fn on the flow's span the way a firing event does.
func mutate(t *testing.T, tbl *event.Table, fid flow.FID, fn func(*LocalRule)) {
	t.Helper()
	err := tbl.Register(tbl.Entry(fid), event.Registration{Event: &event.Event{OneShot: true,
		Condition: func(sfunc.State) bool { return true },
		Update:    func(_ sfunc.State, r *LocalRule) { fn(r) }}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tbl.Check(fid) {
		if !f.Apply(0, 1) {
			t.Fatal("the firing found no recording to edit")
		}
	}
}

func TestLocalMATRecordingOrder(t *testing.T) {
	flows, tbl := newTable()
	fid := flow.FID(1)
	publish(flows, tbl, fid, &LocalRule{
		Actions: []HeaderAction{
			Modify(packet.FieldDstIP, []byte{1, 1, 1, 1}),
			Modify(packet.FieldDstPort, packet.PutUint16(8080)),
		},
		Funcs: []uint8{1, 0},
	})
	spans, _ := tbl.Recorded(fid)
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
// record keeps its own exactly sized copy, so the publisher may reuse
// its buffers and a later append to a stored span (an event Update)
// reallocates instead of growing into storage it does not own — the
// publisher's, or the next NF's span carved from the same array.
func TestLocalMATReplaceIsExactCopy(t *testing.T) {
	flows, tbl := newTable()
	buf := make([]HeaderAction, 1, 8)
	buf[0] = Forward()
	publishAll(flows, tbl, 1, 2, []Contribution{
		{NF: "x", Rule: &LocalRule{Actions: buf}},
		{NF: "y", Rule: &LocalRule{Actions: []HeaderAction{Drop()}}},
	})
	buf[0] = Drop()
	buf = append(buf, Drop())
	err := tbl.Register(tbl.Entry(1), event.Registration{Event: &event.Event{OneShot: true,
		Condition: func(sfunc.State) bool { return true },
		Update: func(_ sfunc.State, r *LocalRule) {
			if len(r.Actions) != 1 || cap(r.Actions) != 1 || r.Actions[0].Kind != ActionForward {
				t.Errorf("stored actions = %v (cap %d), want an exact copy of [forward]", r.Actions, cap(r.Actions))
			}
			r.Actions = append(r.Actions, Forward())
		}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tbl.Check(1) {
		if !f.Apply(0, 2) {
			t.Fatal("the firing found no recording to edit")
		}
	}
	if buf[1].Kind != ActionDrop {
		t.Error("append to the stored span wrote into the publisher's buffer")
	}
	if spans, _ := tbl.Recorded(1); len(spans[0].Actions) != 2 || len(spans[1].Actions) != 1 || spans[1].Actions[0].Kind != ActionDrop {
		t.Errorf("append to one span reached its neighbour: %v", spans)
	}
}

func TestLocalMATGetIsSnapshot(t *testing.T) {
	flows, tbl := newTable()
	fid := flow.FID(2)
	publish(flows, tbl, fid, &LocalRule{Actions: []HeaderAction{Forward()}})
	snap, _ := tbl.Recorded(fid)
	snap[0].Actions[0] = Drop()
	if again, _ := tbl.Recorded(fid); again[0].Actions[0].Kind != ActionForward {
		t.Error("Recorded returned an aliased span; mutation leaked into the record")
	}
}

func TestLocalMATLifecycle(t *testing.T) {
	flows, tbl := newTable()
	fid := flow.FID(3)
	publish(flows, tbl, fid, &LocalRule{Actions: []HeaderAction{Forward()}})
	if c := flows.Counts(); c.Records != 1 || c.Detached != 1 {
		t.Errorf("after a publish under a FID no flow holds: %+v", c)
	}
	ed := flows.Edit(fid, false)
	tbl.Remove(ed)
	ed.Done()
	if spans, _ := tbl.Recorded(fid); spans != nil {
		t.Error("recording survived Remove")
	}
	if c := flows.Counts(); c != (flow.Counts{}) {
		t.Errorf("the detached entry outlived what it held: %+v", c)
	}
	// Publish and mutate on a fresh record; a re-publish overwrites.
	publish(flows, tbl, fid, &LocalRule{Actions: []HeaderAction{Drop()}})
	publish(flows, tbl, fid, &LocalRule{Actions: []HeaderAction{Forward()}})
	mutate(t, tbl, fid, func(r *LocalRule) { r.Actions[0] = Drop() })
	if spans, _ := tbl.Recorded(fid); len(spans[0].Actions) != 1 || spans[0].Actions[0].Kind != ActionDrop {
		t.Errorf("Apply did not edit the span in place: %v", spans)
	}
}
