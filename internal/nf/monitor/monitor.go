// Package monitor implements the network Monitor NF commonly used in
// the NFV literature (paper §VI-C): it maintains per-flow packet and
// byte counters, forwarding every packet unmodified. Its counting
// logic is a payload-ignoring state function, so on the fast path it
// parallelizes with any neighbour per Table I.
package monitor

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync/atomic"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

// Counters is one flow's statistics, or a sum of them.
type Counters struct {
	Packets uint64
	Bytes   uint64
}

// Monitor is the NF. A flow's counters are two words of per-flow state
// on its flow record — packets, then bytes — which the recorded state
// function, declared as two adds, adds to directly; they are read from
// other goroutines (Totals, Flow), so both sides use the words' atomic
// operations. The monitor trusts the SpeedyBox classifier's flow
// identity, which is stable across header rewrites.
type Monitor struct {
	name  string
	flows core.FlowStates
	// closedPackets and closedBytes sum the counters of flows that have
	// ended: the one thing the monitor keeps itself.
	closedPackets, closedBytes atomic.Uint64
}

// New builds a Monitor.
func New(name string) (*Monitor, error) {
	if name == "" {
		return nil, fmt.Errorf("monitor: empty name")
	}
	m := &Monitor{name: name}
	m.flows.Words = 2
	// Counting is data: the fast path adds to the words itself.
	m.flows.Funcs = []sfunc.Func{{Name: "count", Class: sfunc.ClassIgnore,
		Adds: []sfunc.Add{{Word: 0, Operand: sfunc.One}, {Word: 1, Operand: sfunc.Length}}, Price: cost.CounterUpdate}}
	m.flows.Leave = m.left
	return m, nil
}

var _ core.Stateful = (*Monitor)(nil)

// Name implements core.NF.
func (m *Monitor) Name() string { return m.name }

// FlowStates implements core.Stateful.
func (m *Monitor) FlowStates() *core.FlowStates { return &m.flows }

func counters(st core.State) Counters {
	return Counters{Packets: st[0].Load(), Bytes: st[1].Load()}
}

// left folds an ended flow into the closed aggregate, so Totals goes on
// counting it.
func (m *Monitor) left(st core.State, ended bool) {
	if ended {
		c := counters(st)
		m.closedPackets.Add(c.Packets)
		m.closedBytes.Add(c.Bytes)
	}
}

// Flow returns a snapshot of one live flow's counters.
func (m *Monitor) Flow(fid flow.FID) (Counters, bool) {
	st := m.flows.Of(fid)
	if st == nil {
		return Counters{}, false
	}
	return counters(st), true
}

// Flows returns the number of live flows the monitor has counted.
func (m *Monitor) Flows() int {
	n := 0
	m.flows.Each(func(flow.FID, core.State) { n++ })
	return n
}

// Totals sums counters over all flows, live and ended. It is exact
// between packets; under traffic a flow ending mid-sum may be counted
// twice or not at all.
func (m *Monitor) Totals() Counters {
	t := Counters{Packets: m.closedPackets.Load(), Bytes: m.closedBytes.Load()}
	m.flows.Each(func(_ flow.FID, st core.State) {
		c := counters(st)
		t.Packets += c.Packets
		t.Bytes += c.Bytes
	})
	return t
}

var _ core.Snapshotter = (*Monitor)(nil)

// SnapshotState implements core.Snapshotter: the ended flows' aggregate.
// Live flows' counters travel on their flow records.
func (m *Monitor) SnapshotState() ([]byte, error) {
	var buf bytes.Buffer
	closed := Counters{Packets: m.closedPackets.Load(), Bytes: m.closedBytes.Load()}
	if err := gob.NewEncoder(&buf).Encode(closed); err != nil {
		return nil, fmt.Errorf("monitor: snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState implements core.Snapshotter.
func (m *Monitor) RestoreState(data []byte) error {
	var closed Counters
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&closed); err != nil {
		return fmt.Errorf("monitor: restore: %w", err)
	}
	m.closedPackets.Store(closed.Packets)
	m.closedBytes.Store(closed.Bytes)
	return nil
}

// Process implements core.NF. It counts the packet by its declared
// count, the state function the fast path runs, and on the initial
// packet records a forward action and the count over the flow's counters
// — the very words the slow path just counted into, so slow- and
// fast-path packets hit the same counter.
func (m *Monitor) Process(ctx *core.Ctx, pkt *packet.Packet) (core.Verdict, error) {
	ctx.Charge(ctx.Model.Parse + ctx.Model.Classify)
	if err := ctx.Run(&m.flows, 0, pkt); err != nil {
		return 0, err
	}
	if err := ctx.AddHeaderAction(pkt, mat.Forward()); err != nil {
		return 0, err
	}
	return core.VerdictForward, ctx.AddStateFunc(0)
}
