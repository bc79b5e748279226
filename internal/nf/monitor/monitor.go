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
	"sync"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

// Counters is one flow's statistics.
type Counters struct {
	Packets uint64
	Bytes   uint64
}

// Monitor is the NF. Counters are keyed by FID: the monitor trusts the
// SpeedyBox classifier's flow identity, which is stable across header
// rewrites.
type Monitor struct {
	name string

	mu       sync.Mutex
	counters map[flow.FID]*Counters
}

// New builds a Monitor.
func New(name string) (*Monitor, error) {
	if name == "" {
		return nil, fmt.Errorf("monitor: empty name")
	}
	return &Monitor{name: name, counters: make(map[flow.FID]*Counters)}, nil
}

var _ core.NF = (*Monitor)(nil)

// Name implements core.NF.
func (m *Monitor) Name() string { return m.name }

// Flow returns a snapshot of one flow's counters.
func (m *Monitor) Flow(fid flow.FID) (Counters, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[fid]
	if !ok {
		return Counters{}, false
	}
	return *c, true
}

// Flows returns the number of tracked flows.
func (m *Monitor) Flows() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.counters)
}

// Totals sums counters over all flows.
func (m *Monitor) Totals() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	var t Counters
	for _, c := range m.counters {
		t.Packets += c.Packets
		t.Bytes += c.Bytes
	}
	return t
}

var _ core.Snapshotter = (*Monitor)(nil)

// SnapshotState implements core.Snapshotter: the per-flow counters,
// gob-encoded by value.
func (m *Monitor) SnapshotState() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	flat := make(map[flow.FID]Counters, len(m.counters))
	for fid, c := range m.counters {
		flat[fid] = *c
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(flat); err != nil {
		return nil, fmt.Errorf("monitor: snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState implements core.Snapshotter, replacing all counters.
func (m *Monitor) RestoreState(data []byte) error {
	var flat map[flow.FID]Counters
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&flat); err != nil {
		return fmt.Errorf("monitor: restore: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counters = make(map[flow.FID]*Counters, len(flat))
	for fid, c := range flat {
		cc := c
		m.counters[fid] = &cc
	}
	return nil
}

func (m *Monitor) count(fid flow.FID, nbytes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[fid]
	if !ok {
		c = &Counters{}
		m.counters[fid] = c
	}
	c.Packets++
	c.Bytes += uint64(nbytes)
}

// Process implements core.NF. On the initial packet it records a
// forward action and registers its counting handler as a
// payload-ignoring state function; the handler closure is exactly what
// the fast path invokes afterwards, so slow- and fast-path packets hit
// the same counter.
func (m *Monitor) Process(ctx *core.Ctx, pkt *packet.Packet) (core.Verdict, error) {
	ctx.Charge(ctx.Model.Parse + ctx.Model.Classify)
	fid := ctx.FID
	m.count(fid, pkt.Len())
	ctx.Charge(ctx.Model.CounterUpdate)
	if !ctx.Recording() {
		return core.VerdictForward, nil
	}

	if err := ctx.AddHeaderAction(mat.Forward()); err != nil {
		return 0, err
	}
	counterUpdate := ctx.Model.CounterUpdate
	err := ctx.AddStateFunc(sfunc.Func{
		Name:  "count",
		Class: sfunc.ClassIgnore,
		Run: func(p *packet.Packet) (uint64, error) {
			m.count(fid, p.Len())
			return counterUpdate, nil
		},
	})
	if err != nil {
		return 0, err
	}
	return core.VerdictForward, nil
}
