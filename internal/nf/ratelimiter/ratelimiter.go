// Package ratelimiter implements a per-source quota enforcer NF,
// exercising the paper's shared-state case (§IV-A2): "Some state may
// be shared by a collection of flows, and multiple flows may share a
// state function. In this case, we record the state function for all
// associated flows."
//
// The limiter tracks one packet counter per source address. Every flow
// from that source records a state function updating the *shared*
// counter, and registers an event whose condition reads the same
// shared counter — so when one flow exhausts the source's quota, the
// Event Table flips *every* flow of that source to drop as their next
// packets arrive. A flow's one word of per-flow state is its source
// address, by which both find the counter.
package ratelimiter

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

// Config configures a Limiter.
type Config struct {
	// Name is the NF instance name.
	Name string
	// Quota is the per-source packet budget; sources exceeding it are
	// blocked. Defaults to 1000.
	Quota uint64
}

// Limiter is the per-source quota NF.
type Limiter struct {
	name  string
	quota uint64
	flows core.FlowStates

	// counts maps a source to its packet counter, an *atomic.Uint64 made
	// on first use and never replaced: the flows' state functions charge
	// it and their guards read it with no lock. mu orders snapshots and
	// restores.
	counts sync.Map
	mu     sync.Mutex
}

// New builds a Limiter.
func New(cfg Config) (*Limiter, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("ratelimiter: empty name")
	}
	quota := cfg.Quota
	if quota == 0 {
		quota = 1000
	}
	l := &Limiter{name: cfg.Name, quota: quota}
	l.flows.Words = 1
	// The shared state function: every flow of the source records the
	// same count, an add to the source's counter, bound where the flow's
	// rule is built.
	l.flows.Funcs = []sfunc.Func{{Name: "quota", Class: sfunc.ClassIgnore,
		Adds: []sfunc.Add{{Cell: l.sourceCount, Operand: sfunc.One}}, Price: cost.CounterUpdate}}
	// The shared-condition event: it fires for a flow as soon as ANY flow
	// of the same source exhausts the quota. Probed before the packet's
	// state function charges the counter, count >= quota answers "would
	// this packet exceed it", exactly as Process decides in the chain.
	l.flows.Events = []event.Event{{Word: l.sourceCount, AtLeast: quota, Update: event.Drop, OneShot: true}}
	return l, nil
}

var _ core.Stateful = (*Limiter)(nil)

// Name implements core.NF.
func (l *Limiter) Name() string { return l.name }

// FlowStates implements core.Stateful.
func (l *Limiter) FlowStates() *core.FlowStates { return &l.flows }

// source is the flow's source address, its one state word.
func source(st core.State) (src [4]byte) {
	binary.BigEndian.PutUint32(src[:], uint32(st[0].Load()))
	return src
}

// limiterState is the gob image of the limiter: the cross-flow quota
// state — a flow's binding to its source is its state word. Without it
// a restored engine brings back the rules but forgets which sources
// were blocked. A source is blocked once its count exceeds the quota,
// as counts only grow, so the counts are the whole image.
type limiterState struct {
	Counts map[[4]byte]uint64
}

var _ core.Snapshotter = (*Limiter)(nil)

// SnapshotState implements core.Snapshotter.
func (l *Limiter) SnapshotState() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := limiterState{Counts: make(map[[4]byte]uint64)}
	l.counts.Range(func(src, c any) bool {
		st.Counts[src.([4]byte)] = c.(*atomic.Uint64).Load()
		return true
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("ratelimiter: snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState implements core.Snapshotter, replacing all quota state
// in the counters the flows' guards already read.
func (l *Limiter) RestoreState(data []byte) error {
	var st limiterState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("ratelimiter: restore: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.counts.Range(func(src, c any) bool {
		c.(*atomic.Uint64).Store(st.Counts[src.([4]byte)])
		return true
	})
	for src, n := range st.Counts {
		l.counter(src).Store(n)
	}
	return nil
}

// counter returns the source's shared packet counter, made on first use.
func (l *Limiter) counter(src [4]byte) *atomic.Uint64 {
	c, ok := l.counts.Load(src)
	if !ok {
		c, _ = l.counts.LoadOrStore(src, new(atomic.Uint64))
	}
	return c.(*atomic.Uint64)
}

// Count returns the shared packet counter for a source.
func (l *Limiter) Count(src [4]byte) uint64 {
	if c, ok := l.counts.Load(src); ok {
		return c.(*atomic.Uint64).Load()
	}
	return 0
}

// Blocked reports whether the source exhausted its quota.
func (l *Limiter) Blocked(src [4]byte) bool { return l.Count(src) > l.quota }

// sourceCount is the cell of the shared count and event condition: the
// counter of the flow's *source*, which every flow from that source charges.
func (l *Limiter) sourceCount(st core.State) *atomic.Uint64 { return l.counter(source(st)) }

// Process implements core.NF.
func (l *Limiter) Process(ctx *core.Ctx, pkt *packet.Packet) (core.Verdict, error) {
	ctx.Charge(ctx.Model.Parse + ctx.Model.Classify)
	ft, err := pkt.FiveTuple()
	if err != nil {
		return 0, fmt.Errorf("ratelimiter %s: %w", l.name, err)
	}
	ctx.Charge(ctx.Model.CounterUpdate)
	if l.counter(ft.SrcIP).Add(1) > l.quota {
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
	ctx.FlowState(&l.flows)[0].Store(uint64(binary.BigEndian.Uint32(ft.SrcIP[:])))
	if err := ctx.AddStateFunc(0); err != nil {
		return 0, err
	}
	if err := ctx.RegisterEvent(0); err != nil {
		return 0, err
	}
	return core.VerdictForward, nil
}
