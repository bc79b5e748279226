// Package ratelimiter implements a per-source quota enforcer NF,
// exercising the paper's shared-state case (§IV-A2): "Some state may
// be shared by a collection of flows, and multiple flows may share a
// state function. In this case, we record the state function for all
// associated flows."
//
// The limiter tracks one packet counter per source address. Every flow
// from that source records a state function updating the *shared*
// counter, and registers an event whose condition reads the same
// shared state — so when one flow exhausts the source's quota, the
// Event Table flips *every* flow of that source to drop as their next
// packets arrive. A flow's one word of per-flow state is its source
// address, which both run on.
package ratelimiter

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"sync"

	"github.com/fastpathnfv/speedybox/internal/core"
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

	mu      sync.Mutex
	counts  map[[4]byte]uint64
	blocked map[[4]byte]bool
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
	l := &Limiter{
		name:    cfg.Name,
		quota:   quota,
		counts:  make(map[[4]byte]uint64),
		blocked: make(map[[4]byte]bool),
	}
	l.flows.Words = 1
	// The shared state function: every flow of the source records the
	// same counting handler against the same counter.
	l.flows.Funcs = []sfunc.Func{{Name: "quota", Class: sfunc.ClassIgnore, Run: l.charge}}
	// The shared-condition event: it fires for a flow as soon as ANY
	// flow of the same source exhausts the quota.
	l.flows.Events = []event.Event{{Condition: l.sourceBlocked, Update: drop, OneShot: true}}
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
// were blocked.
type limiterState struct {
	Counts  map[[4]byte]uint64
	Blocked map[[4]byte]bool
}

var _ core.Snapshotter = (*Limiter)(nil)

// SnapshotState implements core.Snapshotter.
func (l *Limiter) SnapshotState() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(limiterState{l.counts, l.blocked}); err != nil {
		return nil, fmt.Errorf("ratelimiter: snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState implements core.Snapshotter, replacing all quota state.
// gob omits empty maps, so a snapshot taken before any traffic restores
// to empty maps, not nil ones.
func (l *Limiter) RestoreState(data []byte) error {
	st := limiterState{
		Counts:  make(map[[4]byte]uint64),
		Blocked: make(map[[4]byte]bool),
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("ratelimiter: restore: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.counts, l.blocked = st.Counts, st.Blocked
	return nil
}

// Count returns the shared packet counter for a source.
func (l *Limiter) Count(src [4]byte) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[src]
}

// Blocked reports whether the source exhausted its quota.
func (l *Limiter) Blocked(src [4]byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.blocked[src]
}

// observe charges one packet against the source's shared quota and
// returns whether the source is (now) blocked.
func (l *Limiter) observe(src [4]byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.counts[src]++
	if l.counts[src] > l.quota {
		l.blocked[src] = true
	}
	return l.blocked[src]
}

// charge is the declared state function: observe on the flow's source.
func (l *Limiter) charge(a sfunc.Args, _ *packet.Packet) (uint64, error) {
	l.observe(source(a.State))
	return a.Model.CounterUpdate, nil
}

// sourceBlocked is the shared event condition: it reads the state of
// the flow's *source*, which every flow from that source updates. The
// fast path probes events before the packet's state function charges
// the counter, so the condition answers "would this packet exceed the
// quota" — the packet that takes the source to quota+1 is the first
// dropped, exactly as observe decides in the chain.
func (l *Limiter) sourceBlocked(st core.State) bool {
	src := source(st)
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.blocked[src] || l.counts[src] >= l.quota
}

// drop is the event's update.
func drop(_ core.State, r *mat.LocalRule) { r.Actions = []mat.HeaderAction{mat.Drop()} }

// Process implements core.NF.
func (l *Limiter) Process(ctx *core.Ctx, pkt *packet.Packet) (core.Verdict, error) {
	ctx.Charge(ctx.Model.Parse + ctx.Model.Classify)
	ft, err := pkt.FiveTuple()
	if err != nil {
		return 0, fmt.Errorf("ratelimiter %s: %w", l.name, err)
	}
	over := l.observe(ft.SrcIP)
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
	ctx.FlowState(&l.flows)[0].Store(uint64(binary.BigEndian.Uint32(ft.SrcIP[:])))
	if err := ctx.AddStateFunc(0); err != nil {
		return 0, err
	}
	if err := ctx.RegisterEvent(0); err != nil {
		return 0, err
	}
	return core.VerdictForward, nil
}
