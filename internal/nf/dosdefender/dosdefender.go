// Package dosdefender implements the DoS Prevention NF from the
// paper's Event Table walkthrough (Figure 3): it monitors TCP SYN
// flags per flow and, when a flow's SYN count exceeds a threshold,
// triggers an event that replaces the flow's forward action with a
// drop action in the consolidated rule.
package dosdefender

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"

	"github.com/fastpathnfv/speedybox/internal/core"
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
	// blocked; Figure 3 uses flow_cnt > 100. Defaults to 100.
	SYNThreshold uint64
}

// Defender is the DoS prevention NF.
type Defender struct {
	name      string
	threshold uint64

	mu      sync.Mutex
	synCnt  map[flow.FID]uint64
	blocked map[flow.FID]bool
}

// New builds a Defender.
func New(cfg Config) (*Defender, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("dosdefender: empty name")
	}
	th := cfg.SYNThreshold
	if th == 0 {
		th = 100
	}
	return &Defender{
		name:      cfg.Name,
		threshold: th,
		synCnt:    make(map[flow.FID]uint64),
		blocked:   make(map[flow.FID]bool),
	}, nil
}

var _ core.NF = (*Defender)(nil)

// Name implements core.NF.
func (d *Defender) Name() string { return d.name }

var _ core.FlowCloser = (*Defender)(nil)

// FlowClosed implements core.FlowCloser: the flow's SYN counter and
// block mark are released.
func (d *Defender) FlowClosed(fid flow.FID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.synCnt, fid)
	delete(d.blocked, fid)
}

// defenderState is the gob image of the defender's per-flow state.
// Without it a restored engine brings back the rules but forgets which
// flows were blocked.
type defenderState struct {
	SYNCnt  map[flow.FID]uint64
	Blocked map[flow.FID]bool
}

var _ core.Snapshotter = (*Defender)(nil)

// SnapshotState implements core.Snapshotter.
func (d *Defender) SnapshotState() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(defenderState{d.synCnt, d.blocked}); err != nil {
		return nil, fmt.Errorf("dosdefender: snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState implements core.Snapshotter, replacing all per-flow
// state. gob omits empty maps, so a snapshot taken before any traffic
// restores to empty maps, not nil ones.
func (d *Defender) RestoreState(data []byte) error {
	st := defenderState{
		SYNCnt:  make(map[flow.FID]uint64),
		Blocked: make(map[flow.FID]bool),
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("dosdefender: restore: %w", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.synCnt, d.blocked = st.SYNCnt, st.Blocked
	return nil
}

// SYNCount returns a flow's SYN counter.
func (d *Defender) SYNCount(fid flow.FID) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.synCnt[fid]
}

// Blocked reports whether the flow crossed the threshold.
func (d *Defender) Blocked(fid flow.FID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.blocked[fid]
}

// observe counts a packet's SYN flag and returns whether the flow is
// (now) over threshold.
func (d *Defender) observe(fid flow.FID, pkt *packet.Packet) bool {
	flags, ok := pkt.TCPFlags()
	d.mu.Lock()
	defer d.mu.Unlock()
	if ok && flags&packet.TCPFlagSYN != 0 {
		d.synCnt[fid]++
	}
	if d.synCnt[fid] > d.threshold {
		d.blocked[fid] = true
	}
	return d.blocked[fid]
}

// overThreshold is the event condition (flow_cnt > threshold in
// Figure 3).
func (d *Defender) overThreshold(fid flow.FID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.blocked[fid]
}

// Process implements core.NF.
func (d *Defender) Process(ctx *core.Ctx, pkt *packet.Packet) (core.Verdict, error) {
	ctx.Charge(ctx.Model.Parse + ctx.Model.Classify)
	fid := ctx.FID
	over := d.observe(fid, pkt)
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
	counterUpdate := ctx.Model.CounterUpdate
	// The SYN counting handler: inspects TCP flags only, so it
	// ignores the payload (parallel-compatible with anything).
	if err := ctx.AddStateFunc(sfunc.Func{
		Name:  "syncount",
		Class: sfunc.ClassIgnore,
		Run: func(p *packet.Packet) (uint64, error) {
			d.observe(fid, p)
			return counterUpdate, nil
		},
	}); err != nil {
		return 0, err
	}
	// Figure 3's event: when the counter crosses the threshold,
	// replace the forward action with drop and reconsolidate.
	if err := ctx.RegisterEvent(event.Event{
		Condition: d.overThreshold,
		OneShot:   true,
		Update: func(_ flow.FID, r *mat.LocalRule) {
			r.Actions = []mat.HeaderAction{mat.Drop()}
		},
	}); err != nil {
		return 0, err
	}
	return core.VerdictForward, nil
}
