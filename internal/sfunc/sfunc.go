// Package sfunc implements SpeedyBox's state-function abstraction
// (paper §IV-A2) and the parallel batch executor (§V-C2).
//
// A state function is an NF-provided handler that updates NF internal
// state and/or inspects the packet payload. The NF declares it once and
// records it for a flow by index, with the flow's state words as its
// argument. All state functions an NF records for one flow form a
// batch; batches execute in chain order, and functions within a batch
// execute in recording order, preserving
// the NF's code dependencies (§IV-B). Batches from different NFs may
// execute in parallel when the payload-dependency analysis of Table I
// allows it.
//
// That parallelism is planned and charged, executed inline: Plan groups
// batches into Table-I stages and Execute charges a stage as the paper
// measures it (max(batch cycles) + fork/join), but runs every batch to
// completion on the calling goroutine, in chain order. Nothing in this
// package starts a goroutine or allocates per packet.
package sfunc

import (
	"errors"
	"fmt"
	"sync/atomic"
	"unsafe"

	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// PayloadClass describes how a state function interacts with the
// packet payload (§IV-A2). The priority ordering Write > Read > Ignore
// determines a batch's class (§V-C2).
type PayloadClass int

// Payload classes. Enum starts at one so the zero value is invalid.
const (
	// ClassIgnore functions neither read nor modify the payload
	// (e.g. per-flow counters).
	ClassIgnore PayloadClass = iota + 1
	// ClassRead functions read the payload (e.g. Snort inspection).
	ClassRead
	// ClassWrite functions modify the payload.
	ClassWrite
)

// String returns the class name used in Table I.
func (c PayloadClass) String() string {
	switch c {
	case ClassIgnore:
		return "ignore"
	case ClassRead:
		return "read"
	case ClassWrite:
		return "write"
	default:
		return fmt.Sprintf("PayloadClass(%d)", int(c))
	}
}

// Valid reports whether c is a defined class.
func (c PayloadClass) Valid() bool {
	return c >= ClassIgnore && c <= ClassWrite
}

// priority implements Write > Read > Ignore.
func (c PayloadClass) priority() int {
	switch c {
	case ClassWrite:
		return 3
	case ClassRead:
		return 2
	case ClassIgnore:
		return 1
	default:
		return 0
	}
}

// State is one NF's per-flow state: the 64-bit words the NF declared,
// all zero until the NF first writes them (event.FlowStates). They are
// atomics because a flow has one writer only by RSS's promise, and
// because an NF's reporting methods read them from goroutines other than
// the flow's worker.
type State []atomic.Uint64

// Zero reports whether every word is zero: a slot its NF never used.
func (s State) Zero() bool {
	for i := range s {
		if s[i].Load() != 0 {
			return false
		}
	}
	return true
}

// Args is what a recorded state function runs on, the paper's handler
// argument (localmat_add_SF(fid, h, t, a)): the flow, the recording NF's
// state words on it, and the cost model of the engine running the rule,
// whose cycles the handler charges.
type Args struct {
	FID   flow.FID
	State State
	Model *cost.Model
}

// Handler is a state function's body. Handlers receive the flow's
// arguments and the packet and return the work cycles consumed, which
// the executor charges to the owning NF's stage. Handlers must honour
// their declared PayloadClass: a ClassRead handler must not modify the
// payload. The planner relies on that contract for the validity of the
// charged critical path: a stage is only as parallel as its classes are
// honest.
type Handler func(a Args, pkt *packet.Packet) (cycles uint64, err error)

// Func is one declared state function: the handler plus the metadata
// the localmat_add_SF API collects (paper Figure 2). An NF declares its
// functions once (event.FlowStates) and records them for a flow by
// index, so what a flow's rule carries is data — an index and the
// flow's arguments — and never a closure of its own.
type Func struct {
	// Name identifies the function for logs and tests.
	Name string
	// Class is the declared payload interaction.
	Class PayloadClass
	// Run is the handler.
	Run Handler
}

// Validate reports whether the function is well-formed.
func (f Func) Validate() error {
	if f.Run == nil {
		return fmt.Errorf("sfunc: %q has nil handler", f.Name)
	}
	if !f.Class.Valid() {
		return fmt.Errorf("sfunc: %q has invalid payload class %d", f.Name, int(f.Class))
	}
	return nil
}

// Site is an NF's place in a chain, what every batch the NF records
// there shares: its name (its ledger stage) and chain position, its
// declared state functions, and the cost model of the engine running
// the chain, whose cycles they charge.
type Site struct {
	NF    string
	At    int
	Funcs []Func
	Model *cost.Model
}

// Batch is the ordered list of state functions one NF recorded for a
// flow ("we define all state functions of a rule as a state function
// batch, and all state functions in a batch should be executed in
// sequence", §V-C1): indices into its Site's declared functions, bound
// to the flow's state words.
type Batch struct {
	*Site
	// Calls are the indices of the functions the NF recorded, in
	// recording order.
	Calls []uint8
	// FID is the flow. state and words are its State as a pointer and a
	// length: a slice's capacity word would cost every batch of every
	// rule 16 bytes (mat.Consolidate carves Chain1's two into its block).
	FID   flow.FID
	words uint32
	state *atomic.Uint64
}

// NewBatch binds calls of the site's functions to a flow's state.
func NewBatch(site *Site, calls []uint8, fid flow.FID, st State) Batch {
	b := Batch{Site: site, Calls: calls, FID: fid, words: uint32(len(st))}
	if len(st) > 0 {
		b.state = &st[0]
	}
	return b
}

// State returns the flow's state words the batch runs on.
func (b *Batch) State() State {
	if b.state == nil {
		return nil
	}
	return unsafe.Slice(b.state, b.words)
}

// Class returns the batch's effective payload class: the class of the
// highest-priority function it calls (§V-C2: "a batch with {read,
// read, write} is determined as write"). An empty batch is
// ClassIgnore.
func (b *Batch) Class() PayloadClass {
	best := ClassIgnore
	for _, i := range b.Calls {
		if c := b.Funcs[i].Class; c.priority() > best.priority() {
			best = c
		}
	}
	return best
}

// Empty reports whether the batch calls nothing.
func (b *Batch) Empty() bool { return len(b.Calls) == 0 }

// ErrBatchFailed wraps state-function execution errors.
var ErrBatchFailed = errors.New("sfunc: state function failed")

// RunSequential executes the batch's functions in order on pkt,
// returning the total cycles consumed. Execution stops at the first
// error.
func (b *Batch) RunSequential(pkt *packet.Packet) (uint64, error) {
	var total uint64
	a := Args{FID: b.FID, State: b.State(), Model: b.Model}
	for _, i := range b.Calls {
		f := &b.Funcs[i]
		c, err := f.Run(a, pkt)
		total += c
		if err != nil {
			return total, fmt.Errorf("%w: %s/%s: %w", ErrBatchFailed, b.NF, f.Name, err)
		}
	}
	return total, nil
}

// Parallelizable implements Table I plus the accompanying text: two
// adjacent batches can run concurrently unless one of them writes the
// payload while the other touches it ("if batch1 writes the payload,
// they cannot be parallelized unless batch2 ignores the payload").
// Read/read and anything involving ignore are parallelizable. Header
// dependencies need no analysis here because the Global MAT has
// already consolidated all header actions of the flow (§V-C2).
func Parallelizable(b1, b2 PayloadClass) bool {
	if b1 == ClassWrite && b2 != ClassIgnore {
		return false
	}
	if b2 == ClassWrite && b1 != ClassIgnore {
		return false
	}
	return true
}
