// Package sfunc implements SpeedyBox's state-function abstraction
// (paper §IV-A2) and the parallel batch executor (§V-C2).
//
// A state function updates NF internal state and/or inspects the packet
// payload. The NF declares it once, as data or as a handler, and records
// it for a flow by index, with the flow's state words as its argument.
// One declared as data is adds to the flow's words or to cells they name
// — each by one, the packet's length or its SYN flag — and a price the
// cost model names (Monitor's count, the rate limiter's quota); a handler
// is NF code that returns its cycles (Snort's inspection). All state
// functions an NF records for one flow form a batch; batches execute in
// chain order, and functions within a batch execute in recording order,
// preserving the NF's code dependencies (§IV-B). Batches from different
// NFs may execute in parallel when the payload-dependency analysis of
// Table I allows it.
//
// That parallelism is planned and charged, executed inline: Plan groups
// batches into Table-I stages and Execute charges a stage as the paper
// measures it (max(batch cycles) + fork/join), but runs every batch to
// completion on the calling goroutine, in chain order. A rule whose
// functions are all declared as data is priced once, by the same stage
// formula, and run as a flat loop of its adds (Exec). Nothing in this
// package starts a goroutine or allocates per packet.
package sfunc

import (
	"errors"
	"fmt"
	"math"
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

// Operand is what a declared add adds to its word.
type Operand uint8

// Operands. Enum starts at one so the zero value is invalid.
const (
	// One counts: the word grows by one a packet.
	One Operand = iota + 1
	// Length sums: the word grows by the packet's length in bytes.
	Length
	// SYN counts TCP SYNs: the word grows by one a packet carrying the
	// SYN flag, whatever else it carries.
	SYN
)

// Add is one step of a state function declared as data: word Word of
// the flow's state grows by Operand, or the cell Cell resolves from it,
// if set (one several flows share). Like an event's condition word, Cell
// runs where a rule is built (ExecIn); per packet only in a rule with a
// handler, whose batches run by RunSequential.
type Add struct {
	Cell    func(st State) *atomic.Uint64
	Word    uint8
	Operand Operand
}

// word is the word the add grows on the flow's state st.
func (a *Add) word(st State) *atomic.Uint64 {
	if a.Cell != nil {
		return a.Cell(st)
	}
	return &st[a.Word]
}

// Func is one declared state function: its body plus the metadata the
// localmat_add_SF API collects (paper Figure 2). The body is either
// data — Adds and a Price — or a handler, Run, never both: a function
// that only counts into the flow's words is data, and the fast path runs
// it without calling anything. An NF declares its functions once
// (event.FlowStates) and records them for a flow by index, so what a
// flow's rule carries is data — an index and the flow's arguments — and
// never a closure of its own.
type Func struct {
	// Name identifies the function for logs and tests.
	Name string
	// Class is the declared payload interaction.
	Class PayloadClass
	// Adds, in order, and the primitive each run is charged declare the
	// function as data. A rule refuses an add to a word its NF's
	// FlowStates does not declare (ExecIn).
	Adds  []Add
	Price cost.Price
	// Run is the handler of a function that is not data.
	Run Handler
}

// Data reports whether the function is declared as data.
func (f *Func) Data() bool { return f.Run == nil }

// Call runs the function once on the flow's arguments and pkt and
// returns its cycles: one declared as data runs its adds and costs its
// price. It is the one body of a function, which the NF's slow-path run
// (core.Ctx.Run) and a rule's (RunSequential) both call.
func (f *Func) Call(a Args, pkt *packet.Packet) (uint64, error) {
	if f.Run != nil {
		return f.Run(a, pkt)
	}
	for _, add := range f.Adds {
		Inc{word: add.word(a.State), operand: add.Operand}.grow(pkt)
	}
	return a.Model.Cycles(f.Price), nil
}

// Validate reports whether the function is well-formed: a handler or
// declared as data — adds of a valid operand and a price — but not both.
func (f Func) Validate() error {
	data := f.Price != 0 || len(f.Adds) > 0
	switch {
	case f.Run != nil && data:
		return fmt.Errorf("sfunc: %q is both a handler and declared as data", f.Name)
	case f.Run == nil && !data:
		return fmt.Errorf("sfunc: %q is neither a handler nor declared as data", f.Name)
	case data && !f.Price.Valid():
		return fmt.Errorf("sfunc: %q is priced at no primitive of the cost model (%d)", f.Name, f.Price)
	case !f.Class.Valid():
		return fmt.Errorf("sfunc: %q has invalid payload class %d", f.Name, int(f.Class))
	}
	for _, a := range f.Adds {
		if a.Operand < One || a.Operand > SYN {
			return fmt.Errorf("sfunc: %q adds an invalid operand %d to word %d", f.Name, a.Operand, a.Word)
		}
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
	// calls are the indices of the functions the NF recorded, in
	// recording order, and state the flow's State, each as a pointer and
	// a length (n, words): a slice's length and capacity words would cost
	// every batch of every rule 32 bytes (mat.Consolidate carves Chain1's
	// two into its block).
	calls *uint8
	state *atomic.Uint64
	// FID is the flow.
	FID      flow.FID
	n, words uint16
}

// MaxBatch is the most calls, and the most state words, a batch binds.
const MaxBatch = math.MaxUint16

// NewBatch binds calls of the site's functions to a flow's state; each
// is at most MaxBatch long.
func NewBatch(site *Site, calls []uint8, fid flow.FID, st State) (b Batch) {
	b.Bind(site, calls, fid, st)
	return b
}

// Bind makes b, field by field, the batch NewBatch returns: one stored in
// place is not built on the stack and copied out.
func (b *Batch) Bind(site *Site, calls []uint8, fid flow.FID, st State) {
	b.Site, b.FID, b.n, b.words = site, fid, uint16(len(calls)), uint16(len(st))
	b.calls, b.state = nil, nil
	if len(calls) > 0 {
		b.calls = &calls[0]
	}
	if len(st) > 0 {
		b.state = &st[0]
	}
}

// Calls returns the indices of the functions the batch calls, in order.
func (b *Batch) Calls() []uint8 { return unsafe.Slice(b.calls, b.n) }

// State returns the flow's state words the batch runs on.
func (b *Batch) State() State { return unsafe.Slice(b.state, b.words) }

// Class returns the batch's effective payload class: the class of the
// highest-priority function it calls (§V-C2: "a batch with {read,
// read, write} is determined as write"). An empty batch is
// ClassIgnore.
func (b *Batch) Class() PayloadClass {
	best := ClassIgnore
	for _, i := range b.Calls() {
		if c := b.Funcs[i].Class; c.priority() > best.priority() {
			best = c
		}
	}
	return best
}

// Empty reports whether the batch calls nothing.
func (b *Batch) Empty() bool { return b.n == 0 }

// ErrBatchFailed wraps state-function execution errors.
var ErrBatchFailed = errors.New("sfunc: state function failed")

// RunSequential executes the batch's functions in order on pkt,
// returning the total cycles consumed: a function declared as data runs
// its adds and is charged its price. Execution stops at the first
// error.
func (b *Batch) RunSequential(pkt *packet.Packet) (uint64, error) {
	var total uint64
	a := Args{FID: b.FID, State: b.State(), Model: b.Model}
	for _, i := range b.Calls() {
		f := &b.Funcs[i]
		c, err := f.Call(a, pkt)
		total += c
		if err != nil {
			return total, fmt.Errorf("%w: %s/%s: %w", ErrBatchFailed, b.NF, f.Name, err)
		}
	}
	return total, nil
}

// price is what a run of the batch is charged, without running it, and
// whether every function it calls is declared as data: a handler's
// cycles only a run knows.
func (b *Batch) price() (uint64, bool) {
	var total uint64
	for _, i := range b.Calls() {
		f := &b.Funcs[i]
		if !f.Data() {
			return 0, false
		}
		total += b.Model.Cycles(f.Price)
	}
	return total, true
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
