package sfunc

import (
	"fmt"
	"strings"
	"sync/atomic"
	"unsafe"

	"github.com/fastpathnfv/speedybox/internal/packet"
)

// Schedule is an execution plan for a flow's state-function batches: a
// sequence of stages, each holding the indices of batches that Table I
// allows to run concurrently. Stages execute in order; the batches of
// a stage are charged as parallel and executed inline (see Execute).
// The zero Schedule runs nothing.
type Schedule struct {
	// plan is the stages flattened into one slice, each as its length
	// followed by its batch indices: [2 0 1 1 2] is [0 1] then [2].
	plan []uint32
}

// Plan computes a schedule for the batches in chain order, greedily
// packing consecutive batches into a parallel stage while every pair
// in the stage satisfies Table I. Chain order is preserved across
// stages, which keeps the NF logic equivalent: a batch never starts
// before a non-parallelizable predecessor finishes.
func Plan(batches []Batch) Schedule { return PlanIn(nil, batches) }

// PlanIn is Plan building the schedule in buf's storage when it holds
// planSize(len(batches)) entries, and in one allocation otherwise.
func PlanIn(buf []uint32, batches []Batch) Schedule {
	if cap(buf) < planSize(len(batches)) {
		buf = make([]uint32, 0, planSize(len(batches)))
	}
	p := buf[:0]
	open := -1 // where the open stage's length word is
	for i := range batches {
		b := &batches[i]
		if b.Empty() {
			continue
		}
		if open >= 0 {
			c := b.Class()
			for _, j := range p[open+1:] {
				if !Parallelizable(batches[j].Class(), c) {
					open = -1
					break
				}
			}
		}
		if open < 0 {
			open = len(p)
			p = append(p, 0)
		}
		p[open]++
		p = append(p, uint32(i))
	}
	return Schedule{plan: p[:len(p):len(p)]}
}

// planSize is the most entries a schedule of n batches takes: each
// batch its index, each stage — at most one a batch — its length.
func planSize(n int) int { return 2 * n }

// each calls fn with every stage's batch indices, in order.
func (s Schedule) each(fn func(stage []uint32)) {
	for p := s.plan; len(p) > 0; {
		n := 1 + int(p[0])
		fn(p[1:n])
		p = p[n:]
	}
}

// Len returns the number of stages.
func (s Schedule) Len() int {
	n := 0
	s.each(func([]uint32) { n++ })
	return n
}

// ParallelStages returns how many stages contain more than one batch.
func (s Schedule) ParallelStages() int {
	n := 0
	s.each(func(st []uint32) {
		if len(st) > 1 {
			n++
		}
	})
	return n
}

// Stages returns the batch indices of each stage, in a fresh copy.
func (s Schedule) Stages() [][]int {
	var out [][]int
	s.each(func(st []uint32) {
		stage := make([]int, len(st))
		for i, j := range st {
			stage[i] = int(j)
		}
		out = append(out, stage)
	})
	return out
}

// String renders the plan, e.g. "[0 1] [2]".
func (s Schedule) String() string {
	var parts []string
	for _, st := range s.Stages() {
		parts = append(parts, fmt.Sprint(st))
	}
	return strings.Join(parts, " ")
}

// ExecResult aggregates an executed schedule. It is a small value, not
// a per-stage slice: the platform formulas consume a stage count and
// the largest stage, and the fast path builds one per packet.
type ExecResult struct {
	// CriticalCycles is the latency-relevant sum over stages: each
	// stage contributes its largest batch, plus the caller's fork/join
	// overhead when the stage is parallel.
	CriticalCycles uint64
	// TotalCycles is the aggregate work over all batches (parallel
	// stages include their fork/join overhead).
	TotalCycles uint64
	// MaxStageCycles is the largest single stage's critical cycles:
	// the busiest worker core in the platforms' throughput bounds.
	MaxStageCycles uint64
	// Stages is the number of stages that ran.
	Stages int
}

// addStage folds one stage into the result by the stage formula
// (§V-C2): a stage of several batches is charged its largest batch plus
// forkJoin on the critical path and the sum of its batches plus forkJoin
// in total; a stage of one batch pays no forkJoin. Execute,
// ExecuteSequential and Exec.Price charge every stage through it.
func (r *ExecResult) addStage(batches int, largest, sum, forkJoin uint64) {
	if batches > 1 {
		largest += forkJoin
		sum += forkJoin
	}
	r.CriticalCycles += largest
	r.TotalCycles += sum
	if largest > r.MaxStageCycles {
		r.MaxStageCycles = largest
	}
	r.Stages++
}

// Execute runs the schedule on pkt to completion on the calling
// goroutine: stages in order, a stage's batches in chain order, each
// stage charged by the stage formula (addStage).
//
// Execution is fail-fast across stages: if any batch in a stage
// errors, later stages do not run, mirroring an NF chain aborting on a
// processing error. Every batch of the failing stage still runs (its
// co-scheduled NFs would already have started), and the error returned
// is the first in chain order.
func (s Schedule) Execute(batches []Batch, pkt *packet.Packet, forkJoin uint64) (ExecResult, error) {
	var res ExecResult
	for p := s.plan; len(p) > 0; {
		n := 1 + int(p[0])
		stage := p[1:n]
		p = p[n:]
		var largest, sum uint64
		var firstErr error
		for _, i := range stage {
			c, err := batches[i].RunSequential(pkt)
			sum += c
			largest = max(largest, c)
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		res.addStage(len(stage), largest, sum, forkJoin)
		if firstErr != nil {
			return res, firstErr
		}
	}
	return res, nil
}

// ExecuteSequential runs every batch in chain order as a stage of its
// own, for the original-path and ablation (HA-only) modes.
func ExecuteSequential(batches []Batch, pkt *packet.Packet) (ExecResult, error) {
	var res ExecResult
	for i := range batches {
		b := &batches[i]
		if b.Empty() {
			continue
		}
		c, err := b.RunSequential(pkt)
		res.addStage(1, c, c, 0)
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// Inc is an add of a function declared as data bound to a flow: the
// word it adds to and its operand.
type Inc struct {
	word    *atomic.Uint64
	operand Operand
}

// grow adds to its word what its operand adds for pkt. Exec.Add, a loop
// of it, is at the inliner's budget (80): it inlines into the fast path.
func (a Inc) grow(pkt *packet.Packet) {
	d := uint64(1)
	switch a.operand {
	case Length:
		d = uint64(pkt.Len())
	case SYN:
		if flags, _ := pkt.TCPFlags(); flags&packet.TCPFlagSYN == 0 {
			return
		}
	}
	a.word.Add(d)
}

// Charge is what a packet served by a rule is charged for its batches:
// the run, its batch dispatch and the batches, as the engine reports
// them. Batches repeats the rule's batch count here, beside the rest, so
// the fast path reads no further line of the rule for it.
type Charge struct {
	SF       ExecResult
	Dispatch uint64
	Batches  int
}

// Exec is what a rule runs of its batches: their Table-I schedule, the
// adds of their functions declared as data in Execute's order, bound to
// the flow's words, and the rule's charge, priced by the engine once,
// before the rule is installed. A rule whose functions are all data
// runs as a flat loop of its adds (Add) and copies its charge, whose SF
// was priced by Price; one with a handler runs Execute. A nil *Exec runs
// nothing.
type Exec struct {
	// The fast path reads the charge and the adds, in the struct's
	// first 64 bytes; the schedule only Execute reads.
	Charge Charge
	// incs are the adds as a pointer and a length: a slice's capacity
	// word would take Chain1's set-up block past its size class.
	incs  *Inc
	nIncs uint32
	sched Schedule
}

// ExecIn is the Exec of batches, built in x (nil: allocated): its
// schedule in plan's storage and its adds in incs', each grown into an
// allocation of its own if it outgrows that; an add's Cell runs here. It
// refuses an add to a word its batch's state does not have.
func ExecIn(x *Exec, plan []uint32, incs []Inc, batches []Batch) (*Exec, error) {
	incs = incs[:0]
	for i := range batches {
		b := &batches[i]
		st := b.State()
		for _, c := range b.Calls() {
			f := &b.Funcs[c]
			for _, a := range f.Adds {
				if a.Cell == nil && int(a.Word) >= len(st) {
					return nil, fmt.Errorf("sfunc: %s/%s adds to word %d of %d", b.NF, f.Name, a.Word, len(st))
				}
				incs = append(incs, Inc{word: a.word(st), operand: a.Operand})
			}
		}
	}
	if x == nil {
		x = new(Exec)
	}
	x.incs, x.nIncs = nil, uint32(len(incs))
	if len(incs) > 0 {
		x.incs = &incs[0]
	}
	x.sched = PlanIn(plan, batches)
	return x, nil
}

// Execute runs the batches by the schedule (Schedule.Execute).
func (x *Exec) Execute(batches []Batch, pkt *packet.Packet, forkJoin uint64) (ExecResult, error) {
	if x == nil {
		return ExecResult{}, nil
	}
	return x.sched.Execute(batches, pkt, forkJoin)
}

// Add runs the adds on pkt, in order: what Execute does to the flow's
// words when every function is declared as data.
func (x *Exec) Add(pkt *packet.Packet) {
	for _, a := range unsafe.Slice(x.incs, x.nIncs) {
		a.grow(pkt)
	}
}

// Price works out x's charge for batches, once, before the rule is
// installed: the batches, their dispatch to worker cores when parallel
// (forkJoin/2 a batch; sequential execution stays inline and pays
// nothing extra) and, when every function is declared as data, the run —
// by the schedule with forkJoin when parallel, else each batch a stage
// of its own — worked out without running it. Execute and
// ExecuteSequential charge exactly that run for the same batches. A run
// with a handler has no price until it runs: SF stays zero. A nil x has
// nothing to price.
func (x *Exec) Price(batches []Batch, forkJoin uint64, parallel bool) {
	if x == nil {
		return
	}
	x.Charge = Charge{Batches: len(batches)}
	var res ExecResult
	ok := true
	if parallel {
		x.Charge.Dispatch = forkJoin / 2 * uint64(len(batches))
		x.sched.each(func(stage []uint32) {
			var largest, sum uint64
			for _, i := range stage {
				c, data := batches[i].price()
				ok = ok && data
				sum += c
				largest = max(largest, c)
			}
			res.addStage(len(stage), largest, sum, forkJoin)
		})
	} else {
		for i := range batches {
			c, data := batches[i].price()
			ok = ok && data
			if !batches[i].Empty() {
				res.addStage(1, c, c, 0)
			}
		}
	}
	if ok {
		x.Charge.SF = res
	}
}

// Priced reports whether the charge holds a priced run: the rule's
// functions are all declared as data, and Add runs them.
func (x *Exec) Priced() bool { return x != nil && x.Charge.SF.Stages > 0 }

// Len returns the number of stages.
func (x *Exec) Len() int {
	if x == nil {
		return 0
	}
	return x.sched.Len()
}

// ParallelStages returns how many stages contain more than one batch.
func (x *Exec) ParallelStages() int {
	if x == nil {
		return 0
	}
	return x.sched.ParallelStages()
}

// String renders the schedule (Schedule.String).
func (x *Exec) String() string {
	if x == nil {
		return ""
	}
	return x.sched.String()
}
