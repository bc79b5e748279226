package sfunc

import (
	"fmt"
	"strings"

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

// addStage folds one executed stage into the result.
func (r *ExecResult) addStage(critical, total uint64) {
	r.CriticalCycles += critical
	r.TotalCycles += total
	if critical > r.MaxStageCycles {
		r.MaxStageCycles = critical
	}
	r.Stages++
}

// Execute runs the schedule on pkt to completion on the calling
// goroutine: stages in order, a stage's batches in chain order. A
// parallel stage is charged max(batch cycles) + forkJoin on the
// critical path and Σ(batch cycles) + forkJoin in total; a single-batch
// stage pays no forkJoin.
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
		var critical, total uint64
		var firstErr error
		for _, i := range stage {
			c, err := batches[i].RunSequential(pkt)
			total += c
			if c > critical {
				critical = c
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if len(stage) > 1 {
			critical += forkJoin
			total += forkJoin
		}
		res.addStage(critical, total)
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
		res.addStage(c, c)
		if err != nil {
			return res, err
		}
	}
	return res, nil
}
