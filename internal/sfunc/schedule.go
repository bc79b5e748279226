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
type Schedule struct {
	// Stages holds batch indices grouped by parallelizable stage.
	Stages [][]int
}

// Plan computes a schedule for the batches in chain order, greedily
// packing consecutive batches into a parallel stage while every pair
// in the stage satisfies Table I. Chain order is preserved across
// stages, which keeps the NF logic equivalent: a batch never starts
// before a non-parallelizable predecessor finishes.
func Plan(batches []Batch) Schedule {
	var s Schedule
	var cur []int
	classes := make([]PayloadClass, len(batches))
	for i, b := range batches {
		classes[i] = b.Class()
	}
	flush := func() {
		if len(cur) > 0 {
			s.Stages = append(s.Stages, cur)
			cur = nil
		}
	}
	for i, b := range batches {
		if b.Empty() {
			continue
		}
		compatible := true
		for _, j := range cur {
			if !Parallelizable(classes[j], classes[i]) {
				compatible = false
				break
			}
		}
		if !compatible {
			flush()
		}
		cur = append(cur, i)
	}
	flush()
	return s
}

// ParallelStages returns how many stages contain more than one batch.
func (s Schedule) ParallelStages() int {
	n := 0
	for _, st := range s.Stages {
		if len(st) > 1 {
			n++
		}
	}
	return n
}

// String renders the plan, e.g. "[0 1] [2]".
func (s Schedule) String() string {
	parts := make([]string, len(s.Stages))
	for i, st := range s.Stages {
		parts[i] = fmt.Sprint(st)
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
	for _, stage := range s.Stages {
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
	for _, b := range batches {
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
