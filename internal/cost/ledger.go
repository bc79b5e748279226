package cost

import (
	"fmt"
	"strings"
)

// Ledger accumulates per-packet work cycles attributed to named
// stages. A stage is one NF on the slow path, or a SpeedyBox component
// ("classifier", "globalmat", one state-function batch) on the fast
// path. The platform executors read the stage decomposition to compute
// latency (sequential or parallel composition) and throughput
// (pipeline bottleneck).
//
// A Ledger is a plain list in first-charge order — a chain has a
// handful of stages, so a charge is a short scan that usually ends at
// the newest entry — and belongs to one goroutine: state functions run
// to completion on the calling core, so nothing charges concurrently.
// One ledger serves a whole vector: Begin opens the next packet's span
// behind the earlier ones, which stay readable until Reset.
type Ledger struct {
	stages []StageCost
	// base is where the open span starts; charges never look below it.
	base int
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// Charge adds cycles to the named stage, creating it if needed.
func (l *Ledger) Charge(stage string, cycles uint64) {
	for i := len(l.stages) - 1; i >= l.base; i-- {
		if l.stages[i].Name == stage {
			l.stages[i].Cycles += cycles
			return
		}
	}
	l.stages = append(l.stages, StageCost{Name: stage, Cycles: cycles})
}

// Stage returns the cycles charged to one stage.
func (l *Ledger) Stage(name string) uint64 {
	for _, s := range l.Stages() {
		if s.Name == name {
			return s.Cycles
		}
	}
	return 0
}

// Total returns the sum over all stages: the per-packet work-cycle
// metric ("CPU cycle per packet").
func (l *Ledger) Total() uint64 {
	var sum uint64
	for _, s := range l.Stages() {
		sum += s.Cycles
	}
	return sum
}

// Stages returns the open span's (name, cycles) pairs in first-charge
// order. The slice aliases the ledger: it is stable once Begin closes
// the span, and valid until Reset.
func (l *Ledger) Stages() []StageCost {
	return l.stages[l.base:len(l.stages):len(l.stages)]
}

// Max returns the largest single stage cost (the pipeline bottleneck
// candidate) and its name.
func (l *Ledger) Max() (string, uint64) {
	var (
		best     uint64
		bestName string
	)
	for _, s := range l.Stages() {
		if s.Cycles > best {
			best, bestName = s.Cycles, s.Name
		}
	}
	return bestName, best
}

// Begin closes the open span and opens an empty one after it.
func (l *Ledger) Begin() { l.base = len(l.stages) }

// Reset drops every span, keeping the storage for reuse.
func (l *Ledger) Reset() { l.stages, l.base = l.stages[:0], 0 }

// String renders the ledger for debugging.
func (l *Ledger) String() string {
	stages := l.Stages()
	parts := make([]string, 0, len(stages))
	for _, s := range stages {
		parts = append(parts, fmt.Sprintf("%s=%d", s.Name, s.Cycles))
	}
	return fmt.Sprintf("ledger{%s total=%d}", strings.Join(parts, " "), l.Total())
}

// StageCost is one named stage's accumulated cycles.
type StageCost struct {
	Name   string
	Cycles uint64
}
