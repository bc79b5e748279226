package mat

import (
	"sync"

	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

// LocalRule is one NF's recorded per-flow behaviour: the ordered
// header actions and the ordered state-function queue ("We use a queue
// data structure to maintain the sequence", paper §IV-B).
type LocalRule struct {
	// Actions are the header actions in recording order.
	Actions []HeaderAction
	// Funcs are the state functions in recording order.
	Funcs []sfunc.Func
}

// Clone deep-copies the rule into exactly sized storage, so consolidation
// can snapshot it without racing with event updates and an append to
// the copy reallocates rather than growing into memory it shares.
func (r *LocalRule) Clone() *LocalRule {
	if r == nil {
		return nil
	}
	out := &LocalRule{
		Actions: make([]HeaderAction, len(r.Actions)),
		Funcs:   make([]sfunc.Func, len(r.Funcs)),
	}
	copy(out.Actions, r.Actions)
	copy(out.Funcs, r.Funcs)
	return out
}

// Local is one NF's Local MAT: a stateful table from FID to the
// recorded per-flow rule. It is safe for concurrent use; on the ONVM
// platform the NF core records into it while the manager core reads it
// for consolidation.
type Local struct {
	nf string

	mu    sync.RWMutex
	rules map[flow.FID]*LocalRule
}

// NewLocal returns an empty Local MAT owned by the named NF.
func NewLocal(nf string) *Local {
	return &Local{nf: nf, rules: make(map[flow.FID]*LocalRule)}
}

// NF returns the owning NF's name.
func (l *Local) NF() string { return l.nf }

// Get returns a snapshot (deep copy) of the flow's rule and whether it
// exists.
func (l *Local) Get(fid flow.FID) (*LocalRule, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	r, ok := l.rules[fid]
	if !ok {
		return nil, false
	}
	return r.Clone(), true
}

// Replace publishes the flow's rule, overwriting any previous one: the
// one recording write into the table (localmat_add_HA and
// localmat_add_SF, paper Figure 2, gathered per NF). A traversal
// collects an NF's actions and functions in its own scratch and
// publishes them here once the NF has returned — one lock and one map
// store per NF, not per action. The table keeps an exactly sized copy,
// so the caller may reuse r's storage, and an event Update that later
// appends to the stored rule reallocates rather than growing into a
// neighbour.
func (l *Local) Replace(fid flow.FID, r *LocalRule) {
	c := r.Clone()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rules[fid] = c
}

// Mutate applies fn to the flow's rule under the table lock, creating
// an empty rule if absent. Event updates use it to edit actions in
// place.
func (l *Local) Mutate(fid flow.FID, fn func(*LocalRule)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.rules[fid]
	if r == nil {
		r = &LocalRule{}
		l.rules[fid] = r
	}
	fn(r)
}

// Reset clears the flow's rule so the NF can re-record it (used when
// an initial packet is re-processed).
func (l *Local) Reset(fid flow.FID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.rules, fid)
}

// Delete removes the flow's rule, the per-NF half of stale-rule
// cleanup on FIN/RST (paper §VI-B).
func (l *Local) Delete(fid flow.FID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.rules, fid)
}

// Len returns the number of flows with recorded rules.
func (l *Local) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.rules)
}
