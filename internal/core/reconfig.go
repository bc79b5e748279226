package core

import (
	"fmt"
	"time"

	"github.com/fastpathnfv/speedybox/internal/errcode"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
)

// Live chain reconfiguration. The engine's chain is an immutable
// snapshot (chainState) behind an atomic pointer; Reconfigure, at a
// packet boundary it holds (Engine.exclusive), builds the next snapshot,
// advances the Global MAT's chain epoch, publishes the snapshot and
// stale-sweeps every rule consolidated under the old epoch, whose flows
// re-record under the new chain on their next packet. No packet is
// dropped and no surviving NF loses state.

// chainState is one immutable chain snapshot: the NF sequence, where
// each NF's per-flow state sits in a flow's state block, and the chain
// epoch the layout was published under, which stamps every rule,
// recording and event made against it.
type chainState struct {
	chain []NF
	lay   *event.StateLayout
	// contribs presents the chain to a consolidation (each NF's name and
	// Site) and to a rule image, which names its positions.
	contribs []mat.Contribution
	// plain is the recording of every flow whose NFs each recorded a lone
	// forward, shared by their rules (event.Forwards).
	plain []mat.LocalRule
	epoch uint64
}

// newChainState lays out a chain's per-flow NF state and makes the
// engine's flow table a home of it for every NF that keeps any.
func (e *Engine) newChainState(chain []NF, epoch uint64) *chainState {
	slots := make([]event.StateSlot, len(chain))
	contribs := make([]mat.Contribution, len(chain))
	for i, nf := range chain {
		slots[i].NF, contribs[i].NF = nf.Name(), nf.Name()
		if s, ok := nf.(Stateful); ok {
			slots[i] = s.FlowStates().Slot(nf.Name())
			contribs[i].Site = &sfunc.Site{NF: nf.Name(), At: i, Funcs: s.FlowStates().Funcs, Model: e.model}
			s.FlowStates().Attach(e.events)
		}
	}
	return &chainState{chain: chain, lay: event.NewStateLayout(slots), contribs: contribs, plain: event.Forwards(len(chain)), epoch: epoch}
}

// ReconfigOp enumerates chain-plan operations. Enum starts at one so a
// zero Op is detectably unset.
type ReconfigOp uint8

// Chain-plan operations.
const (
	// OpInsert inserts plan.NF at position plan.Pos (0..len).
	OpInsert ReconfigOp = iota + 1
	// OpRemove removes the NF named plan.Name.
	OpRemove
	// OpReplace swaps the NF named plan.Name for plan.NF in place.
	OpReplace
	// OpReorder moves the NF named plan.Name to position plan.Pos
	// (0..len-1) of the resulting chain.
	OpReorder
)

// String returns the operation's telemetry label.
func (op ReconfigOp) String() string {
	switch op {
	case OpInsert:
		return "insert"
	case OpRemove:
		return "remove"
	case OpReplace:
		return "replace"
	case OpReorder:
		return "reorder"
	default:
		return fmt.Sprintf("ReconfigOp(%d)", int(op))
	}
}

// Reconfiguration sentinel errors. Every rejected plan leaves the
// chain, the epoch and all installed rules untouched. Each sentinel
// carries a registered errcode code, so a plan rejection surfacing
// through the daemon's admin API resolves to a machine-assertable
// code (errcode.CodeOf) while errors.Is matching is unchanged.
var (
	// ErrPlanInvalid reports a structurally malformed plan (unknown
	// operation, insert/replace without an NF).
	ErrPlanInvalid = errcode.Sentinel("core.plan_invalid", "core: invalid chain plan")
	// ErrPlanDuplicateNF reports a plan that would give two NFs the
	// same name.
	ErrPlanDuplicateNF = errcode.Sentinel("core.plan_duplicate_nf", "core: plan would duplicate an NF name")
	// ErrPlanEmptyChain reports a removal that would leave no NFs.
	ErrPlanEmptyChain = errcode.Sentinel("core.plan_empty_chain", "core: plan would empty the chain")
	// ErrPlanOutOfRange reports an insert/reorder position outside the
	// chain.
	ErrPlanOutOfRange = errcode.Sentinel("core.plan_out_of_range", "core: plan position out of range")
	// ErrPlanUnknownNF reports a remove/replace/reorder naming an NF
	// not in the chain.
	ErrPlanUnknownNF = errcode.Sentinel("core.plan_unknown_nf", "core: plan names an unknown NF")
	// ErrReconfigAborted reports an injected mid-transition failure;
	// the rollback left the old chain and epoch in place.
	ErrReconfigAborted = errcode.Sentinel("core.reconfig_aborted", "core: reconfiguration aborted")
)

// ChainPlan is one live chain change: insert, remove, replace or
// reorder a single NF. Plans are validated against the current chain
// before anything mutates; a rejected plan is a typed error and a
// no-op.
type ChainPlan struct {
	// Op selects the operation.
	Op ReconfigOp
	// Name identifies the affected NF for remove, replace and reorder.
	Name string
	// Pos is the target position for insert (0..len) and reorder
	// (0..len-1).
	Pos int
	// NF is the new instance for insert and replace.
	NF NF
}

// String renders the plan for logs and errors.
func (p ChainPlan) String() string {
	switch p.Op {
	case OpInsert:
		name := "?"
		if p.NF != nil {
			name = p.NF.Name()
		}
		return fmt.Sprintf("insert %q at %d", name, p.Pos)
	case OpRemove:
		return fmt.Sprintf("remove %q", p.Name)
	case OpReplace:
		name := "?"
		if p.NF != nil {
			name = p.NF.Name()
		}
		return fmt.Sprintf("replace %q with %q", p.Name, name)
	case OpReorder:
		return fmt.Sprintf("reorder %q to %d", p.Name, p.Pos)
	default:
		return p.Op.String()
	}
}

// apply validates the plan against cur and returns the next chain
// layout plus the instance it removes or replaces out, if any. cur is
// never mutated.
func (p ChainPlan) apply(cur []NF) (next []NF, removed NF, err error) {
	names := make(map[string]int, len(cur))
	for i, nf := range cur {
		names[nf.Name()] = i
	}
	switch p.Op {
	case OpInsert:
		if p.NF == nil {
			return nil, nil, fmt.Errorf("%w: insert without an NF", ErrPlanInvalid)
		}
		if p.Pos < 0 || p.Pos > len(cur) {
			return nil, nil, fmt.Errorf("%w: insert at %d in a chain of %d", ErrPlanOutOfRange, p.Pos, len(cur))
		}
		if _, dup := names[p.NF.Name()]; dup {
			return nil, nil, fmt.Errorf("%w: %q", ErrPlanDuplicateNF, p.NF.Name())
		}
		next = make([]NF, 0, len(cur)+1)
		next = append(next, cur[:p.Pos]...)
		next = append(next, p.NF)
		next = append(next, cur[p.Pos:]...)
		return next, nil, nil
	case OpRemove:
		i, ok := names[p.Name]
		if !ok {
			return nil, nil, fmt.Errorf("%w: remove %q", ErrPlanUnknownNF, p.Name)
		}
		if len(cur) == 1 {
			return nil, nil, fmt.Errorf("%w: removing %q", ErrPlanEmptyChain, p.Name)
		}
		next = make([]NF, 0, len(cur)-1)
		next = append(next, cur[:i]...)
		next = append(next, cur[i+1:]...)
		return next, cur[i], nil
	case OpReplace:
		if p.NF == nil {
			return nil, nil, fmt.Errorf("%w: replace without an NF", ErrPlanInvalid)
		}
		i, ok := names[p.Name]
		if !ok {
			return nil, nil, fmt.Errorf("%w: replace %q", ErrPlanUnknownNF, p.Name)
		}
		if j, dup := names[p.NF.Name()]; dup && j != i {
			return nil, nil, fmt.Errorf("%w: %q", ErrPlanDuplicateNF, p.NF.Name())
		}
		next = make([]NF, len(cur))
		copy(next, cur)
		next[i] = p.NF
		return next, cur[i], nil
	case OpReorder:
		i, ok := names[p.Name]
		if !ok {
			return nil, nil, fmt.Errorf("%w: reorder %q", ErrPlanUnknownNF, p.Name)
		}
		if p.Pos < 0 || p.Pos >= len(cur) {
			return nil, nil, fmt.Errorf("%w: reorder to %d in a chain of %d", ErrPlanOutOfRange, p.Pos, len(cur))
		}
		rest := make([]NF, 0, len(cur)-1)
		rest = append(rest, cur[:i]...)
		rest = append(rest, cur[i+1:]...)
		next = make([]NF, 0, len(cur))
		next = append(next, rest[:p.Pos]...)
		next = append(next, cur[i])
		next = append(next, rest[p.Pos:]...)
		return next, nil, nil
	default:
		return nil, nil, fmt.Errorf("%w: %s", ErrPlanInvalid, p.Op)
	}
}

// Reconfigure applies one live chain change:
//
//  1. the plan is validated against the current chain (typed errors,
//     epoch untouched on rejection);
//  2. the chain epoch advances and the new snapshot is published —
//     from this instant every old-epoch rule is dead to every reader
//     (each checks the epoch of the rule it is about to serve);
//  3. the old epoch's rules are stale-marked (the existing MarkStale
//     representation), so their flows fall back to the always-correct
//     slow path and ordinary reclamation cleans up;
//  4. a removed or replaced-out NF's slot is dropped from every flow's
//     state (the NF is told each flow has ended for it); inserted NFs
//     join recording on each flow's next slow-path packet — their state
//     starts at zero, in a second block on flows that already hold one
//     — repopulating the fast path through the normal
//     record-and-consolidate cycle.
//
// All four run at a packet boundary it holds (Engine.exclusive), so no
// traversal is inside a removed NF when its slot is dropped.
// The KindReconfigAbort fault fails the transition after validation
// but before publication; rollback is clean because nothing was
// published.
func (e *Engine) Reconfigure(plan ChainPlan) error {
	defer e.exclusive()()

	cs := e.state()
	next, removed, err := plan.apply(cs.chain)
	if err != nil {
		return err
	}

	if e.faults != nil && e.faults.Should(fault.KindReconfigAbort, 0) {
		if e.tel != nil {
			e.tel.reconfigRollbacks.Inc()
			e.tel.rec.Append(telemetry.EvReconfigAbort, 0, plan.Op.String())
		}
		return fmt.Errorf("%w: injected %s during %s", ErrReconfigAborted, fault.KindReconfigAbort, plan.Op)
	}

	newEpoch := e.global.AdvanceEpoch()
	e.cur.Store(e.newChainState(next, newEpoch))

	start := time.Now()
	swept := e.global.SweepEpoch(newEpoch)
	sweepDur := time.Since(start)

	if removed != nil {
		// The leaving NF drains: its slot leaves every live flow's
		// state, and with it whatever the NF derived from that state (its
		// Leave hook). It never processes another packet.
		if s, ok := removed.(Stateful); ok {
			e.events.DropNF(s.FlowStates())
			s.FlowStates().Detach(e.events)
		}
	}

	if e.tel != nil {
		e.tel.rebuildStages(next)
		e.tel.reconfigs[plan.Op-1].Inc()
		e.tel.reconfigSweep.Record(uint64(sweepDur.Nanoseconds()), 0)
		e.tel.rec.Append(telemetry.EvReconfig, 0,
			fmt.Sprintf("%s epoch=%d swept=%d", plan.Op, newEpoch, swept))
	}
	return nil
}
