package mat

import (
	"fmt"

	"github.com/fastpathnfv/speedybox/internal/errcode"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

// Contribution is one NF's Local MAT rule presented to the
// consolidation algorithm, in chain order.
type Contribution struct {
	// NF names the contributing network function.
	NF string
	// Rule is the snapshot of the NF's Local MAT entry for the flow,
	// Site the NF's place in the chain, whose declared state functions
	// Rule.Funcs index, and State the NF's words on the flow, which they
	// run on.
	Rule  *LocalRule
	Site  *sfunc.Site
	State sfunc.State
}

// FieldValue is one modify: the value a field takes.
type FieldValue struct {
	Field packet.Field
	Value []byte
}

// ErrNotConsolidatable reports an action sequence the algorithm cannot
// fold into a single rule (e.g. a decap whose type does not match the
// most recent pending encap). Callers fall back to the original slow
// path for such flows, preserving correctness.
var ErrNotConsolidatable = errcode.Sentinel("mat.not_consolidatable", "mat: action sequence not consolidatable")

// Consolidate synthesizes the Global MAT rule for a flow from the
// per-NF contributions, implementing §V-B and §V-C:
//
//   - Drop dominance: any drop makes the final verdict drop; state
//     functions of NFs at or before the dropping NF still execute so
//     internal state stays equivalent, and header work is skipped.
//   - Encap/decap: simulated on a stack; adjacent matched pairs cancel.
//   - Modify: same field — the latter NF wins; different fields merge
//     into one composite patch (the paper expresses the merge as
//     P0 ⊕ [(P0⊕P1)|(P0⊕P2)]; field-granular merging computes the
//     identical bytes because the five standardized actions only touch
//     disjoint whole fields — the property tests verify the identity).
//   - State functions: batched per NF in chain order and scheduled for
//     parallel execution per Table I; the adds of those declared as data
//     are bound to the flow's words in that order (sfunc.Exec).
//
// Trailer fields (checksums) are patched once when the rule is
// applied rather than once per NF (§V-B, "we modify these fields at
// the end of the consolidation").
//
// guards, the flow's registrations in order, become the rule's guard
// list. A first scan finds where a drop ends the chain and counts what
// the rule holds, which is carved, with capacity-limited slices, from
// one block allocated with the rule; a count past the block's room gets
// an array of its own. The rule's Spans are its caller's to set.
func Consolidate(fid flow.FID, contribs []Contribution, guards ...Guard) (*GlobalRule, error) {
	return In(nil, nil, fid, contribs, guards)
}

// In is Consolidate into rule — zero, and not yet installed, so nothing
// else reads it — carving its slices from made. A nil rule is allocated
// as Consolidate's is: alone, or with a Room if it holds anything to
// carve.
func In(rule *GlobalRule, made *Room, fid flow.FID, contribs []Contribution, guards []Guard) (*GlobalRule, error) {
	// NFs after a recorded drop never see the packet on the original
	// path: the dropping contribution is the last one folded.
	end, nBatches, nFuncs, nHeader := len(contribs), 0, 0, 0
scan:
	for i, c := range contribs {
		if c.Rule == nil {
			continue
		}
		if n := len(c.Rule.Funcs); n > 0 {
			for _, f := range c.Rule.Funcs {
				if c.Site == nil || int(f) >= len(c.Site.Funcs) {
					return nil, fmt.Errorf("consolidating %v: %s records a state function %d it does not declare", fid, c.NF, f)
				}
			}
			if n > sfunc.MaxBatch || len(c.State) > sfunc.MaxBatch {
				return nil, fmt.Errorf("consolidating %v: %s records %d calls over %d words, past a batch's %d", fid, c.NF, n, len(c.State), sfunc.MaxBatch)
			}
			nBatches++
			nFuncs += n
		}
		for _, a := range c.Rule.Actions {
			if a.Kind == ActionDrop {
				end = i + 1
				break scan
			}
			if a.Kind != ActionForward {
				nHeader++
			}
		}
	}
	carves := nBatches > 0 || nHeader > 0 || len(guards) > 0
	switch {
	case rule == nil && carves:
		b := new(ruleBlock)
		rule, made = &b.GlobalRule, &b.Room
	case rule == nil:
		rule = new(GlobalRule)
	case carves && made == nil:
		made = new(Room)
	}
	var funcs []uint8
	if carves {
		rule.Batches = room(made.batches[:], nBatches)
		funcs = room(made.funcs[:], nFuncs)
		rule.Guards = linkGuards(room(made.guards[:], len(guards)), guards)
	}
	rule.FID = fid

	// The header work is merged into locals, in first-touch order for the
	// modifies, whose values alias the contributions, and compiled into the
	// rule's program, which holds the only copy. A chain rewrites a handful
	// of fields, so finding one is a short scan.
	var modBuf [8]FieldValue
	var decBuf [4]packet.HeaderType
	var encBuf [4]packet.ExtraHeader
	mods, decaps, encaps := modBuf[:0], decBuf[:0], encBuf[:0]

	for ci := range contribs[:end] {
		c := &contribs[ci]
		if c.Rule == nil {
			continue
		}
		if n := len(c.Rule.Funcs); n > 0 {
			funcs = append(funcs, c.Rule.Funcs...)
			// The first scan counted the batches: each is stored in place.
			rule.Batches = rule.Batches[:len(rule.Batches)+1]
			rule.Batches[len(rule.Batches)-1].Bind(c.Site, funcs[len(funcs)-n:len(funcs):len(funcs)], fid, c.State)
		}
	actions:
		for ai := range c.Rule.Actions {
			a := &c.Rule.Actions[ai]
			if err := a.Validate(); err != nil {
				return nil, fmt.Errorf("consolidating %v from %s: %w", fid, c.NF, err)
			}
			switch a.Kind {
			case ActionForward:
				// Default action; nothing to fold.
			case ActionDrop:
				rule.Drop = true
				break actions
			case ActionModify:
				i := 0
				for i < len(mods) && mods[i].Field != a.Field {
					i++
				}
				if i == len(mods) {
					mods = append(mods, FieldValue{Field: a.Field})
				}
				// Same field modified again: the latter wins.
				mods[i].Value = a.Value
			case ActionEncap:
				encaps = append(encaps, a.Header)
			case ActionDecap:
				if n := len(encaps); n > 0 {
					if top := encaps[n-1]; top.Type != a.HeaderType {
						return nil, fmt.Errorf("%w: decap(%v) does not match pending encap(%v)",
							ErrNotConsolidatable, a.HeaderType, top.Type)
					}
					// Matched adjacent pair eliminated (§V-B).
					encaps = encaps[:n-1]
				} else {
					// Pops a header that was on the packet at ingress.
					decaps = append(decaps, a.HeaderType)
				}
			default:
				return nil, fmt.Errorf("consolidating %v: invalid action kind %d", fid, int(a.Kind))
			}
		}
	}
	// Dropped flows do no header work on the fast path.
	if rule.Prog = compile(made, rule.Drop, decaps, encaps, mods); rule.Prog == nil {
		return nil, fmt.Errorf("%w: %v's header work does not fit a program", ErrNotConsolidatable, fid)
	}
	if nBatches > 0 {
		var err error
		if rule.Plan, err = sfunc.ExecIn(&made.exec, made.plan[:], made.incs[:], rule.Batches); err != nil {
			return nil, fmt.Errorf("consolidating %v: %w", fid, err)
		}
	}
	return rule, nil
}

// Room is the storage a rule's slices are carved from, sized for
// Chain1's — the batches' plan with Monitor's two adds, one guard, the
// program, two batches of one function and the plan's schedule. A rule
// with none of them needs none. What a fast-path packet of a rule whose
// functions are all data reads of it comes first, in consecutive lines:
// the plan's charge and adds, the guard and the program.
type Room struct {
	exec    sfunc.Exec
	incs    [2]sfunc.Inc
	guards  [1]Guard
	prog    [48]byte
	batches [2]sfunc.Batch
	plan    [4]uint32 // a schedule of two batches
	funcs   [2]uint8
}

// ruleBlock is a rule and its room in one allocation, 440 bytes (the
// 448-byte size class): what Consolidate makes for a rule that carves.
type ruleBlock struct {
	GlobalRule
	Room
}

// room is empty storage for n elements: buf's, or an exact fresh array.
func room[T any](buf []T, n int) []T {
	if n > len(buf) {
		return make([]T, 0, n)
	}
	return buf[:0:n]
}

// linkGuards chains copies of guards, in order, into nodes from buf.
func linkGuards(buf []Guard, guards []Guard) (head *Guard) {
	nodes := buf[:len(guards)]
	for i := len(nodes) - 1; i >= 0; i-- {
		nodes[i] = guards[i]
		nodes[i].Next, head = head, &nodes[i]
	}
	return head
}

// ApplyNaive executes the raw per-NF action lists on a packet exactly
// as the original chain would: each modify is applied and the
// checksums patched immediately (the R3 redundancy), encaps/decaps
// take effect in place, and a drop terminates the walk. It is the
// reference semantics the consolidated rule's program must match; the
// equivalence property tests compare the two.
func ApplyNaive(pkt *packet.Packet, contribs []Contribution) (dropped bool, err error) {
	for _, c := range contribs {
		if c.Rule == nil {
			continue
		}
		if alive, err := apply(pkt, c.Rule.Actions); !alive || err != nil {
			return err == nil, err
		}
	}
	return false, nil
}

// apply executes one NF's actions on a packet in order, reporting
// whether it survived them.
func apply(pkt *packet.Packet, actions []HeaderAction) (alive bool, err error) {
	for _, a := range actions {
		if alive, err := a.Apply(pkt); !alive || err != nil {
			return false, err
		}
	}
	return true, nil
}
