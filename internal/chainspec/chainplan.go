package chainspec

import (
	"encoding/json"
	"fmt"
	"strings"

	"github.com/fastpathnfv/speedybox/internal/core"
)

// ChainPlan is a declarative, versioned description of one live chain
// change, the configuration-file counterpart of core.ChainPlan:
//
//	{"version": 1, "op": "insert", "pos": 2,
//	 "nf": {"type": "monitor", "name": "mon-b"}}
//
//	{"version": 1, "op": "remove", "name": "mon-b"}
//
// Compile instantiates the new NF (if any), producing a core.ChainPlan
// for Engine.Reconfigure, which validates it against the live chain
// and rejects it with core's typed plan sentinels.
type ChainPlan struct {
	// Version is the plan schema version; 0 and 1 both mean v1.
	Version int `json:"version,omitempty"`
	// Op is one of "insert", "remove", "replace", "reorder".
	Op string `json:"op"`
	// Name identifies the affected NF for remove, replace and reorder.
	Name string `json:"name,omitempty"`
	// Pos is the target position for insert (0..len) and reorder
	// (0..len-1).
	Pos int `json:"pos,omitempty"`
	// NF describes the new instance for insert and replace.
	NF *NFSpec `json:"nf,omitempty"`
}

// ParsePlan decodes and structurally validates a JSON plan.
func ParsePlan(data []byte) (*ChainPlan, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var p ChainPlan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrSpecInvalid, err)
	}
	if p.Version != 0 && p.Version != 1 {
		return nil, fmt.Errorf("%w %d", ErrUnsupportedVersion, p.Version)
	}
	if _, err := p.op(); err != nil {
		return nil, err
	}
	return &p, nil
}

// op maps the JSON operation name onto core's enum.
func (p *ChainPlan) op() (core.ReconfigOp, error) {
	switch p.Op {
	case "insert":
		return core.OpInsert, nil
	case "remove":
		return core.OpRemove, nil
	case "replace":
		return core.OpReplace, nil
	case "reorder":
		return core.OpReorder, nil
	default:
		return 0, fmt.Errorf("%w: unknown op %q", core.ErrPlanInvalid, p.Op)
	}
}

// Compile maps the plan onto a core.ChainPlan, instantiating the new
// NF (named by its type when unnamed) for insert and replace. It
// validates nothing against the chain: Engine.Reconfigure does, under
// its own lock, against the chain it is about to change.
func (p *ChainPlan) Compile() (core.ChainPlan, error) {
	op, err := p.op()
	if err != nil {
		return core.ChainPlan{}, err
	}
	out := core.ChainPlan{Op: op, Name: p.Name, Pos: p.Pos}
	if p.NF != nil && (op == core.OpInsert || op == core.OpReplace) {
		name := p.NF.Name
		if name == "" {
			name = p.NF.Type
		}
		if out.NF, err = p.NF.Instantiate(name); err != nil {
			return core.ChainPlan{}, fmt.Errorf("chainspec: plan nf (%s): %w", p.NF.Type, err)
		}
	}
	return out, nil
}
