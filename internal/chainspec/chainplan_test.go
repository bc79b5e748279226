package chainspec

import (
	"errors"
	"strings"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
)

// TestParsePlanValid covers the accepted plan surface: every op, both
// schema versions, and the default-name shorthand.
func TestParsePlanValid(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		op       string
	}{
		{"insert v1", `{"version": 1, "op": "insert", "pos": 1, "nf": {"type": "monitor"}}`, "insert"},
		{"insert v0", `{"op": "insert", "pos": 0, "nf": {"type": "monitor", "name": "m2"}}`, "insert"},
		{"remove", `{"op": "remove", "name": "mon"}`, "remove"},
		{"replace", `{"op": "replace", "name": "mon", "nf": {"type": "monitor", "name": "mon"}}`, "replace"},
		{"reorder", `{"op": "reorder", "name": "mon", "pos": 0}`, "reorder"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := ParsePlan([]byte(tc.in))
			if err != nil {
				t.Fatal(err)
			}
			if p.Op != tc.op {
				t.Errorf("op = %q, want %q", p.Op, tc.op)
			}
		})
	}
}

// TestParsePlanErrors covers structural rejection: bad JSON, unknown
// fields (typo protection), unsupported versions, unknown ops.
func TestParsePlanErrors(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		sentinel error // nil: any error is fine
	}{
		{"malformed", `{"op": `, nil},
		{"unknown field", `{"op": "remove", "name": "m", "position": 2}`, nil},
		{"bad version", `{"version": 2, "op": "remove", "name": "m"}`, nil},
		{"unknown op", `{"op": "rotate", "name": "m"}`, core.ErrPlanInvalid},
		{"empty op", `{"name": "m"}`, core.ErrPlanInvalid},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParsePlan([]byte(tc.in))
			if err == nil {
				t.Fatal("plan accepted")
			}
			if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
				t.Errorf("error %v, want %v", err, tc.sentinel)
			}
		})
	}
}

// engineOf builds an engine over monitors with the given names.
func engineOf(t *testing.T, names []string) *core.Engine {
	t.Helper()
	chain := make([]core.NF, len(names))
	for i, name := range names {
		nf, err := NFSpec{Type: "monitor"}.Instantiate(name)
		if err != nil {
			t.Fatal(err)
		}
		chain[i] = nf
	}
	eng, err := core.NewEngine(chain, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestCompilePlanErrors is the validation table: every rejection class
// must map to its typed sentinel so control planes can errors.Is. A
// row's plan is compiled, then applied to an engine over the row's
// chain: Compile builds the NF, the engine validates.
func TestCompilePlanErrors(t *testing.T) {
	chain := []string{"nat", "lb", "mon", "fw"}
	mon := &NFSpec{Type: "monitor", Name: "probe"}
	for _, tc := range []struct {
		name     string
		plan     ChainPlan
		current  []string
		sentinel error // nil: any non-sentinel error
	}{
		{"insert without nf", ChainPlan{Op: "insert", Pos: 1}, chain, core.ErrPlanInvalid},
		{"insert negative pos", ChainPlan{Op: "insert", Pos: -1, NF: mon}, chain, core.ErrPlanOutOfRange},
		{"insert past end", ChainPlan{Op: "insert", Pos: 5, NF: mon}, chain, core.ErrPlanOutOfRange},
		{"insert duplicate name", ChainPlan{Op: "insert", Pos: 0, NF: &NFSpec{Type: "monitor", Name: "lb"}}, chain, core.ErrPlanDuplicateNF},
		{"remove unknown", ChainPlan{Op: "remove", Name: "ghost"}, chain, core.ErrPlanUnknownNF},
		{"remove last nf", ChainPlan{Op: "remove", Name: "solo"}, []string{"solo"}, core.ErrPlanEmptyChain},
		{"replace without nf", ChainPlan{Op: "replace", Name: "mon"}, chain, core.ErrPlanInvalid},
		{"replace unknown", ChainPlan{Op: "replace", Name: "ghost", NF: mon}, chain, core.ErrPlanUnknownNF},
		{"replace steals name", ChainPlan{Op: "replace", Name: "mon", NF: &NFSpec{Type: "monitor", Name: "fw"}}, chain, core.ErrPlanDuplicateNF},
		{"reorder unknown", ChainPlan{Op: "reorder", Name: "ghost", Pos: 0}, chain, core.ErrPlanUnknownNF},
		{"reorder past end", ChainPlan{Op: "reorder", Name: "mon", Pos: 4}, chain, core.ErrPlanOutOfRange},
		{"unbuildable nf", ChainPlan{Op: "insert", Pos: 0, NF: &NFSpec{Type: "warp-drive"}}, chain, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			compiled, err := tc.plan.Compile()
			if err == nil {
				err = engineOf(t, tc.current).Reconfigure(compiled)
			}
			if err == nil {
				t.Fatal("plan applied")
			}
			if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
				t.Errorf("error %v, want %v", err, tc.sentinel)
			}
		})
	}
}

// TestCompilePlanSuccess checks the accepted shapes, including the two
// subtle ones: replacing an NF with a same-named successor (not a
// duplicate — it's the same slot) and defaulting the NF name to its
// type. Each compiled plan applies to an engine over nat, lb, mon.
func TestCompilePlanSuccess(t *testing.T) {
	eng := engineOf(t, []string{"nat", "lb", "mon"})

	out, err := (&ChainPlan{Op: "insert", Pos: 3, NF: &NFSpec{Type: "monitor"}}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	if out.Op != core.OpInsert || out.Pos != 3 || out.NF == nil || out.NF.Name() != "monitor" {
		t.Errorf("insert compiled to %+v (nf %v)", out, out.NF)
	}

	if err := eng.Reconfigure(out); err != nil {
		t.Fatal(err)
	}

	out, err = (&ChainPlan{Op: "replace", Name: "mon", NF: &NFSpec{Type: "monitor", Name: "mon"}}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Reconfigure(out); err != nil {
		t.Fatalf("same-name replace rejected: %v", err)
	}
	if out.Op != core.OpReplace || out.NF == nil || out.NF.Name() != "mon" {
		t.Errorf("replace compiled to %+v", out)
	}

	out, err = (&ChainPlan{Op: "remove", Name: "lb"}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	if out.Op != core.OpRemove || out.Name != "lb" || out.NF != nil {
		t.Errorf("remove compiled to %+v", out)
	}
	if err := eng.Reconfigure(out); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(eng.ChainNames(), ","); got != "nat,mon,monitor" {
		t.Errorf("chain after the plans = %s", got)
	}
}

// TestReconfigureRejectionLeavesEpoch drives a compiled but invalid
// plan into a live engine: the engine validates under its own lock,
// the rejection carries the typed sentinel, and — the property the
// fast path depends on — a rejected plan consumes no epoch, so no rule
// is invalidated by a plan that changed nothing.
func TestReconfigureRejectionLeavesEpoch(t *testing.T) {
	spec, err := Parse([]byte(fullSpec))
	if err != nil {
		t.Fatal(err)
	}
	chain, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(chain, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Compile does not look at the chain; the engine rejects the plan.
	plan, err := (&ChainPlan{Op: "remove", Name: "departed"}).Compile()
	if err != nil {
		t.Fatalf("compile rejected a well-formed plan: %v", err)
	}
	before := eng.Epoch()
	if err := eng.Reconfigure(plan); !errors.Is(err, core.ErrPlanUnknownNF) {
		t.Errorf("stale plan: got %v, want ErrPlanUnknownNF", err)
	}
	if eng.Epoch() != before {
		t.Errorf("rejected plan advanced the epoch: %d -> %d", before, eng.Epoch())
	}

	// And a valid compiled plan round-trips through the engine.
	good, err := (&ChainPlan{Op: "insert", Pos: eng.ChainLen(),
		NF: &NFSpec{Type: "monitor", Name: "probe"}}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Reconfigure(good); err != nil {
		t.Fatal(err)
	}
	if eng.Epoch() != before+1 {
		t.Errorf("applied plan moved epoch to %d, want %d", eng.Epoch(), before+1)
	}
	if names := eng.ChainNames(); names[len(names)-1] != "probe" {
		t.Errorf("chain after insert = %v", names)
	}
	if !strings.Contains(strings.Join(eng.ChainNames(), ","), "probe") {
		t.Error("inserted NF missing from chain")
	}
}
