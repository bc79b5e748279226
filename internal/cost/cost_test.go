package cost

import (
	"math"
	"testing"
)

func TestDefaultModelSanity(t *testing.T) {
	m := DefaultModel()
	if m.FreqHz != 2.0e9 {
		t.Errorf("FreqHz = %g, want the paper's 2.0 GHz", m.FreqHz)
	}
	// The calibration targets from Table III and Figure 4: one
	// IPFilter traversal for a subsequent packet (parse + classify +
	// flow-cache hit + forward bookkeeping) must land in the paper's
	// 450-650 cycle band.
	perNF := m.Parse + m.Classify + m.FlowCacheHit
	if perNF < 400 || perNF > 700 {
		t.Errorf("per-NF subsequent cost = %d, want within [400,700] (Table III band)", perNF)
	}
	// The fast-path fixed cost must exceed one NF's cost so that a
	// 1-header-action chain is slower with SpeedyBox (Figure 4), but
	// must be below two NFs' cost so that 2-NF chains win.
	fast := m.FastPathBase + m.HashFID + m.EventCheck + m.GMATLookup
	if fast <= perNF {
		t.Errorf("fast path (%d) must cost more than one NF (%d) per Figure 4", fast, perNF)
	}
	if fast >= 2*perNF {
		t.Errorf("fast path (%d) must cost less than two NFs (%d)", fast, 2*perNF)
	}
}

func TestModelConversions(t *testing.T) {
	m := DefaultModel()
	tests := []struct {
		name   string
		cycles uint64
		micros float64
	}{
		{"zero", 0, 0},
		{"one microsecond", 2000, 1.0},
		{"half microsecond", 1000, 0.5},
		{"table III aggregate", 1689, 0.8445},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := m.CyclesToMicros(tt.cycles); math.Abs(got-tt.micros) > 1e-9 {
				t.Errorf("CyclesToMicros(%d) = %g, want %g", tt.cycles, got, tt.micros)
			}
		})
	}
}

func TestRateMpps(t *testing.T) {
	m := DefaultModel()
	// 2000 cycles/packet at 2 GHz is exactly 1 Mpps.
	if got := m.RateMpps(2000); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("RateMpps(2000) = %g, want 1.0", got)
	}
	if got := m.RateMpps(0); got != 0 {
		t.Errorf("RateMpps(0) = %g, want 0", got)
	}
	if got := m.RateMpps(-5); got != 0 {
		t.Errorf("RateMpps(-5) = %g, want 0", got)
	}
}

func TestCostHelpers(t *testing.T) {
	m := DefaultModel()
	if got := m.InspectCost(0); got != m.InspectBase {
		t.Errorf("InspectCost(0) = %d, want base %d", got, m.InspectBase)
	}
	if got := m.InspectCost(100); got != m.InspectBase+100*m.InspectPerByte {
		t.Errorf("InspectCost(100) = %d", got)
	}
	if got := m.ACLScanCost(100); got != 100*m.ACLPerRule {
		t.Errorf("ACLScanCost(100) = %d", got)
	}
}

func TestLedgerBasics(t *testing.T) {
	l := NewLedger()
	if l.Total() != 0 {
		t.Error("fresh ledger not empty")
	}
	l.Charge("nf1", 100)
	l.Charge("nf2", 200)
	l.Charge("nf1", 50)
	if got := l.Stage("nf1"); got != 150 {
		t.Errorf("Stage(nf1) = %d, want 150", got)
	}
	if got := l.Total(); got != 350 {
		t.Errorf("Total = %d, want 350", got)
	}
	name, cycles := l.Max()
	if name != "nf2" || cycles != 200 {
		t.Errorf("Max = (%s, %d), want (nf2, 200)", name, cycles)
	}
	stages := l.Stages()
	if len(stages) != 2 || stages[0].Name != "nf1" || stages[1].Name != "nf2" {
		t.Errorf("Stages order = %v, want charge order", stages)
	}
	l.Reset()
	if l.Total() != 0 || len(l.Stages()) != 0 {
		t.Error("Reset did not clear ledger")
	}
	// Post-reset reuse must work.
	l.Charge("x", 1)
	if l.Total() != 1 {
		t.Error("ledger unusable after Reset")
	}
}

// TestLedgerSpans covers the per-vector arena: Begin opens a span that
// charges and reads on its own, earlier spans stay as they were, and
// Reset starts over on the same storage.
func TestLedgerSpans(t *testing.T) {
	l := NewLedger()
	l.Charge("nat", 10)
	l.Charge("fw", 20)
	first := l.Stages()
	l.Begin()
	if l.Total() != 0 || len(l.Stages()) != 0 {
		t.Fatalf("fresh span not empty: %v", l)
	}
	l.Charge("nat", 1)
	l.Charge("nat", 2)
	if got := l.Stages(); len(got) != 1 || got[0] != (StageCost{"nat", 3}) {
		t.Errorf("second span = %v, want [nat=3]", got)
	}
	if len(first) != 2 || first[0] != (StageCost{"nat", 10}) || first[1] != (StageCost{"fw", 20}) {
		t.Errorf("first span changed under the second: %v", first)
	}
	// A closed span's slice cannot grow into the next one.
	_ = append(first, StageCost{"x", 99})
	if got := l.Stage("nat"); got != 3 {
		t.Errorf("append to a closed span clobbered the open one: nat = %d", got)
	}
	l.Reset()
	l.Charge("fw", 5)
	if got := l.Stages(); len(got) != 1 || got[0] != (StageCost{"fw", 5}) {
		t.Errorf("after Reset = %v, want [fw=5]", got)
	}
	if n := testing.AllocsPerRun(100, func() {
		l.Reset()
		l.Charge("nat", 1)
		l.Begin()
		l.Charge("fw", 1)
	}); n != 0 {
		t.Errorf("warm ledger allocates %v per use, want 0", n)
	}
}

func TestLedgerString(t *testing.T) {
	l := NewLedger()
	l.Charge("nf", 42)
	if s := l.String(); s == "" {
		t.Error("empty String()")
	}
}

func TestModelValidate(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	m := DefaultModel()
	m.FreqHz = 0
	if err := m.Validate(); err == nil {
		t.Error("zero FreqHz accepted")
	}
	m = DefaultModel()
	m.GMATLookup = 0
	if err := m.Validate(); err == nil {
		t.Error("zero GMATLookup accepted")
	}
	m = DefaultModel()
	m.ONVMCoreBudget = 0
	if err := m.Validate(); err == nil {
		t.Error("zero core budget accepted")
	}
	if err := (&Model{}).Validate(); err == nil {
		t.Error("zero model accepted")
	}
}
