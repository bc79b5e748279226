package topo

import (
	"sync"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/chainspec"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// TestAdmissionRuleSemantics pins the core.Admission contract: counters
// by tenant, one unit a call — what each flow holds, and so whether an
// admit is a flow's first, is the engine's to know.
func TestAdmissionRuleSemantics(t *testing.T) {
	a := NewTenantAdmission([]TenantSpec{{ID: 1, RuleQuota: 1}})
	if !a.AdmitRule(1) {
		t.Fatal("first admit under quota denied")
	}
	if a.AdmitRule(1) {
		t.Fatal("second rule admitted over quota 1")
	}
	if got := a.RuleDenials(1); got != 1 {
		t.Fatalf("RuleDenials = %d, want 1", got)
	}
	if got := a.RulesHeld(1); got != 1 {
		t.Fatalf("RulesHeld = %d, want 1", got)
	}
	a.ReleaseRule(1)
	if got := a.RulesHeld(1); got != 0 {
		t.Fatalf("RulesHeld = %d after release, want 0", got)
	}
	if !a.AdmitRule(1) {
		t.Fatal("admit after release denied")
	}
}

func TestAdmissionEventSemantics(t *testing.T) {
	a := NewTenantAdmission([]TenantSpec{{ID: 1, EventCap: 2}})
	if !a.AdmitEvent(1) || !a.AdmitEvent(1) {
		t.Fatal("admits under cap denied")
	}
	if a.AdmitEvent(1) {
		t.Fatal("third event admitted over cap 2")
	}
	if got := a.EventsHeld(1); got != 2 {
		t.Fatalf("EventsHeld = %d, want 2", got)
	}
	if got := a.EventDenials(1); got != 1 {
		t.Fatalf("EventDenials = %d, want 1", got)
	}
	// A flow's whole event budget comes back in one release.
	a.ReleaseEvents(1, 2)
	if got := a.EventsHeld(1); got != 0 {
		t.Fatalf("EventsHeld = %d after release, want 0", got)
	}
}

func TestAdmissionExemptions(t *testing.T) {
	a := NewTenantAdmission([]TenantSpec{{ID: 1, RuleQuota: 1, EventCap: 1}})
	// Tenant 0 (untagged) is never denied.
	for i := 0; i < 10; i++ {
		if !a.AdmitRule(0) || !a.AdmitEvent(0) {
			t.Fatal("untagged flow denied")
		}
	}
	// A tenant policies tag but the spec never declared is tracked,
	// never denied.
	for i := 0; i < 10; i++ {
		if !a.AdmitRule(9) || !a.AdmitEvent(9) {
			t.Fatal("undeclared tenant denied")
		}
	}
	if a.RulesHeld(9) != 10 || a.EventsHeld(9) != 10 {
		t.Errorf("undeclared tenant not tracked: rules=%d events=%d",
			a.RulesHeld(9), a.EventsHeld(9))
	}
	if a.RuleDenials(9) != 0 || a.EventDenials(9) != 0 {
		t.Error("undeclared tenant was denied")
	}
}

// TestAdmissionHoldsPerChain: FIDs are each chain engine's own, so two
// chains' flows can share one, while their budgets are their tenants'.
// Two UDP flows with one home FID go down chains a and b, charged to
// tenants 1 and 2 (quota 1 each): each tenant holds exactly the rules
// installed for it across the chains, and a second tenant-2 flow is
// denied. Keyed by FID, the policy's holds let the collided flows share
// one budget: tenant 2 read 0 held and admitted the second flow too.
func TestAdmissionHoldsPerChain(t *testing.T) {
	spec := &Spec{
		Name: "collide",
		Chains: []ChainSpec{
			{Name: "a", NFs: []chainspec.NFSpec{{Type: "monitor"}}},
			{Name: "b", NFs: []chainspec.NFSpec{{Type: "monitor"}}},
		},
		Policies: []PolicySpec{
			{Chain: "a", DstPortMin: 1000, DstPortMax: 1000, Tenant: 1},
			{Chain: "b", DstPortMin: 2000, DstPortMax: 2000, Tenant: 2},
		},
		Tenants: []TenantSpec{{ID: 1, RuleQuota: 1}, {ID: 2, RuleQuota: 1}},
	}
	tp, err := Build(spec, BuildConfig{Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	tuple := func(sport, dport uint16) packet.FiveTuple {
		return packet.FiveTuple{SrcIP: [4]byte{10, 1, 0, 1}, DstIP: [4]byte{10, 2, 0, 1},
			SrcPort: sport, DstPort: dport, Proto: packet.ProtoUDP}
	}
	mk := func(ft packet.FiveTuple) *packet.Packet {
		return packet.MustBuild(packet.Spec{SrcIP: ft.SrcIP, DstIP: ft.DstIP,
			SrcPort: ft.SrcPort, DstPort: ft.DstPort, Proto: ft.Proto, Payload: []byte("x")})
	}
	// A tuple of each chain (by destination port) with one home FID.
	seen := map[flow.FID]packet.FiveTuple{}
	var ta, tb packet.FiveTuple
	for sport := uint16(1); tb.SrcPort == 0; sport++ {
		if sport == 0 {
			t.Fatal("no two tuples share a home FID")
		}
		seen[flow.HashKey(tuple(sport, 1000).Key())] = tuple(sport, 1000)
		if match, ok := seen[flow.HashKey(tuple(sport, 2000).Key())]; ok {
			ta, tb = match, tuple(sport, 2000)
		}
	}
	pa, pb := mk(ta), mk(tb)
	third := mk(tuple(tb.SrcPort+1, 2000))
	if _, err := tp.RunBatch([]*packet.Packet{pa, pb, third}, 1); err != nil {
		t.Fatal(err)
	}
	if fa, fb := pa.Meta.FID, pb.Meta.FID; fa != fb {
		t.Fatalf("flows of chains a and b got FIDs %d and %d, want one", fa, fb)
	}
	adm := tp.Admission()
	for tenant, chain := range map[int32]int{1: 0, 2: 1} {
		if held, rules := adm.RulesHeld(tenant), tp.Engine(chain).Global().Len(); held != uint64(rules) {
			t.Errorf("tenant %d holds %d rules; its chain installed %d", tenant, held, rules)
		}
	}
	if got := adm.RuleDenials(2); got != 1 {
		t.Errorf("tenant 2 (quota 1) denied %d rules for its second flow, want 1", got)
	}
	if got := adm.RulesHeld(2); got != 1 {
		t.Errorf("tenant 2 holds %d rules against a quota of 1", got)
	}
}

// TestAdmissionHoldsUnderConcurrency: workers on disjoint flows, as RSS
// deals them, share the one policy. Every charge is held on a flow's
// record and every release matches one, so what a tenant holds is what
// its flows hold — the rules installed for it and the events those rules
// guard, none for a flow refused its rule — under -race, and back to
// zero once they end.
func TestAdmissionHoldsUnderConcurrency(t *testing.T) {
	tp := build(t, tenantSpec([]TenantSpec{{ID: 1, RuleQuota: 8, EventCap: 12}, {ID: 2}}))
	const workers, flows, pkts = 4, 16, 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < pkts; k++ {
				for f := 0; f < flows; f++ {
					p := packet.MustBuild(packet.Spec{
						SrcIP: packet.IP4(10, 7, byte(g), byte(f)), DstIP: packet.IP4(10, 8, 0, 1),
						SrcPort: 4000, DstPort: uint16(1000 + 1000*(f%2)), Proto: packet.ProtoUDP,
						Payload: []byte("payload"),
					})
					if _, err := tp.RunBatch([]*packet.Packet{p}, 1); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	eng, adm := tp.Engine(0), tp.Admission()
	rules, events := map[int32]uint64{}, map[int32]uint64{}
	for _, en := range eng.FlowEntries() {
		if _, ok := eng.Global().Lookup(en.FID); ok {
			tenant := int32(en.Tuple.DstPort / 1000)
			rules[tenant]++
			events[tenant] += uint64(eng.Events().Pending(en.FID))
		}
	}
	for tenant := int32(1); tenant <= 2; tenant++ {
		if held := adm.RulesHeld(tenant); held != rules[tenant] {
			t.Errorf("tenant %d holds %d rules; its flows have %d", tenant, held, rules[tenant])
		}
		if held := adm.EventsHeld(tenant); held != events[tenant] {
			t.Errorf("tenant %d holds %d events; its rule-holding flows registered %d", tenant, held, events[tenant])
		}
	}
	if adm.RuleDenials(1)+adm.EventDenials(1) == 0 || adm.RulesHeld(1) > 8 || adm.EventsHeld(1) > 12 {
		t.Errorf("tenant 1: %d+%d denials, %d rules and %d events held against quotas of 8 and 12",
			adm.RuleDenials(1), adm.EventDenials(1), adm.RulesHeld(1), adm.EventsHeld(1))
	}
	for _, en := range eng.FlowEntries() {
		eng.TeardownFlow(en.FID)
	}
	for tenant := int32(1); tenant <= 2; tenant++ {
		if r, e := adm.RulesHeld(tenant), adm.EventsHeld(tenant); r != 0 || e != 0 {
			t.Errorf("tenant %d holds %d rules and %d events after every flow ended", tenant, r, e)
		}
	}
	if err := eng.CheckRecords(); err != nil {
		t.Error(err)
	}
}
