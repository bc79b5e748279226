package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// TestNoStateLeakAcrossFlowLifecycles runs many full TCP lifecycles
// and asserts every table returns to empty: Global MAT, all Local
// MATs, the Event Table and the flow table.
func TestNoStateLeakAcrossFlowLifecycles(t *testing.T) {
	mod := &fakeModifier{name: "nat", dip: [4]byte{7, 7, 7, 7}}
	ev := &fakeEventNF{name: "dos"}
	eng, err := NewEngine([]NF{mod, ev}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mkPkt := func(sport uint16, flags uint8, payload string) *packet.Packet {
		return packet.MustBuild(packet.Spec{
			SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
			SrcPort: sport, DstPort: 80, Proto: packet.ProtoTCP,
			TCPFlags: flags, Payload: []byte(payload),
		})
	}
	for f := 0; f < 200; f++ {
		sport := uint16(10000 + f)
		seq := []*packet.Packet{
			mkPkt(sport, packet.TCPFlagSYN, ""),
			mkPkt(sport, packet.TCPFlagACK, ""),
			mkPkt(sport, packet.TCPFlagACK|packet.TCPFlagPSH, "data-1"),
			mkPkt(sport, packet.TCPFlagACK|packet.TCPFlagPSH, "data-2"),
			mkPkt(sport, packet.TCPFlagFIN|packet.TCPFlagACK, ""),
		}
		for i, p := range seq {
			if _, err := eng.ProcessPacket(p); err != nil {
				t.Fatalf("flow %d packet %d: %v", f, i, err)
			}
		}
	}
	// One table, one check: rules, recordings and events were the flow
	// entries' words and went with them, and an emptied table holds no
	// tombstones (the accessors behind speedybox_flow_table_flows,
	// _dead_slots, _records and _detached_entries).
	if err := eng.CheckRecords(); err != nil {
		t.Error(err)
	}
	if c := eng.class.Flows().Counts(); c != (flow.Counts{}) || eng.Global().Guarded() != 0 {
		t.Errorf("after every flow ended the flow table holds %+v and the Global MAT %d guarded rules", c, eng.Global().Guarded())
	}
	st := eng.Stats()
	if st.Packets != 200*5 || st.Final != 200 {
		t.Errorf("stats = %+v", st)
	}
}

// TestConcurrentDistinctFlows drives the engine from many goroutines,
// each owning distinct flows, under -race.
func TestConcurrentDistinctFlows(t *testing.T) {
	counter := &fakeCounter{name: "mon"}
	mod := &fakeModifier{name: "nat", dip: [4]byte{3, 3, 3, 3}}
	eng, err := NewEngine([]NF{mod, counter}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, flowsPer, pktsPer = 8, 5, 10
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for f := 0; f < flowsPer; f++ {
				sport := uint16(1000 + g*100 + f)
				for k := 0; k < pktsPer; k++ {
					p := packet.MustBuild(packet.Spec{
						SrcIP: packet.IP4(10, 0, byte(g), byte(f)), DstIP: packet.IP4(10, 9, 9, 9),
						SrcPort: sport, DstPort: 53, Proto: packet.ProtoUDP,
						Payload: []byte(fmt.Sprintf("g%d-f%d-k%d", g, f, k)),
					})
					if _, err := eng.ProcessPacket(p); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := uint64(goroutines * flowsPer * pktsPer)
	if counter.count.Load() != want {
		t.Errorf("counter = %d, want %d", counter.count.Load(), want)
	}
	if st := eng.Stats(); st.Packets != want {
		t.Errorf("stats.Packets = %d, want %d", st.Packets, want)
	}
}

// noEvents is an admission policy with an event cap of zero.
type noEvents struct{}

func (noEvents) AdmitRule(int32) bool     { return true }
func (noEvents) ReleaseRule(int32)        {}
func (noEvents) AdmitEvent(int32) bool    { return false }
func (noEvents) ReleaseEvents(int32, int) {}

// TestUnfinishedRecordingPublishesNothing: what the NFs record reaches
// their Local MATs only when the whole chain has run. A recording cut
// short — an NF error mid-chain, an injected NF crash, a refused event
// registration — leaves no Local MAT entry, no rule and no event
// behind, not even from the NFs that had already returned.
func TestUnfinishedRecordingPublishesNothing(t *testing.T) {
	nat := func() NF { return &fakeModifier{name: "nat", dip: [4]byte{7, 7, 7, 7}} }
	for _, tc := range []struct {
		name    string
		chain   []NF
		opts    func(*Options)
		wantErr error
	}{
		{name: "NF error", chain: []NF{nat(), &fakeCounter{name: "monitor"}, failingNF{}}, wantErr: ErrNFFailed},
		{name: "injected NF crash", chain: []NF{nat(), &fakeCounter{name: "monitor"}}, opts: func(o *Options) {
			o.Faults = fault.New(fault.Config{Seed: 1, Rates: map[fault.Kind]float64{fault.KindNFError: 1}})
		}},
		{name: "event denied", chain: []NF{nat(), &fakeEventNF{name: "dos"}, &fakeCounter{name: "monitor"}}, opts: func(o *Options) {
			o.Admission = noEvents{}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			if tc.opts != nil {
				tc.opts(&opts)
			}
			eng, err := NewEngine(tc.chain, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.ProcessPacket(udpPkt(t, 9601, "recorded, then abandoned"))
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if err == nil && (res.Kind != classifier.KindInitial || res.Slow.ConsolidateCycles != 0) {
				t.Errorf("result %+v %+v: want an initial packet that did not consolidate", res, res.Slow)
			}
			// A record left is the crashed flow's place on the ladder.
			if c := eng.class.Flows().Counts(); c.Records != eng.DegradedFlows() || c.Rules != 0 || eng.Global().Guarded() != 0 {
				t.Errorf("%+v, %d flows with events; want no recording, rule or event", c, eng.Global().Guarded())
			}
			if err := eng.CheckRecords(); err != nil {
				t.Error(err)
			}
		})
	}
}

// noRules is a held counter that refuses every rule.
type noRules struct{ *heldCounter }

func (noRules) AdmitRule(int32) bool { return false }

// TestRefusedRuleHoldsNothing: the install of a flow's rule is the one
// place its tenant is charged, for the rule and the events its recording
// registered together. Three tagged UDP flows through an event-registering
// chain, under a policy that refuses every rule, leave the tenant holding
// no rule and no event: each flow's record holds its place on the
// degradation ladder and no budget.
func TestRefusedRuleHoldsNothing(t *testing.T) {
	held := newHeldCounter()
	opts := DefaultOptions()
	opts.Admission = noRules{held}
	eng, err := NewEngine([]NF{&fakeEventNF{name: "dos"}, &fakeCounter{name: "monitor"}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for port := uint16(9701); port <= 9703; port++ {
		p := udpPkt(t, port, "refused")
		p.Meta.Tenant = 1
		if _, err := eng.ProcessPacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if r, ev := held.rules[1], held.events[1]; r != 0 || ev != 0 {
		t.Errorf("tenant 1 holds %d rule(s) and %d event(s) with every rule refused", r, ev)
	}
	if st := eng.Stats(); st.RuleQuotaDenied != 3 || st.EventCapDenied != 0 {
		t.Errorf("%d rule and %d event denials, want 3 and 0", st.RuleQuotaDenied, st.EventCapDenied)
	}
	flows := eng.class.Flows()
	flows.Each(func(h flow.Handle) {
		ed := flows.EditHandle(h)
		eng.events.Stand(ed, false, func(h flow.Handle, s *event.Standing) {
			if s.Rule || s.Events != 0 {
				t.Errorf("%v holds a budget: %+v", h.FID(), s)
			}
		})
		ed.Done()
	})
	if c := flows.Counts(); c.Rules != 0 || eng.DegradedFlows() != 3 {
		t.Errorf("%+v, %d flows on the ladder: want no rule and 3", c, eng.DegradedFlows())
	}
	if err := eng.CheckRecords(); err != nil {
		t.Error(err)
	}
}

// TestCtxRejectsMalformedRecording: the recording APIs validate what an
// NF hands them; a refused item is not recorded (and still costs the
// attempt), on an engine traversal and on a standalone context alike.
func TestCtxRejectsMalformedRecording(t *testing.T) {
	ctx := NewCtx("x", CtxConfig{FID: 1, Recording: true})
	if err := ctx.AddHeaderAction(mat.HeaderAction{}); err == nil {
		t.Error("invalid action accepted")
	}
	if err := ctx.AddStateFunc(0); err == nil {
		t.Error("undeclared state function accepted")
	}
	if err := ctx.RegisterEvent(0); err == nil {
		t.Error("undeclared event accepted")
	}
	for _, ev := range []event.Event{{Update: func(State, *mat.LocalRule) {}}, {Word: zeroWord}} {
		ill := NewCtx("x", CtxConfig{FID: 1, Recording: true, Flows: &FlowStates{Events: []event.Event{ev}}})
		if err := ill.RegisterEvent(0); err == nil {
			t.Error("an event declared without a condition or an update accepted")
		}
	}
	if _, ok := ctx.Recorded(); ok {
		t.Error("failed adds must not record")
	}
	if err := ctx.AddHeaderAction(mat.Forward()); err != nil {
		t.Fatal(err)
	}
	if r, ok := ctx.Recorded(); !ok || len(r.Actions) != 1 || len(r.Funcs) != 0 {
		t.Errorf("standalone context did not record: %+v", r)
	}
}
