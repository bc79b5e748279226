package core

import (
	"bytes"
	"sync/atomic"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
)

// poisonEventNF registers an event whose update rewrites the flow's
// actions into a sequence that cannot be consolidated (a decap with no
// matching pending encap type after an encap of a different type).
type poisonEventNF struct {
	declared
	name  string
	armed atomic.Uint64
}

func (p *poisonEventNF) Name() string { return p.name }

func (p *poisonEventNF) FlowStates() *FlowStates {
	return p.declare(nil, event.Event{
		Word:    func(State) *atomic.Uint64 { return &p.armed },
		AtLeast: 1,
		OneShot: true,
		Update: func(_ State, r *mat.LocalRule) {
			r.Actions = []mat.HeaderAction{
				mat.Encap(packet.ExtraHeader{Type: packet.HeaderAH, SPI: 1}),
				mat.Decap(packet.HeaderVLAN), // mismatched: not consolidatable
			}
		},
	})
}

func (p *poisonEventNF) Process(ctx *Ctx, pkt *packet.Packet) (Verdict, error) {
	ctx.Charge(100)
	if err := ctx.AddHeaderAction(pkt, mat.Forward()); err != nil {
		return 0, err
	}
	if err := ctx.RegisterEvent(0); err != nil {
		return 0, err
	}
	return VerdictForward, nil
}

// TestEventUpdateToNonConsolidatableFallsBack: when an event rewrites
// a rule into something the consolidator rejects, the engine must
// evict the rule and keep serving the flow on the slow path rather
// than failing or executing stale actions.
func TestEventUpdateToNonConsolidatableFallsBack(t *testing.T) {
	nf := &poisonEventNF{name: "poison"}
	eng, err := NewEngine([]NF{nf}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(i int) *packet.Packet { return udpPkt(t, 4242, "p") }
	if _, err := eng.ProcessPacket(mk(0)); err != nil {
		t.Fatal(err)
	}
	r, err := eng.ProcessPacket(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Path != PathFast {
		t.Fatalf("pre-event path = %v", r.Path)
	}

	nf.armed.Store(1)
	// The event fires on this packet's pre-check; reconsolidation
	// fails; the packet must still be processed (slow-path fallback).
	r, err = eng.ProcessPacket(mk(2))
	if err != nil {
		t.Fatalf("packet after poison event errored: %v", err)
	}
	if r.Path != PathSlow {
		t.Errorf("post-event path = %v, want slow-path fallback", r.Path)
	}
	if eng.Global().Len() != 0 {
		// Careful: the slow-path fallback runs without recording
		// (kind was Subsequent), so no new rule gets installed either.
		t.Errorf("stale rule still installed: %d", eng.Global().Len())
	}
	// While the condition stays armed, every re-record re-registers
	// the event and every consolidation gets poisoned again: the flow
	// correctly stays on the slow path. Once the condition clears,
	// the next initial packet records a clean rule and the flow
	// re-stabilizes on the fast path.
	nf.armed.Store(0)
	if _, err := eng.ProcessPacket(mk(3)); err != nil {
		t.Fatal(err)
	}
	r, err = eng.ProcessPacket(mk(4))
	if err != nil {
		t.Fatal(err)
	}
	if r.Path != PathFast {
		t.Errorf("flow did not restabilize: path = %v", r.Path)
	}
}

// taggerNF pushes n 802.1Q tags onto every packet of a flow and records
// them: past 5 461 of them the residual encaps are more than a program's
// 64 KiB can carry.
type taggerNF struct{ n int }

func (f *taggerNF) Name() string { return "tagger" }

func (f *taggerNF) Process(ctx *Ctx, pkt *packet.Packet) (Verdict, error) {
	for i := 0; i < f.n; i++ {
		h := packet.ExtraHeader{Type: packet.HeaderVLAN, Tag: uint16(i % 4096)}
		if err := ctx.AddHeaderAction(pkt, mat.Encap(h)); err != nil {
			return 0, err
		}
	}
	return VerdictForward, nil
}

// TestUnprogrammableRecordingStaysOnSlowPath: header work no program can
// carry is refused at consolidation (mat.ErrNotConsolidatable, counted
// as unconsolidatable) and never installed, so every packet of the flow
// is served by the chain itself, byte for byte as the baseline engine
// serves it; the refusal parks the flow on the ladder, so its next two
// packets do not record again. A flow whose work fits is served a
// program as usual.
func TestUnprogrammableRecordingStaysOnSlowPath(t *testing.T) {
	for _, tc := range []struct {
		tags int
		path Path
	}{{5462, PathSlow}, {3, PathFast}} {
		hub := telemetry.NewHub()
		opts := DefaultOptions()
		opts.Telemetry = hub
		sbox, err := NewEngine([]NF{&taggerNF{n: tc.tags}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts = DefaultOptions()
		opts.EnableSpeedyBox = false
		base, err := NewEngine([]NF{&taggerNF{n: tc.tags}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		diverged := 0
		for i := 0; i < 3; i++ {
			p := udpPkt(t, 4343, "tagged")
			q := p.Clone()
			rs, err := sbox.ProcessPacket(p)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := base.ProcessPacket(q)
			if err != nil {
				t.Fatal(err)
			}
			if rs.Verdict != rb.Verdict || !bytes.Equal(p.Data(), q.Data()) {
				diverged++
			}
			if want := tc.path; i > 0 && rs.Path != want {
				t.Errorf("%d tags, packet %d: path %v, want %v", tc.tags, i, rs.Path, want)
			}
		}
		refused := hub.Registry.Snapshot().Counters["speedybox_consolidate_unconsolidatable_total"]
		if diverged != 0 {
			t.Errorf("%d tags: %d packets diverged from the baseline", tc.tags, diverged)
		}
		if slow := tc.path == PathSlow; slow != (refused == 1) || slow != (sbox.Global().Len() == 0) {
			t.Errorf("%d tags: %d consolidations refused, %d rules installed", tc.tags, refused, sbox.Global().Len())
		}
	}
}

// crossedNF pushes a VLAN tag and an AH and then pops the tag from under
// the AH: the packet takes it, but no rule can carry it (a decap must
// match the last pending encap), so every recording of it is refused.
type crossedNF struct{}

func (crossedNF) Name() string { return "crossed" }

func (crossedNF) Process(ctx *Ctx, pkt *packet.Packet) (Verdict, error) {
	for _, a := range []mat.HeaderAction{
		mat.Encap(packet.ExtraHeader{Type: packet.HeaderVLAN, Tag: 7}),
		mat.Encap(packet.ExtraHeader{Type: packet.HeaderAH, SPI: 1}),
		mat.Decap(packet.HeaderVLAN),
	} {
		if err := ctx.AddHeaderAction(pkt, a); err != nil {
			return 0, err
		}
	}
	return VerdictForward, nil
}

// TestRefusedSetupBacksOff: a refused set-up parks its flow on the
// degradation ladder, whatever refused it. One flow alone on its engine
// — its recording no rule can carry, or its rule refused by the
// tenant's quota — sends 4096 packets: it records on the ladder's
// schedule (8 ticks, doubling to the 1024-tick cap), at most 12 times,
// not on every packet, every recording is refused, and each packet
// leaves as the baseline engine's.
func TestRefusedSetupBacksOff(t *testing.T) {
	const packets = 4096
	for _, tc := range []struct {
		name  string
		chain func() []NF
		opts  func(*Options)
	}{
		{"unconsolidatable", func() []NF { return []NF{crossedNF{}} }, nil},
		{"rule quota", func() []NF { return []NF{&fakeEventNF{name: "dos"}, &fakeCounter{name: "monitor"}} },
			func(o *Options) { o.Admission = noRules{newHeldCounter()} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hub := telemetry.NewHub()
			opts := DefaultOptions()
			opts.Telemetry = hub
			if tc.opts != nil {
				tc.opts(&opts)
			}
			sbox, err := NewEngine(tc.chain(), opts)
			if err != nil {
				t.Fatal(err)
			}
			base, err := NewEngine(tc.chain(), BaselineOptions())
			if err != nil {
				t.Fatal(err)
			}
			diverged := 0
			for i := 0; i < packets; i++ {
				p := udpPkt(t, 4444, "refused")
				p.Meta.Tenant = 1
				q := p.Clone()
				rs, err := sbox.ProcessPacket(p)
				if err != nil {
					t.Fatal(err)
				}
				rb, err := base.ProcessPacket(q)
				if err != nil {
					t.Fatal(err)
				}
				if rs.Verdict != rb.Verdict || !bytes.Equal(p.Data(), q.Data()) {
					diverged++
				}
			}
			// Every packet is initial, as the flow never holds a rule; the
			// ladder holds back all but those that record.
			st := sbox.Stats()
			records := st.Initial - st.DegradedPackets
			refused := st.RuleQuotaDenied + hub.Registry.Snapshot().Counters["speedybox_consolidate_unconsolidatable_total"]
			if st.Initial != packets || records > 12 || refused != records {
				t.Errorf("%d packets, %d initial, %d held by the ladder: %d recordings, %d refused; want at most 12, all refused",
					st.Packets, st.Initial, st.DegradedPackets, records, refused)
			}
			if diverged != 0 || sbox.Global().Len() != 0 || sbox.DegradedFlows() != 1 {
				t.Errorf("%d packets diverged from the baseline, %d rules, %d flows on the ladder; want 0, 0, 1",
					diverged, sbox.Global().Len(), sbox.DegradedFlows())
			}
			if err := sbox.CheckRecords(); err != nil {
				t.Error(err)
			}
			t.Logf("%d recordings in %d packets", records, packets)
		})
	}
}
