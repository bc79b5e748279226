package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// referencePrice is what the fast path charged a packet for its rule
// when it worked the charge out per packet (PR 22 and before), kept
// here, outside the engine, as the arithmetic an installed rule's
// stored price must reproduce.
func referencePrice(m *cost.Model, consolidateHeaders bool, rule *mat.GlobalRule) (fixed, header uint64) {
	fixed = m.HashFID + m.FastPathBase + m.EventCheck + m.GMATLookup
	if !rule.Drop {
		fixed += m.FastPathPerHA * uint64(len(rule.Spans))
	}
	switch {
	case rule.Drop:
		header = m.DropAction
	case consolidateHeaders:
		// The recording's header work merged: a field rewritten once
		// however often it is modified, an encap cancelled by the decap
		// that pops it, a decap of a header the packet arrived with kept.
		var fields []packet.Field
		var pending []packet.HeaderType
		decaps := 0
		for _, sp := range rule.Spans {
			for _, a := range sp.Actions {
				switch a.Kind {
				case mat.ActionModify:
					if !slices.Contains(fields, a.Field) {
						fields = append(fields, a.Field)
					}
				case mat.ActionEncap:
					pending = append(pending, a.Header.Type)
				case mat.ActionDecap:
					if len(pending) > 0 {
						pending = pending[:len(pending)-1]
					} else {
						decaps++
					}
				}
			}
		}
		header = uint64(len(fields))*m.ModifyField + uint64(decaps)*m.DecapHeader + uint64(len(pending))*m.EncapHeader
		if len(fields)+decaps+len(pending) > 0 {
			header += m.ChecksumUpdate
		}
	default:
		for _, sp := range rule.Spans {
			if sp.Actions == nil {
				continue
			}
			var mods, encaps, decaps uint64
			for _, a := range sp.Actions {
				switch a.Kind {
				case mat.ActionModify:
					mods++
				case mat.ActionEncap:
					encaps++
				case mat.ActionDecap:
					decaps++
				}
			}
			header += m.Parse + mods*m.ModifyField + encaps*m.EncapHeader + decaps*m.DecapHeader
			if mods+encaps+decaps > 0 {
				header += m.ChecksumUpdate
			}
		}
	}
	return fixed, header
}

// scriptedNF plays back, on whatever packet it is given, the action
// list at its position of the script the test last set.
type scriptedNF struct {
	name   string
	at     int
	script *[][]mat.HeaderAction
}

func (n *scriptedNF) Name() string { return n.name }

func (n *scriptedNF) Process(ctx *Ctx, pkt *packet.Packet) (Verdict, error) {
	for _, a := range (*n.script)[n.at] {
		if err := ctx.AddHeaderAction(pkt, a); err != nil {
			return 0, err
		}
		if pkt.Dropped() {
			return VerdictDrop, nil
		}
	}
	return VerdictForward, nil
}

// randomScript draws per-NF action lists over the alphabet of mat's
// FuzzConsolidate decoder (which is private to that package's tests):
// forwards, modifies of every checksummed field, AH and VLAN encaps,
// decaps of what is pending — cancelling pairs — and, one script in
// four, a drop that ends the chain.
func randomScript(rng *rand.Rand, nNFs int) [][]mat.HeaderAction {
	fields := []packet.Field{
		packet.FieldSrcIP, packet.FieldDstIP, packet.FieldSrcPort,
		packet.FieldDstPort, packet.FieldTTL, packet.FieldDSCP,
	}
	script := make([][]mat.HeaderAction, nNFs)
	var pending []packet.HeaderType
	dropAt := -1
	if rng.Intn(4) == 0 {
		dropAt = rng.Intn(nNFs)
	}
	for i := range script {
		for n := rng.Intn(4); n > 0; n-- {
			switch op := rng.Intn(5); {
			case op == 0:
				script[i] = append(script[i], mat.Forward())
			case op == 1:
				f := fields[rng.Intn(len(fields))]
				v := make([]byte, f.Size())
				rng.Read(v)
				script[i] = append(script[i], mat.Modify(f, v))
			case op == 2:
				script[i] = append(script[i], mat.Encap(packet.ExtraHeader{Type: packet.HeaderAH, SPI: rng.Uint32()}))
				pending = append(pending, packet.HeaderAH)
			case op == 3:
				script[i] = append(script[i], mat.Encap(packet.ExtraHeader{Type: packet.HeaderVLAN, Tag: uint16(rng.Intn(4096))}))
				pending = append(pending, packet.HeaderVLAN)
			case len(pending) > 0:
				script[i] = append(script[i], mat.Decap(pending[len(pending)-1]))
				pending = pending[:len(pending)-1]
			}
		}
		if i == dropAt {
			script[i] = append(script[i], mat.Drop())
		}
	}
	return script
}

// TestInstalledRulePriced: whatever shape of rule a chain records —
// modifies, residual and cancelled encaps, drops, under header
// consolidation and under its ablation — the rule the engine installs
// carries the price the fast path used to compute per packet, and a
// packet served from it is charged exactly that.
func TestInstalledRulePriced(t *testing.T) {
	for _, consolidate := range []bool{true, false} {
		var script [][]mat.HeaderAction
		chain := make([]NF, 3)
		for i := range chain {
			chain[i] = &scriptedNF{name: string(rune('a' + i)), at: i, script: &script}
		}
		opts := DefaultOptions()
		opts.ConsolidateHeaders = consolidate
		eng, err := NewEngine(chain, opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(23))
		var drops, forwards, headerWork int
		for flowN := 0; flowN < 400; flowN++ {
			script = randomScript(rng, len(chain))
			first, err := eng.ProcessPacket(udpPkt(t, uint16(1000+flowN), "first"))
			if err != nil {
				t.Fatal(err)
			}
			rule, ok := eng.Global().LookupLive(first.FID)
			if !ok {
				t.Fatalf("flow %d: no rule after the initial packet", flowN)
			}
			fixed, header := referencePrice(eng.model, consolidate, rule)
			if rule.FixedCycles != fixed || rule.HeaderCycles != header {
				t.Fatalf("consolidate=%v, rule %v: priced (%d, %d), reference (%d, %d)",
					consolidate, rule, rule.FixedCycles, rule.HeaderCycles, fixed, header)
			}
			second, err := eng.ProcessPacket(udpPkt(t, uint16(1000+flowN), "second"))
			if err != nil {
				t.Fatal(err)
			}
			if second.Path != PathFast || second.Fast.FixedCycles != fixed || second.Fast.HeaderCycles != header {
				t.Fatalf("consolidate=%v, rule %v: packet took %v charged (%d, %d), reference (%d, %d)",
					consolidate, rule, second.Path, second.Fast.FixedCycles, second.Fast.HeaderCycles, fixed, header)
			}
			if rule.Drop {
				drops++
			} else {
				forwards++
			}
			if mods, decaps, encaps := rule.HeaderWork(); mods+decaps+encaps > 0 {
				headerWork++
			}
		}
		if drops < 20 || forwards < 20 || headerWork < 20 {
			t.Errorf("consolidate=%v: %d drop rules, %d forwarding, %d with header work: the scripts cover too little", consolidate, drops, forwards, headerWork)
		}
		if err := eng.CheckRecords(); err != nil {
			t.Error(err)
		}
	}
}

// rerouteNF rewrites the destination address and registers a one-shot
// event that, once armed, rewrites it elsewhere.
type rerouteNF struct {
	declared
	name  string
	armed atomic.Uint64
}

func (n *rerouteNF) Name() string { return n.name }

func (n *rerouteNF) FlowStates() *FlowStates {
	return n.declare(nil, event.Event{
		Word:    func(State) *atomic.Uint64 { return &n.armed },
		AtLeast: 1,
		OneShot: true,
		Update: func(_ State, r *mat.LocalRule) {
			r.Actions = []mat.HeaderAction{mat.Modify(packet.FieldDstIP, []byte{192, 168, 1, 11}), mat.Modify(packet.FieldTTL, []byte{9})}
		},
	})
}

func (n *rerouteNF) Process(ctx *Ctx, pkt *packet.Packet) (Verdict, error) {
	if err := ctx.AddHeaderAction(pkt, mat.Modify(packet.FieldDstIP, []byte{192, 168, 1, 10})); err != nil {
		return 0, err
	}
	return VerdictForward, ctx.RegisterEvent(0)
}

// TestPriceSurvivesRestoreAndReconsolidation: the price is not part of
// a rule's image, so every path that puts a rule in the table has to
// work it out — an event-driven reconsolidation (whose rule has more
// header work than the one it replaces) and a restore from a checkpoint
// — and a live rule without one fails CheckRecords.
func TestPriceSurvivesRestoreAndReconsolidation(t *testing.T) {
	priced := func(eng *Engine, fid flow.FID, when string) *mat.GlobalRule {
		t.Helper()
		rule, ok := eng.Global().LookupLive(fid)
		if !ok {
			t.Fatalf("%s: no live rule", when)
		}
		fixed, header := referencePrice(eng.model, true, rule)
		if rule.FixedCycles != fixed || rule.HeaderCycles != header {
			t.Errorf("%s: rule %v priced (%d, %d), reference (%d, %d)", when, rule, rule.FixedCycles, rule.HeaderCycles, fixed, header)
		}
		if err := eng.CheckRecords(); err != nil {
			t.Errorf("%s: %v", when, err)
		}
		return rule
	}

	lb := &rerouteNF{name: "lb"}
	eng, err := NewEngine([]NF{lb}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.ProcessPacket(udpPkt(t, 4300, "first"))
	if err != nil {
		t.Fatal(err)
	}
	before := priced(eng, first.FID, "after the initial packet").HeaderCycles
	lb.armed.Store(1)
	if res, err := eng.ProcessPacket(udpPkt(t, 4300, "second")); err != nil || res.Path != PathFast || res.Fast.EventsFired != 1 {
		t.Fatalf("second packet: %+v, %v; want one event fired on the fast path", res, err)
	}
	if after := priced(eng, first.FID, "after the reconsolidation"); after.Version != 1 || after.HeaderCycles <= before {
		t.Errorf("reconsolidated rule v%d header price %d, was %d: want v1 and a second modify's worth more", after.Version, after.HeaderCycles, before)
	}

	// Restore: the fakeModifier's rule is restorable (no events).
	src := walEngine(t, []NF{&fakeModifier{name: "nat", dip: [4]byte{99, 0, 0, 7}}})
	res, err := src.ProcessPacket(persistPkt(t, 6000, 1))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := wal.DecodeCheckpoint(cp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	fresh := walEngine(t, []NF{&fakeModifier{name: "nat", dip: [4]byte{99, 0, 0, 7}}})
	if err := fresh.Restore(decoded, src.WAL().Bytes()); err != nil {
		t.Fatal(err)
	}
	restored := priced(fresh, res.FID, "after the restore")

	// A rule that reaches the table around the engine carries no price.
	unpriced := *restored
	unpriced.FixedCycles, unpriced.HeaderCycles = 0, 0
	fresh.Global().Install(&unpriced)
	if err := fresh.CheckRecords(); err == nil || !strings.Contains(err.Error(), "carries no price") {
		t.Errorf("CheckRecords over an unpriced live rule = %v", err)
	}
}

// TestDataChargeMatchesExecute is the one pricing formula's property: for
// random Table-I mixes of state functions declared as data, under both
// ParallelSF settings, the charge Engine.price works out before the
// install is what Execute (parallel) or ExecuteSequential (sequential)
// charges for the same batches, and the flat loop of adds the fast path
// runs instead leaves the flow's words as a run does. A rule with a
// handler among its functions is not priced: it runs Execute.
func TestDataChargeMatchesExecute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	classes := []sfunc.PayloadClass{sfunc.ClassIgnore, sfunc.ClassRead, sfunc.ClassWrite}
	prices := []cost.Price{cost.CounterUpdate, cost.ConnTrackLookup}
	pkt := packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: 1234, DstPort: 80, Proto: packet.ProtoUDP, Payload: []byte("charged"),
	})
	handler := sfunc.Func{Name: "handler", Class: sfunc.ClassRead,
		Run: func(a sfunc.Args, _ *packet.Packet) (uint64, error) { return a.Model.InspectBase, nil }}
	shared := 0 // parallel trials with a shared stage beside another
	for trial := 0; trial < 400; trial++ {
		m := cost.DefaultModel()
		m.ForkJoin, m.CounterUpdate, m.ConnTrackLookup = 1+rng.Uint64()%500, 1+rng.Uint64()%500, 1+rng.Uint64()%500
		parallel, mixed := trial%2 == 0, trial%5 == 4
		e := &Engine{model: m, opts: Options{EnableSpeedyBox: true, ConsolidateHeaders: true, ParallelSF: parallel}}
		contribs := make([]mat.Contribution, 1+rng.Intn(6))
		for i := range contribs {
			words := 1 + rng.Intn(3)
			funcs := make([]sfunc.Func, 1+rng.Intn(3))
			for j := range funcs {
				f := &funcs[j]
				f.Name, f.Class, f.Price = fmt.Sprintf("f%d", j), classes[rng.Intn(3)], prices[rng.Intn(2)]
				for k := rng.Intn(3); k > 0; k-- {
					f.Adds = append(f.Adds, sfunc.Add{Word: uint8(rng.Intn(words)), Operand: sfunc.Operand(1 + rng.Intn(2))})
				}
			}
			calls := []uint8{uint8(rng.Intn(len(funcs)))}
			for k := rng.Intn(3); k > 0; k-- {
				calls = append(calls, uint8(rng.Intn(len(funcs))))
			}
			if mixed && i == len(contribs)-1 {
				funcs = append(funcs, handler)
				calls = append(calls, uint8(len(funcs)-1))
			}
			name := fmt.Sprintf("nf%d", i)
			contribs[i] = mat.Contribution{NF: name,
				Rule:  &mat.LocalRule{Actions: []mat.HeaderAction{mat.Forward()}, Funcs: calls},
				Site:  &sfunc.Site{NF: name, At: i, Funcs: funcs, Model: m},
				State: make(sfunc.State, words)}
		}
		rule, err := mat.Consolidate(1, contribs)
		if err != nil {
			t.Fatal(err)
		}
		e.price(rule)
		x := rule.Plan
		if parallel && x.ParallelStages() > 0 && x.Len() > 1 {
			shared++
		}
		var run sfunc.ExecResult
		if parallel {
			run, err = x.Execute(rule.Batches, pkt, m.ForkJoin)
		} else {
			run, err = sfunc.ExecuteSequential(rule.Batches, pkt)
		}
		if err != nil {
			t.Fatal(err)
		}
		dispatch := uint64(0)
		if parallel {
			dispatch = m.ForkJoin / 2 * uint64(len(rule.Batches))
		}
		if x.Charge.Dispatch != dispatch || x.Charge.Batches != len(rule.Batches) {
			t.Fatalf("trial %d: charged dispatch %d for %d batches, want %d for %d",
				trial, x.Charge.Dispatch, x.Charge.Batches, dispatch, len(rule.Batches))
		}
		if mixed {
			if x.Priced() {
				t.Fatalf("trial %d: a rule with a handler is priced %+v", trial, x.Charge.SF)
			}
			continue
		}
		if !x.Priced() || x.Charge.SF != run {
			t.Fatalf("trial %d (parallel %v, plan %v): priced %+v, a run charges %+v", trial, parallel, x, x.Charge.SF, run)
		}
		// The run added each word's due once; the flat loop adds it again.
		var once [][]uint64
		for _, c := range contribs {
			var ws []uint64
			for i := range c.State {
				ws = append(ws, c.State[i].Load())
			}
			once = append(once, ws)
		}
		x.Add(pkt)
		for i, c := range contribs {
			for w := range c.State {
				if got := c.State[w].Load(); got != 2*once[i][w] {
					t.Fatalf("trial %d: %s word %d is %d after a run and the adds, want %d", trial, c.NF, w, got, 2*once[i][w])
				}
			}
		}
	}
	if shared == 0 {
		t.Error("no parallel trial had a shared stage beside another: the fork/join charge went untested")
	}
}
