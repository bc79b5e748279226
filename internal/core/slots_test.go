package core

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
)

// slotMix records, by the flow's source port, the rule of one arm of
// the ladder, so the slots of one Batch take every kind of account in
// turn: port%4 == 0 a lone forward (a plain rule, which the summary
// serves), 1 a counting state function declared as data and a rewrite
// (a rule-served packet with a state-function charge, as Chain1's), 2 a
// drop, and 3 a forward guarded by a recurring event that always holds
// (a rule-served packet whose events fire and rebuild its rule).
type slotMix struct{ flows FlowStates }

func newSlotMix() *slotMix {
	f := &slotMix{}
	f.flows.Words = 2
	f.flows.Funcs = []sfunc.Func{{Name: "count", Class: sfunc.ClassIgnore,
		Adds: []sfunc.Add{{Word: 0, Operand: sfunc.One}, {Word: 1, Operand: sfunc.Length}}, Price: cost.CounterUpdate}}
	f.flows.Events = []event.Event{{Word: zeroWord, AtLeast: 0, Update: func(State, *mat.LocalRule) {}}}
	return f
}

func (f *slotMix) Name() string { return "mix" }

func (f *slotMix) FlowStates() *FlowStates { return &f.flows }

func (f *slotMix) Process(ctx *Ctx, pkt *packet.Packet) (Verdict, error) {
	ctx.Charge(ctx.Model.Parse + ctx.Model.Classify)
	switch pkt.SrcPort() % 4 {
	case 1:
		st := ctx.FlowState(&f.flows)
		st[0].Add(1)
		st[1].Add(uint64(pkt.Len()))
		ctx.Charge(ctx.Model.CounterUpdate)
		dip := [4]byte{99, 0, 0, 1}
		if err := ctx.AddHeaderAction(pkt, mat.Modify(packet.FieldDstIP, dip[:])); err != nil {
			return 0, err
		}
		return VerdictForward, ctx.AddStateFunc(0)
	case 2:
		return VerdictDrop, ctx.AddHeaderAction(pkt, mat.Drop())
	case 3:
		if err := ctx.AddHeaderAction(pkt, mat.Forward()); err != nil {
			return 0, err
		}
		return VerdictForward, ctx.RegisterEvent(0)
	}
	return VerdictForward, ctx.AddHeaderAction(pkt, mat.Forward())
}

// slotMixTrace interleaves, in a fixed pseudo-random order, the lives of
// 16 flows, two of each arm of slotMix over TCP and two over UDP. A TCP
// life is a SYN, the handshake's ACK, 0-5 data packets and a FIN, and a
// flow lives three times on one tuple; a UDP flow sends 1-24 packets.
// The function returned builds a fresh copy, since the chain rewrites
// what it forwards.
func slotMixTrace(t *testing.T) func() []*packet.Packet {
	rng := rand.New(rand.NewPCG(47, 11))
	type step struct {
		port  uint16
		flags uint8
		seq   int
		udp   bool
	}
	var lives [16][]step
	for i := range lives {
		port := uint16(7200 + i)
		if i/4%2 == 1 {
			for n := 1 + rng.IntN(24); n > 0; n-- {
				lives[i] = append(lives[i], step{port: port, udp: true})
			}
			continue
		}
		for range 3 {
			lives[i] = append(lives[i], step{port: port, flags: packet.TCPFlagSYN}, step{port: port, flags: packet.TCPFlagACK, seq: 1})
			data := rng.IntN(6)
			for s := 0; s < data; s++ {
				lives[i] = append(lives[i], step{port: port, flags: packet.TCPFlagACK, seq: 2 + s})
			}
			lives[i] = append(lives[i], step{port: port, flags: packet.TCPFlagFIN | packet.TCPFlagACK, seq: 2 + data})
		}
	}
	var order []step
	for {
		var open []int
		for i := range lives {
			if len(lives[i]) > 0 {
				open = append(open, i)
			}
		}
		if len(open) == 0 {
			break
		}
		i := open[rng.IntN(len(open))]
		order = append(order, lives[i][0])
		lives[i] = lives[i][1:]
	}
	return func() []*packet.Packet {
		pkts := make([]*packet.Packet, len(order))
		for i, s := range order {
			if s.udp {
				pkts[i] = udpPkt(t, s.port, "slot")
				continue
			}
			payload := "slot"
			if s.flags != packet.TCPFlagACK {
				payload = ""
			}
			pkts[i] = tcpPkt(t, s.port, s.flags, s.seq, payload)
		}
		return pkts
	}
}

// ownedCopy is a caller-owned deep copy of a result, its Fast held by
// value and its Slow and PerNF copied (an empty PerNF as nil), for
// reflect.DeepEqual.
func ownedCopy(r *PacketResult) PacketResult {
	c := *r
	if r.Slow != nil {
		s := *r.Slow
		s.PerNF = nil
		if len(r.Slow.PerNF) > 0 {
			s.PerNF = append(s.PerNF, r.Slow.PerNF...)
		}
		c.Slow = &s
	}
	return c
}

// TestBatchSlotsCarryNothingOver: a Batch's result slots are not
// cleared between vectors, so each arm of the ladder must write a
// packet's account whole. One warm Batch runs vectors of varied sizes
// that mix handshake, initial (recording), summary-served, rule-served,
// event-firing, FIN/teardown and drop packets over slot after slot; a
// twin engine runs the same vectors on a fresh Batch each, and every
// result — its Fast, its *Slow and PerNF included — the counters and the
// hub's count of fast-path work must agree.
func TestBatchSlotsCarryNothingOver(t *testing.T) {
	newEngine := func() *Engine {
		opts := DefaultOptions()
		opts.Telemetry = telemetry.NewHub()
		eng, err := NewEngine([]NF{newSlotMix()}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng, twin := newEngine(), newEngine()
	trace := slotMixTrace(t)
	pkts, twinPkts := trace(), trace()
	warm := NewBatch(DefaultBatchSize)
	sizes := [...]int{32, 7, 32, 1, 13, 32, 5, 3}
	plain, carried := 0, 0
	for off, v := 0, 0; off < len(pkts); v++ {
		end := min(off+sizes[v%len(sizes)], len(pkts))
		got, err := eng.ProcessBatch(pkts[off:end], warm)
		if err != nil {
			t.Fatalf("vector at %d: %v", off, err)
		}
		want, err := twin.ProcessBatch(twinPkts[off:end], NewBatch(end-off))
		if err != nil {
			t.Fatalf("twin vector at %d: %v", off, err)
		}
		for i := range got {
			g, w := ownedCopy(&got[i]), ownedCopy(&want[i])
			if !reflect.DeepEqual(g, w) {
				t.Errorf("packet %d (slot %d): warm Batch %+v fast %+v slow %+v\nfresh Batch %+v fast %+v slow %+v",
					off+i, i, g, g.Fast, g.Slow, w, w.Fast, w.Slow)
			}
			if g.Path == PathFast && pkts[off+i].SrcPort()%4 == 0 {
				plain++
			}
			if off > 0 && g.Path == PathFast {
				carried++
			}
		}
		off = end
	}
	if plain == 0 || carried == 0 {
		t.Fatalf("%d summary-served packets, %d fast packets after the first vector: the trace checks nothing", plain, carried)
	}
	st, twinSt := eng.Stats(), twin.Stats()
	if st != twinSt {
		t.Errorf("stats diverge\nwarm Batch:  %+v\nfresh Batch: %+v", st, twinSt)
	}
	if st.Dropped == 0 || st.EventsFired == 0 || st.Final == 0 || st.Handshake == 0 || st.Consolidations == 0 {
		t.Errorf("the trace misses an arm: %+v", st)
	}
	if n := eng.tel.fastLat.Snapshot().Total; n != st.FastPath {
		t.Errorf("hub counted %d fast-path packets' work, the counters %d", n, st.FastPath)
	}
}
