package trace

import (
	"bytes"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/packet"
)

// hostile turns every adversarial model on.
func hostile(seed int64) AdversarialConfig {
	return AdversarialConfig{
		Config:             Config{Seed: seed, Flows: 60},
		Diurnal:            true,
		ElephantFraction:   0.1,
		SYNFloodFlows:      40,
		EventStormFraction: 0.1,
	}
}

func mustAdversarial(t *testing.T, cfg AdversarialConfig) *Trace {
	t.Helper()
	tr, err := GenerateAdversarial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// perFlow groups a trace's packets by 5-tuple, in trace order.
func perFlow(t *testing.T, tr *Trace) map[packet.FiveTuple][]*packet.Packet {
	t.Helper()
	out := make(map[packet.FiveTuple][]*packet.Packet)
	for _, p := range tr.Packets() {
		ft, err := p.FiveTuple()
		if err != nil {
			t.Fatal(err)
		}
		out[ft] = append(out[ft], p)
	}
	return out
}

func TestAdversarialDeterministicUnderSeed(t *testing.T) {
	a, b := mustAdversarial(t, hostile(42)), mustAdversarial(t, hostile(42))
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	pa, pb := a.Packets(), b.Packets()
	for i := range pa {
		if !bytes.Equal(pa[i].Data(), pb[i].Data()) {
			t.Fatalf("packet %d differs between equal seeds", i)
		}
	}
	c := mustAdversarial(t, hostile(43))
	if c.Len() == a.Len() && bytes.Equal(c.Packets()[0].Data(), pa[0].Data()) {
		t.Error("different seeds produced the same trace")
	}
}

// TestAdversarialFlowTotals: FlowInfo accounts for every packet, flow
// by flow, and each flow's packets play in its own order.
func TestAdversarialFlowTotals(t *testing.T) {
	tr := mustAdversarial(t, hostile(7))
	flows := perFlow(t, tr)
	if len(flows) != len(tr.Flows) {
		t.Fatalf("%d distinct tuples, %d flows", len(flows), len(tr.Flows))
	}
	sum := 0
	for _, f := range tr.Flows {
		sum += f.TotalPkts
		pkts := flows[f.Tuple]
		if len(pkts) != f.TotalPkts {
			t.Errorf("flow %v: %d packets, FlowInfo says %d", f.Tuple, len(pkts), f.TotalPkts)
		}
		for i := 1; i < len(pkts); i++ {
			if pkts[i].Meta.SeqInFlow < pkts[i-1].Meta.SeqInFlow {
				t.Errorf("flow %v: packet %d out of order", f.Tuple, i)
			}
		}
	}
	if sum != tr.Len() {
		t.Errorf("flow totals %d != trace length %d", sum, tr.Len())
	}
}

// TestAdversarialSYNFlood: the flood appends handshake-only flows of
// one bare SYN each, and no flood flow completes a handshake.
func TestAdversarialSYNFlood(t *testing.T) {
	const flood = 40
	tr := mustAdversarial(t, AdversarialConfig{Config: Config{Seed: 3, Flows: 20}, SYNFloodFlows: flood})
	if len(tr.Flows) != 20+flood {
		t.Fatalf("%d flows, want %d", len(tr.Flows), 20+flood)
	}
	flows := perFlow(t, tr)
	for _, f := range tr.Flows[20:] {
		if f.TotalPkts != 1 || f.DataPackets != 0 || f.Kind != KindBenign {
			t.Errorf("flood flow %v = %+v, want one benign packet", f.Tuple, f)
		}
		pkts := flows[f.Tuple]
		if len(pkts) != 1 {
			t.Fatalf("flood flow %v: %d packets", f.Tuple, len(pkts))
		}
		if flags, _ := pkts[0].TCPFlags(); flags != packet.TCPFlagSYN || len(pkts[0].Payload()) != 0 {
			t.Errorf("flood flow %v: flags %#x, %d payload bytes; want a bare SYN", f.Tuple, flags, len(pkts[0].Payload()))
		}
	}
}

// TestAdversarialEventStorm: a storm flow carries the alert signature
// in every data packet, not once per flow.
func TestAdversarialEventStorm(t *testing.T) {
	tr := mustAdversarial(t, AdversarialConfig{Config: Config{Seed: 5, Flows: 30}, EventStormFraction: 1})
	flows := perFlow(t, tr)
	for _, f := range tr.Flows {
		if f.Kind != KindAlert {
			t.Errorf("storm flow %v is %v", f.Tuple, f.Kind)
		}
		data := 0
		for _, p := range flows[f.Tuple] {
			if len(p.Payload()) == 0 {
				continue
			}
			data++
			if !bytes.HasPrefix(p.Payload(), []byte("ATTACK")) {
				t.Errorf("storm flow %v: data packet %d carries no signature", f.Tuple, data)
			}
		}
		if data != f.DataPackets {
			t.Errorf("storm flow %v: %d data packets, FlowInfo says %d", f.Tuple, data, f.DataPackets)
		}
	}
}

// TestAdversarialElephants: Pareto elephants start at the scale (20
// data packets) and are clamped at 2000.
func TestAdversarialElephants(t *testing.T) {
	tr := mustAdversarial(t, AdversarialConfig{Config: Config{Seed: 11, Flows: 300}, ElephantFraction: 1})
	big := 0
	for _, f := range tr.Flows {
		if f.DataPackets < 20 || f.DataPackets > 2000 {
			t.Errorf("elephant %v has %d data packets, want [20, 2000]", f.Tuple, f.DataPackets)
		}
		if f.DataPackets >= 100 {
			big++
		}
	}
	if big == 0 {
		t.Error("no elephant reached 100 data packets: the tail is missing")
	}
}

func TestAdversarialInvalidConfig(t *testing.T) {
	for _, cfg := range []AdversarialConfig{
		{Config: Config{Seed: 1, Flows: 1, PayloadMin: 100, PayloadMax: 50}},
		{Config: Config{Seed: 1, Flows: 1}, SYNFloodFlows: 1, SYNFloodAt: 1},
		{Config: Config{Seed: 1, Flows: 1}, SYNFloodFlows: 1, SYNFloodAt: -0.5},
	} {
		if _, err := GenerateAdversarial(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}
