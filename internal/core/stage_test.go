package core

import (
	"testing"

	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// runVectors replays explicit vectors through one Batch, copying the
// results out.
func runVectors(t *testing.T, eng *Engine, vecs [][]*packet.Packet) []PacketResult {
	t.Helper()
	b := NewBatch(DefaultBatchSize)
	var out []PacketResult
	for v, vec := range vecs {
		rs, err := eng.ProcessBatch(vec, b)
		if err != nil {
			t.Fatalf("vector %d: %v", v, err)
		}
		for _, r := range rs {
			out = append(out, *r.clone())
		}
	}
	return out
}

// matchesOneAtATime runs the vectors, as built by mk, on one engine and
// their packets one ProcessPacket at a time on another, and holds the two
// to the same per-packet decisions, the same counters and clean records.
func matchesOneAtATime(t *testing.T, newEngine func() *Engine, mk func() [][]*packet.Packet) (*Engine, []PacketResult) {
	t.Helper()
	scalarEng, batchEng := newEngine(), newEngine()
	var flat []*packet.Packet
	for _, vec := range mk() {
		flat = append(flat, vec...)
	}
	scalar := runScalar(t, scalarEng, flat)
	batched := runVectors(t, batchEng, mk())
	compareRuns(t, scalar, batched)
	if s, b := scalarEng.Stats(), batchEng.Stats(); s != b {
		t.Errorf("stats diverge\none at a time: %+v\nvectors:      %+v", s, b)
	}
	for _, eng := range []*Engine{scalarEng, batchEng} {
		if err := eng.CheckRecords(); err != nil {
			t.Error(err)
		}
	}
	return batchEng, batched
}

// TestStagedVectorSpansFlowLifecycle: one vector carries a TCP flow's
// data packets, its FIN and a re-SYN of the same tuple with the new
// connection's handshake and data, beside UDP flows. Every packet of the
// tuple after the FIN was staged against the entry the FIN unlinks, so
// each must find the new connection's entry instead.
func TestStagedVectorSpansFlowLifecycle(t *testing.T) {
	mk := func() [][]*packet.Packet {
		const port = 7601
		warm := []*packet.Packet{
			tcpPkt(t, port, packet.TCPFlagSYN, 0, ""),
			tcpPkt(t, port, packet.TCPFlagACK, 1, ""),
			tcpPkt(t, port, packet.TCPFlagACK, 2, "records"),
		}
		vec := []*packet.Packet{
			tcpPkt(t, port, packet.TCPFlagACK, 3, "fast"),
			udpPkt(t, 7801, "udp"),
			tcpPkt(t, port, packet.TCPFlagACK, 4, "fast"),
			tcpPkt(t, port, packet.TCPFlagFIN|packet.TCPFlagACK, 5, ""),
			udpPkt(t, 7801, "udp"),
			tcpPkt(t, port, packet.TCPFlagSYN, 0, ""),
			tcpPkt(t, port, packet.TCPFlagACK, 1, ""),
			tcpPkt(t, port, packet.TCPFlagACK, 2, "re-records"),
			udpPkt(t, 7802, "udp"),
			tcpPkt(t, port, packet.TCPFlagACK, 3, "fast again"),
			tcpPkt(t, port, packet.TCPFlagACK, 4, "fast again"),
		}
		return [][]*packet.Packet{warm, vec}
	}
	eng, res := matchesOneAtATime(t, func() *Engine { return newBatchTestEngine(t, DefaultOptions()) }, mk)
	// Each connection and each UDP flow records once.
	if st := eng.Stats(); st.Consolidations != 4 {
		t.Errorf("%d consolidations, want each connection and each UDP flow once", st.Consolidations)
	}
	tail := res[len(res)-2:]
	if tail[0].Path != PathFast || tail[1].Path != PathFast || tail[0].FID != tail[1].FID {
		t.Errorf("the new connection's data rode %v/%v", tail[0].Path, tail[1].Path)
	}
}

// TestStagedVectorSurvivesEviction: established flows' packets repeat in
// one vector while the eviction-pressure fault strikes between the stage
// pass and the packets' turns, so later packets of an evicted flow carry
// a staged handle whose rule is gone. They must fall back and re-record
// exactly as one packet at a time.
func TestStagedVectorSurvivesEviction(t *testing.T) {
	newEngine := func() *Engine {
		o := DefaultOptions()
		o.Faults = fault.New(fault.Config{Seed: 11, Rates: map[fault.Kind]float64{fault.KindEvictPressure: 0.3}})
		eng, err := NewEngine([]NF{
			&fakeModifier{name: "nat", dip: [4]byte{99, 0, 0, 1}},
			&fakeCounter{name: "monitor"},
		}, o)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	mk := func() [][]*packet.Packet {
		var vecs [][]*packet.Packet
		for v := 0; v < 3; v++ {
			var vec []*packet.Packet
			for i := 0; i < 30; i++ {
				vec = append(vec, udpPkt(t, 7901+uint16(i%6), "pressured"))
			}
			vecs = append(vecs, vec)
		}
		return vecs
	}
	eng, _ := matchesOneAtATime(t, newEngine, mk)
	if st := eng.Stats(); st.FastPath == 0 || st.Consolidations <= 6 {
		t.Errorf("%+v: want fast-path packets and re-recordings after evictions", st)
	}
}

// tearer tears a flow down from inside a traversal when it sees a packet
// carrying its trigger payload — a removal that, unlike a FIN, leaves the
// entry's state established, as idle expiry, migration or an operator's
// teardown do.
type tearer struct {
	forwarder
	eng    *Engine
	victim packet.FiveTuple
}

func (f *tearer) Process(ctx *Ctx, pkt *packet.Packet) (Verdict, error) {
	if string(pkt.Payload()) == "tear" {
		if h, ok := f.eng.class.Flows().Acquire(f.victim); ok {
			f.eng.TeardownFlow(h.FID())
		}
	}
	return f.forwarder.Process(ctx, pkt)
}

// TestStagedHandleOfTornDownFlow: a flow's packets are staged, then an
// earlier packet's traversal tears the flow down; the entry is unlinked
// but still established. Its later packets must not be served the
// unlinked entry: they start the flow over, as one packet at a time.
func TestStagedHandleOfTornDownFlow(t *testing.T) {
	victim := udpPkt(t, 7501, "")
	ft, _ := victim.FiveTuple()
	newEngine := func() *Engine {
		f := &tearer{forwarder: forwarder{"tearer"}, victim: ft}
		eng, err := NewEngine([]NF{f}, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		f.eng = eng
		return eng
	}
	mk := func() [][]*packet.Packet {
		warm := []*packet.Packet{udpPkt(t, 7501, "warm"), udpPkt(t, 7501, "warm")}
		vec := []*packet.Packet{
			udpPkt(t, 7501, "fast"),
			udpPkt(t, 7502, "tear"), // a new flow: its first packet traverses the chain
			udpPkt(t, 7501, "after"),
			udpPkt(t, 7501, "after"),
		}
		return [][]*packet.Packet{warm, vec}
	}
	_, res := matchesOneAtATime(t, newEngine, mk)
	if r := res[len(res)-2]; r.Path == PathFast {
		t.Error("the torn-down flow's next packet rode the fast path")
	}
}
