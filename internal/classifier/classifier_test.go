package classifier

import (
	"testing"

	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

func tcpPkt(t *testing.T, flags uint8, payload string) *packet.Packet {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: 5000, DstPort: 80, Proto: packet.ProtoTCP,
		TCPFlags: flags, Payload: []byte(payload),
	})
}

func alwaysRule(flow.Handle) bool { return true }
func neverRule(flow.Handle) bool  { return false }

func TestTCPLifecycle(t *testing.T) {
	c := New(flow.NewTable())
	installed := false
	hasRule := func(flow.Handle) bool { return installed }

	// SYN: handshake.
	r, err := c.Classify(tcpPkt(t, packet.TCPFlagSYN, ""), hasRule)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != KindHandshake || !r.NewFlow {
		t.Errorf("SYN: %+v", r)
	}
	fid := r.FID

	// Bare ACK completing the handshake: still handshake kind.
	r, err = c.Classify(tcpPkt(t, packet.TCPFlagACK, ""), hasRule)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != KindHandshake || r.NewFlow || r.FID != fid {
		t.Errorf("handshake ACK: %+v", r)
	}

	// First data packet: initial.
	pkt := tcpPkt(t, packet.TCPFlagACK|packet.TCPFlagPSH, "GET /")
	r, err = c.Classify(pkt, hasRule)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != KindInitial {
		t.Errorf("first data: %+v, want initial", r)
	}
	if !pkt.Meta.Initial || !pkt.Meta.HasFID || pkt.Meta.FID != uint32(fid) {
		t.Errorf("meta = %+v", pkt.Meta)
	}

	// No rule installed yet: next data packet re-runs as initial.
	r, _ = c.Classify(tcpPkt(t, packet.TCPFlagACK, "again"), hasRule)
	if r.Kind != KindInitial {
		t.Errorf("pre-rule data: %+v, want initial (safe slow path)", r)
	}

	// Rule installed: subsequent.
	installed = true
	r, _ = c.Classify(tcpPkt(t, packet.TCPFlagACK, "more"), hasRule)
	if r.Kind != KindSubsequent {
		t.Errorf("post-rule data: %+v, want subsequent", r)
	}

	// FIN: final.
	finPkt := tcpPkt(t, packet.TCPFlagFIN|packet.TCPFlagACK, "")
	r, _ = c.Classify(finPkt, hasRule)
	if r.Kind != KindFinal || !finPkt.Meta.Final {
		t.Errorf("FIN: %+v meta=%+v", r, finPkt.Meta)
	}
	entry, ok := c.Flows().LookupFID(fid)
	if !ok || entry.State != flow.StateClosed {
		t.Errorf("flow state = %+v", entry)
	}
	if !c.Teardown(fid) {
		t.Error("Teardown failed")
	}
	if c.Flows().Len() != 0 {
		t.Error("flow survived teardown")
	}
}

func TestRSTIsFinal(t *testing.T) {
	c := New(flow.NewTable())
	r, err := c.Classify(tcpPkt(t, packet.TCPFlagRST, ""), neverRule)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != KindFinal {
		t.Errorf("RST: %+v, want final", r)
	}
}

func TestUDPFirstPacketIsInitial(t *testing.T) {
	c := New(flow.NewTable())
	udp := func(payload string) *packet.Packet {
		return packet.MustBuild(packet.Spec{
			SrcIP: packet.IP4(1, 1, 1, 1), DstIP: packet.IP4(2, 2, 2, 2),
			SrcPort: 9999, DstPort: 53, Proto: packet.ProtoUDP, Payload: []byte(payload),
		})
	}
	r, err := c.Classify(udp("query"), neverRule)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != KindInitial {
		t.Errorf("UDP first: %+v, want initial", r)
	}
	r, _ = c.Classify(udp("query2"), alwaysRule)
	if r.Kind != KindSubsequent {
		t.Errorf("UDP second with rule: %+v, want subsequent", r)
	}
}

func TestMidStreamJoinPromotesToEstablished(t *testing.T) {
	// Data packets for a connection we never saw a SYN for (e.g. the
	// trace starts mid-connection): treated as initial directly.
	c := New(flow.NewTable())
	r, err := c.Classify(tcpPkt(t, packet.TCPFlagACK, "mid-stream data"), neverRule)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != KindInitial {
		t.Errorf("mid-stream: %+v, want initial", r)
	}
}

func TestFIDStableAcrossModification(t *testing.T) {
	// Invariant 7: the FID assigned at ingress survives header
	// rewrites because it lives in descriptor metadata.
	c := New(flow.NewTable())
	pkt := tcpPkt(t, packet.TCPFlagACK, "data")
	r, err := c.Classify(pkt, neverRule)
	if err != nil {
		t.Fatal(err)
	}
	if err := pkt.Set(packet.FieldDstIP, []byte{99, 99, 99, 99}); err != nil {
		t.Fatal(err)
	}
	if err := pkt.Set(packet.FieldDstPort, packet.PutUint16(8080)); err != nil {
		t.Fatal(err)
	}
	if pkt.Meta.FID != uint32(r.FID) {
		t.Error("FID metadata changed after header rewrite")
	}
}

func TestDistinctFlowsGetDistinctFIDs(t *testing.T) {
	c := New(flow.NewTable())
	fids := make(map[flow.FID]bool)
	for i := 0; i < 50; i++ {
		p := packet.MustBuild(packet.Spec{
			SrcIP: packet.IP4(10, 0, byte(i), 1), DstIP: packet.IP4(10, 1, 0, 1),
			SrcPort: uint16(1000 + i), DstPort: 80, Proto: packet.ProtoTCP,
			TCPFlags: packet.TCPFlagACK, Payload: []byte("x"),
		})
		r, err := c.Classify(p, neverRule)
		if err != nil {
			t.Fatal(err)
		}
		if fids[r.FID] {
			t.Fatalf("FID %v reused across distinct flows", r.FID)
		}
		fids[r.FID] = true
	}
}

func TestClassifyUnparseable(t *testing.T) {
	c := New(flow.NewTable())
	if _, err := c.Classify(packet.New([]byte{1, 2, 3}), neverRule); err == nil {
		t.Error("Classify accepted garbage frame")
	}
}

func TestClassifyNilHasRule(t *testing.T) {
	// A nil hasRule (SpeedyBox disabled) must treat established
	// packets as initial, i.e. always slow-path.
	c := New(flow.NewTable())
	r, err := c.Classify(tcpPkt(t, packet.TCPFlagACK, "x"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != KindInitial {
		t.Errorf("nil hasRule: %+v", r)
	}
}

// TestClassifyStampsSeenEpoch: a classified packet stamps its flow with
// the current seen epoch, so a sweep measures the flow's idleness from
// its latest packet, not its first.
func TestClassifyStampsSeenEpoch(t *testing.T) {
	tbl := flow.NewTable()
	c := New(tbl)
	r, err := c.Classify(tcpPkt(t, packet.TCPFlagACK, "abc"), neverRule)
	if err != nil {
		t.Fatal(err)
	}
	if idle := tbl.Sweep(10, 5); len(idle) != 0 {
		t.Fatalf("a sweep reaped a flow whose epoch has just ended")
	}
	if _, err := c.Classify(tcpPkt(t, packet.TCPFlagACK, "defg"), neverRule); err != nil {
		t.Fatal(err)
	}
	// Unstamped, the flow's epoch would have ended at tick 10.
	if idle := tbl.Sweep(20, 5); len(idle) != 0 {
		t.Fatalf("the sweep at 20 reaped a flow with a packet after the sweep at 10")
	}
	if idle := tbl.Sweep(30, 5); len(idle) != 1 || idle[0].FID() != r.FID {
		t.Fatalf("the sweep at 30 reaped %d flows, want the one idle since tick 20", len(idle))
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindHandshake: "handshake", KindInitial: "initial",
		KindSubsequent: "subsequent", KindFinal: "final",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d) = %q, want %q", k, k.String(), want)
		}
	}
}
