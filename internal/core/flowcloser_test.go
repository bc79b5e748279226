package core

import (
	"sync/atomic"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// closingNF keeps one word of per-flow state and counts the flows the
// engine told it have ended (FlowStates.Leave).
type closingNF struct {
	fakeModifier
	flows  FlowStates
	closed atomic.Uint64
}

func newClosingNF() *closingNF {
	c := &closingNF{fakeModifier: fakeModifier{name: "nat", dip: [4]byte{9, 9, 9, 9}}}
	c.flows.Words = 1
	c.flows.Leave = func(_ State, ended bool) {
		if ended {
			c.closed.Add(1)
		}
	}
	return c
}

func (c *closingNF) FlowStates() *FlowStates { return &c.flows }

func (c *closingNF) Process(ctx *Ctx, pkt *packet.Packet) (Verdict, error) {
	ctx.FlowState(&c.flows)[0].Add(1)
	return c.fakeModifier.Process(ctx, pkt)
}

var _ Stateful = (*closingNF)(nil)

func TestFlowCloserCalledOnFIN(t *testing.T) {
	nf := newClosingNF()
	eng, err := NewEngine([]NF{nf}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(flags uint8) *packet.Packet {
		return packet.MustBuild(packet.Spec{
			SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
			SrcPort: 7000, DstPort: 80, Proto: packet.ProtoTCP,
			TCPFlags: flags, Payload: []byte("x"),
		})
	}
	if _, err := eng.ProcessPacket(mk(packet.TCPFlagACK)); err != nil {
		t.Fatal(err)
	}
	if nf.closed.Load() != 0 {
		t.Fatal("Leave fired before teardown")
	}
	if _, err := eng.ProcessPacket(mk(packet.TCPFlagFIN | packet.TCPFlagACK)); err != nil {
		t.Fatal(err)
	}
	if nf.closed.Load() != 1 {
		t.Errorf("ended flows = %d, want 1 after FIN", nf.closed.Load())
	}
}

func TestFlowCloserCalledOnIdleExpiry(t *testing.T) {
	nf := newClosingNF()
	eng, err := NewEngine([]NF{nf}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ProcessPacket(udpPkt(t, 1111, "x")); err != nil {
		t.Fatal(err)
	}
	// Sweep, traffic, sweep: the first ends the flow's epoch.
	if n := eng.ExpireIdle(10); n != 0 {
		t.Fatalf("the first sweep expired %d", n)
	}
	for i := 0; i < 20; i++ {
		if _, err := eng.ProcessPacket(udpPkt(t, 2222, "keepalive")); err != nil {
			t.Fatal(err)
		}
	}
	if n := eng.ExpireIdle(10); n != 1 {
		t.Fatalf("expired %d", n)
	}
	if nf.closed.Load() != 1 {
		t.Errorf("ended flows = %d, want 1 after expiry", nf.closed.Load())
	}
}

func TestNonCloserNFsUnaffected(t *testing.T) {
	// NFs that keep no per-flow state still tear down cleanly.
	mod := &fakeModifier{name: "nat", dip: [4]byte{9, 9, 9, 9}}
	eng, err := NewEngine([]NF{mod}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ProcessPacket(udpPkt(t, 1, "x")); err != nil {
		t.Fatal(err)
	}
	eng.TeardownFlow(func() flow.FID {
		p := udpPkt(t, 1, "y")
		res, err := eng.ProcessPacket(p)
		if err != nil {
			t.Fatal(err)
		}
		return res.FID
	}())
	if eng.Global().Len() != 0 {
		t.Error("teardown incomplete")
	}
}
