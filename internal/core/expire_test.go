package core

import (
	"testing"

	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

func udpPkt(t *testing.T, sport uint16, payload string) *packet.Packet {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: sport, DstPort: 53, Proto: packet.ProtoUDP,
		Payload: []byte(payload),
	})
}

func TestExpireIdleRemovesStaleUDPFlows(t *testing.T) {
	mod := &fakeModifier{name: "nat", dip: [4]byte{9, 9, 9, 9}}
	eng, err := NewEngine([]NF{mod}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Flow A: two packets, then goes quiet.
	for i := 0; i < 2; i++ {
		if _, err := eng.ProcessPacket(udpPkt(t, 1111, "a")); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Global().Len() != 1 {
		t.Fatalf("rules = %d", eng.Global().Len())
	}
	// Flow B keeps the clock ticking: 20 packets.
	for i := 0; i < 20; i++ {
		if _, err := eng.ProcessPacket(udpPkt(t, 2222, "b")); err != nil {
			t.Fatal(err)
		}
	}
	// Expire anything idle for more than 10 packets: only flow A.
	if n := eng.ExpireIdle(10); n != 1 {
		t.Fatalf("expired %d flows, want 1", n)
	}
	if eng.Global().Len() != 1 {
		t.Errorf("rules after expiry = %d, want flow B's only", eng.Global().Len())
	}
	if n := eng.class.Flows().Counts().Records; n != 1 {
		t.Errorf("recordings after expiry = %d", n)
	}
	// Flow A's next packet is treated as initial again and works.
	res, err := eng.ProcessPacket(udpPkt(t, 1111, "back"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != classifier.KindInitial {
		t.Errorf("revived flow kind = %v, want initial", res.Kind)
	}
	if eng.Global().Len() != 2 {
		t.Errorf("rules after revival = %d", eng.Global().Len())
	}
}

func TestExpireIdleKeepsActiveFlows(t *testing.T) {
	mod := &fakeModifier{name: "nat", dip: [4]byte{9, 9, 9, 9}}
	eng, err := NewEngine([]NF{mod}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := eng.ProcessPacket(udpPkt(t, 1111, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if n := eng.ExpireIdle(10); n != 0 {
		t.Errorf("expired %d active flows", n)
	}
	// A zero window never expires anything either (now <= idleFor
	// guard).
	if n := eng.ExpireIdle(1000); n != 0 {
		t.Errorf("oversized window expired %d flows", n)
	}
}

func TestExpireIdleOnEmptyEngine(t *testing.T) {
	mod := &fakeModifier{name: "nat", dip: [4]byte{9, 9, 9, 9}}
	eng, err := NewEngine([]NF{mod}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.ExpireIdle(0); n != 0 {
		t.Errorf("expired %d on empty engine", n)
	}
}
