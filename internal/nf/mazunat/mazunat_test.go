package mazunat

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

func cfg() Config {
	return Config{
		Name:           "nat",
		InternalPrefix: packet.IP4(10, 0, 0, 0),
		InternalBits:   8,
		ExternalIP:     packet.IP4(198, 51, 100, 1),
		PortBase:       30000,
	}
}

func outbound(t *testing.T, sport uint16) *packet.Packet {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 5), DstIP: packet.IP4(93, 184, 216, 34),
		SrcPort: sport, DstPort: 443, Proto: packet.ProtoTCP, Payload: []byte("out"),
	})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{InternalBits: 8}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := New(Config{Name: "nat", InternalBits: 0}); err == nil {
		t.Error("zero prefix bits accepted")
	}
	if _, err := New(Config{Name: "nat", InternalBits: 40}); err == nil {
		t.Error("oversized prefix bits accepted")
	}
}

func TestOutboundSNAT(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	n, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.NewCtx("nat", core.CtxConfig{FID: 1, Events: tbl, Recording: true})
	p := outbound(t, 1234)
	v, err := n.Process(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if v != core.VerdictForward {
		t.Fatalf("verdict = %v", v)
	}
	if p.SrcIP() != cfg().ExternalIP {
		t.Errorf("SIP = %v, want external", p.SrcIP())
	}
	if p.SrcPort() < 30000 {
		t.Errorf("SPort = %d, want allocated >= 30000", p.SrcPort())
	}
	if !p.VerifyChecksums() {
		t.Error("checksums stale")
	}
	rule, _ := ctx.Recorded()
	if len(rule.Actions) != 2 {
		t.Errorf("recorded %d actions, want modify(SIP)+modify(SPort)", len(rule.Actions))
	}
	if n.Mappings() != 1 {
		t.Errorf("Mappings = %d", n.Mappings())
	}
}

func TestMappingStablePerFlow(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	n, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	p1 := outbound(t, 1234)
	if _, err := n.Process(core.NewCtx("nat", core.CtxConfig{FID: 1, Events: tbl}), p1); err != nil {
		t.Fatal(err)
	}
	port1 := p1.SrcPort()
	p2 := outbound(t, 1234)
	if _, err := n.Process(core.NewCtx("nat", core.CtxConfig{FID: 1, Events: tbl}), p2); err != nil {
		t.Fatal(err)
	}
	if p2.SrcPort() != port1 {
		t.Errorf("same flow translated to different ports: %d vs %d", port1, p2.SrcPort())
	}
	// A different flow gets a different port.
	p3 := outbound(t, 5678)
	if _, err := n.Process(core.NewCtx("nat", core.CtxConfig{FID: 2, Events: tbl}), p3); err != nil {
		t.Fatal(err)
	}
	if p3.SrcPort() == port1 {
		t.Error("distinct flows share an external port")
	}
}

func TestInboundDNAT(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	n, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	out := outbound(t, 1234)
	if _, err := n.Process(core.NewCtx("nat", core.CtxConfig{FID: 1, Events: tbl}), out); err != nil {
		t.Fatal(err)
	}
	extPort := out.SrcPort()

	in := packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(93, 184, 216, 34), DstIP: cfg().ExternalIP,
		SrcPort: 443, DstPort: extPort, Proto: packet.ProtoTCP, Payload: []byte("reply"),
	})
	v, err := n.Process(core.NewCtx("nat", core.CtxConfig{FID: 2, Events: tbl}), in)
	if err != nil {
		t.Fatal(err)
	}
	if v != core.VerdictForward {
		t.Fatalf("inbound verdict = %v", v)
	}
	if in.DstIP() != packet.IP4(10, 0, 0, 5) || in.DstPort() != 1234 {
		t.Errorf("reverse translation = %v:%d", in.DstIP(), in.DstPort())
	}
	if !in.VerifyChecksums() {
		t.Error("checksums stale on inbound")
	}
}

func TestUnsolicitedInboundDropped(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	n, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	in := packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(8, 8, 8, 8), DstIP: cfg().ExternalIP,
		SrcPort: 53, DstPort: 31337, Proto: packet.ProtoUDP,
	})
	ctx := core.NewCtx("nat", core.CtxConfig{FID: 1, Events: tbl, Recording: true})
	v, err := n.Process(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if v != core.VerdictDrop {
		t.Errorf("unsolicited inbound verdict = %v", v)
	}
	rule, _ := ctx.Recorded()
	if rule.Actions[0].Kind != mat.ActionDrop {
		t.Errorf("recorded %v, want drop", rule.Actions[0])
	}
}

func TestTransitTrafficForwards(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	n, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	p := packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(4, 4, 4, 4), DstIP: packet.IP4(5, 5, 5, 5),
		SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP,
	})
	before := append([]byte(nil), p.Data()...)
	v, err := n.Process(core.NewCtx("nat", core.CtxConfig{FID: 1, Events: tbl}), p)
	if err != nil {
		t.Fatal(err)
	}
	if v != core.VerdictForward {
		t.Errorf("transit verdict = %v", v)
	}
	if string(before) != string(p.Data()) {
		t.Error("transit packet modified")
	}
}

func TestRelease(t *testing.T) {
	flows := flow.NewTable()
	tbl := event.NewTable(flows)
	n, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	p := outbound(t, 1234)
	ft, _ := p.FiveTuple()
	if _, err := n.Process(core.NewCtx("nat", core.CtxConfig{FID: 1, Events: tbl}), p); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.MappingFor(ft); !ok {
		t.Fatal("mapping missing")
	}
	ed := flows.Edit(1, false) // the flow migrates away: its port leaves the pool too
	tbl.DropState(ed, false)
	ed.Done()
	if _, ok := n.MappingFor(ft); ok {
		t.Error("mapping survived the flow's leaving")
	}
	if n.Mappings() != 0 {
		t.Error("mapping count nonzero after the flow left")
	}
}

func TestPortExhaustion(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	c := cfg()
	c.PortBase = 65534 // only ports 65534, 65535 available
	n, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := n.Process(core.NewCtx("nat", core.CtxConfig{FID: flow.FID(i), Events: tbl}), outbound(t, uint16(1000+i))); err != nil {
			t.Fatalf("flow %d: %v", i, err)
		}
	}
	_, err = n.Process(core.NewCtx("nat", core.CtxConfig{FID: 2, Events: tbl}), outbound(t, 3000))
	if !errors.Is(err, ErrPortsExhausted) {
		t.Errorf("err = %v, want ErrPortsExhausted", err)
	}
}

func TestFlowClosedReleasesMapping(t *testing.T) {
	flows := flow.NewTable()
	tbl := event.NewTable(flows)
	n, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	p := outbound(t, 1234)
	ctx := core.NewCtx("nat", core.CtxConfig{FID: 42, Events: tbl})
	if _, err := n.Process(ctx, p); err != nil {
		t.Fatal(err)
	}
	if n.Mappings() != 1 {
		t.Fatal("mapping missing")
	}
	ed := flows.Edit(42, false)
	tbl.DropState(ed, true)
	ed.Done()
	if n.Mappings() != 0 {
		t.Error("mapping survived the flow's end")
	}
	// Idempotent, and a no-op on unknown flows.
	ed = flows.Edit(42, false)
	tbl.DropState(ed, true)
	ed.Done()
	ed = flows.Edit(999, false)
	tbl.DropState(ed, true)
	ed.Done()
}

// BenchmarkProcess measures a NAT slow-path packet — an established
// flow's mapping lookup, two field rewrites and their checksum patches —
// at a small, the repository benchmark's largest and an MTU-sized
// payload. The time is flat: the rewrites patch the checksums for the
// six bytes they change and read nothing of the segment. Each iteration
// puts the frame's headers back; the payload never changes.
func BenchmarkProcess(b *testing.B) {
	tbl := event.NewTable(flow.NewTable())
	for _, n := range []int{16, 200, 1400} {
		b.Run(fmt.Sprintf("payload=%d", n), func(b *testing.B) {
			nat, err := New(cfg())
			if err != nil {
				b.Fatal(err)
			}
			p := packet.MustBuild(packet.Spec{
				SrcIP: packet.IP4(10, 0, 0, 5), DstIP: packet.IP4(93, 184, 216, 34),
				SrcPort: 1234, DstPort: 443, Proto: packet.ProtoUDP, Payload: make([]byte, n),
			})
			h, _ := p.Headers()
			headers := append([]byte(nil), p.Data()[:h.PayloadOff]...)
			ctx := core.NewCtx("nat", core.CtxConfig{FID: 1, Events: tbl})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(p.Data(), headers)
				if _, err := nat.Process(ctx, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPoolEqualsLiveMappings drives TCP connections through an engine
// whose chain is the NAT — set-ups, teardowns by FIN and tuples coming
// back — and after every round holds the port pool to the flows'
// state: a port is occupied exactly when a live flow holds it, and the
// translation at the port is that flow's.
func TestPoolEqualsLiveMappings(t *testing.T) {
	n, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine([]core.NF{n}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pkt := func(sport uint16, flags uint8) *packet.Packet {
		return packet.MustBuild(packet.Spec{
			SrcIP: packet.IP4(10, 0, byte(sport>>8), byte(sport)), DstIP: packet.IP4(93, 184, 216, 34),
			SrcPort: sport, DstPort: 443, Proto: packet.ProtoTCP, TCPFlags: flags, Payload: []byte("x"),
		})
	}
	check := func(round int) {
		t.Helper()
		held := map[uint16]Mapping{}
		n.flows.Each(func(fid flow.FID, st core.State) {
			if _, m, ok := mappingOf(st); ok {
				if _, dup := held[m.OutsidePort]; dup {
					t.Fatalf("round %d: port %d held by two flows", round, m.OutsidePort)
				}
				held[m.OutsidePort] = m
			}
		})
		if n.Mappings() != len(held) {
			t.Fatalf("round %d: pool counts %d ports, the flows hold %d", round, n.Mappings(), len(held))
		}
		for port := 0; port < 65536; port++ {
			got, ok := n.pool.lookup(uint16(port))
			want, live := held[uint16(port)]
			if ok != live || got != want {
				t.Fatalf("round %d: port %d: pool (%+v, %v), flows (%+v, %v)", round, port, got, ok, want, live)
			}
		}
	}
	const conns = 600
	open := map[uint16]bool{}
	for round := 0; round < 8; round++ {
		var vec []*packet.Packet
		for i := uint16(0); i < conns; i++ {
			sport := 1000 + i
			switch {
			case (int(i)+round)%3 == 0 && open[sport]:
				vec = append(vec, pkt(sport, packet.TCPFlagFIN|packet.TCPFlagACK))
				delete(open, sport)
			case !open[sport] && (int(i)*7+round)%5 != 0:
				vec = append(vec, pkt(sport, packet.TCPFlagSYN), pkt(sport, packet.TCPFlagACK),
					pkt(sport, packet.TCPFlagACK))
				open[sport] = true
			}
		}
		b := core.NewBatch(32)
		for off := 0; off < len(vec); off += 32 {
			if _, err := eng.ProcessBatch(vec[off:min(off+32, len(vec))], b); err != nil {
				t.Fatal(err)
			}
		}
		check(round)
		if n.Mappings() != len(open) {
			t.Fatalf("round %d: %d mappings for %d open connections", round, n.Mappings(), len(open))
		}
	}
}

// TestSnapshotCarriesPortCursor: a restored NAT allocates the port the
// snapshotted one would have allocated next; a cursor outside
// [PortBase, 65535] restarts at PortBase, and garbage is refused.
func TestSnapshotCarriesPortCursor(t *testing.T) {
	tbl := event.NewTable(flow.NewTable())
	translate := func(n *NAT, fid flow.FID, sport uint16) uint16 {
		t.Helper()
		p := outbound(t, sport)
		if _, err := n.Process(core.NewCtx("nat", core.CtxConfig{FID: fid, Events: tbl}), p); err != nil {
			t.Fatal(err)
		}
		return p.SrcPort()
	}
	orig, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		translate(orig, flow.FID(i), uint16(1000+i))
	}
	blob, err := orig.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	want := translate(orig, 5, 2000)

	restored, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if got := translate(restored, 5, 2000); got != want || got == cfg().PortBase {
		t.Errorf("restored NAT allocated %d, the original %d", got, want)
	}

	var low bytes.Buffer
	if err := gob.NewEncoder(&low).Encode(uint32(cfg().PortBase - 1)); err != nil {
		t.Fatal(err)
	}
	reset, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := reset.RestoreState(low.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got := translate(reset, 6, 3000); got != cfg().PortBase {
		t.Errorf("cursor below PortBase allocated %d, want %d", got, cfg().PortBase)
	}
	if err := reset.RestoreState([]byte("not gob")); err == nil {
		t.Error("garbage snapshot restored")
	}
}
