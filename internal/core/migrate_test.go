package core

import (
	"testing"

	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// perFlowNAT rewrites DstIP to an address made from the flow's source
// port, so a packet that took another flow's rule shows it.
type perFlowNAT struct{}

func natOf(sport uint16) [4]byte { return [4]byte{172, 16, byte(sport >> 8), byte(sport)} }

func (perFlowNAT) Name() string { return "nat" }

func (perFlowNAT) Process(ctx *Ctx, pkt *packet.Packet) (Verdict, error) {
	ctx.Charge(ctx.Model.Parse + ctx.Model.Classify)
	dip := natOf(pkt.SrcPort())
	return VerdictForward, ctx.AddHeaderAction(pkt, mat.Modify(packet.FieldDstIP, dip[:]))
}

// TestAdoptOntoTakenFID: FIDs are allocated per instance, so a migrant
// can arrive under a FID a resident flow of the new owner holds.
// Adopting it evicts the resident's entry — and must release what that
// entry held: the migrant's packets are its own flow's, recorded and
// served under its own rule, never the resident's, whose next packet
// starts a new flow under another FID.
func TestAdoptOntoTakenFID(t *testing.T) {
	eng, err := NewEngine([]NF{perFlowNAT{}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const resident = 7001
	var fid flow.FID
	for i := 0; i < 2; i++ {
		res, err := eng.ProcessPacket(udpPkt(t, resident, "resident"))
		if err != nil {
			t.Fatal(err)
		}
		fid = res.FID
	}
	if _, ok := eng.Global().LookupLive(fid); !ok {
		t.Fatal("the resident flow has no rule")
	}
	// A migrant whose tuple the new owner looks for in the FID's shard.
	migrant := uint16(resident + 1)
	tupleOf := func(sport uint16) packet.FiveTuple {
		ft, err := udpPkt(t, sport, "").FiveTuple()
		if err != nil {
			t.Fatal(err)
		}
		return ft
	}
	for flow.HashTuple(tupleOf(migrant))%flow.ShardCount != fid%flow.ShardCount {
		migrant++
	}
	eng.AdoptFlow(wal.MigrationRecord{Flow: wal.FlowEntry{FID: fid, Tuple: tupleOf(migrant), State: uint8(flow.StateEstablished)}})
	if err := eng.CheckRecords(); err != nil {
		t.Error(err)
	}
	if c := eng.class.Flows().Counts(); c.Flows != 1 || c.Rules != 0 || c.Records != 0 {
		t.Errorf("after the adoption: %+v, want the migrant's entry and nothing the resident's held", c)
	}

	for i, want := range []struct {
		kind classifier.Kind
		path Path
	}{{classifier.KindInitial, PathSlow}, {classifier.KindSubsequent, PathFast}} {
		pkt := udpPkt(t, migrant, "migrant")
		res, err := eng.ProcessPacket(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if res.FID != fid || res.Kind != want.kind || res.Path != want.path || pkt.DstIP() != natOf(migrant) {
			t.Errorf("migrant packet %d: fid %v (adopted under %v) %v on the %v path, rewritten to %v; want %v on the %v path and its own %v",
				i, res.FID, fid, res.Kind, res.Path, pkt.DstIP(), want.kind, want.path, natOf(migrant))
		}
	}
	pkt := udpPkt(t, resident, "evicted")
	res, err := eng.ProcessPacket(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if res.FID == fid || res.Kind != classifier.KindInitial || pkt.DstIP() != natOf(resident) {
		t.Errorf("evicted resident: fid %v (the migrant holds %v) %v, rewritten to %v; want a new flow's initial packet and %v",
			res.FID, fid, res.Kind, pkt.DstIP(), natOf(resident))
	}
	if err := eng.CheckRecords(); err != nil {
		t.Error(err)
	}
}
