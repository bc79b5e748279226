package core

import (
	"encoding/binary"
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// snapNF forwards packets, counting them in state that round-trips
// through the Snapshotter interface.
type snapNF struct {
	name  string
	count atomic.Uint64
}

func (s *snapNF) Name() string { return s.name }

func (s *snapNF) Process(ctx *Ctx, pkt *packet.Packet) (Verdict, error) {
	ctx.Charge(ctx.Model.Parse + ctx.Model.Classify)
	s.count.Add(1)
	if err := ctx.AddHeaderAction(pkt, mat.Forward()); err != nil {
		return 0, err
	}
	return VerdictForward, nil
}

func (s *snapNF) SnapshotState() ([]byte, error) {
	return binary.LittleEndian.AppendUint64(nil, s.count.Load()), nil
}

func (s *snapNF) RestoreState(data []byte) error {
	if len(data) != 8 {
		return errors.New("snapNF: bad blob")
	}
	s.count.Store(binary.LittleEndian.Uint64(data))
	return nil
}

func persistPkt(t *testing.T, port uint16, seq int) *packet.Packet {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: port, DstPort: 80, Proto: packet.ProtoTCP,
		TCPFlags: packet.TCPFlagACK, Seq: uint32(seq),
		Payload: []byte("persist payload"),
	})
}

// walEngine builds an engine over chain with a per-record-synced WAL.
func walEngine(t *testing.T, chain []NF) *Engine {
	t.Helper()
	eng, err := NewEngine(chain, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng.AttachWAL(wal.NewWriter(wal.Options{GroupCommit: 1}))
	return eng
}

func TestRestoreRequiresCheckpoint(t *testing.T) {
	eng := walEngine(t, []NF{&snapNF{name: "ctr"}})
	if err := eng.Restore(nil, nil); !errors.Is(err, ErrNilCheckpoint) {
		t.Errorf("Restore(nil) = %v, want ErrNilCheckpoint", err)
	}
}

// TestCheckpointRestoreRoundTrip drives a flow to consolidation,
// checkpoints through the full encode/decode cycle, restores a fresh
// engine and verifies the rule serves the fast path immediately with
// identical output — plus the Snapshotter blob coming back.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	mod := &fakeModifier{name: "nat", dip: [4]byte{99, 0, 0, 7}}
	ctr := &snapNF{name: "ctr"}
	eng := walEngine(t, []NF{mod, ctr})

	for i := 1; i <= 3; i++ {
		if _, err := eng.ProcessPacket(persistPkt(t, 6000, i)); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Global().Len() != 1 {
		t.Fatal("no rule installed")
	}
	cp, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Rules) != 1 || len(cp.Flows) != 1 {
		t.Fatalf("checkpoint holds %d rules / %d flows, want 1/1", len(cp.Rules), len(cp.Flows))
	}

	decoded, err := wal.DecodeCheckpoint(cp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	mod2 := &fakeModifier{name: "nat", dip: [4]byte{99, 0, 0, 7}}
	ctr2 := &snapNF{name: "ctr"}
	fresh := walEngine(t, []NF{mod2, ctr2})
	if err := fresh.Restore(decoded, eng.WAL().Bytes()); err != nil {
		t.Fatal(err)
	}

	if fresh.Global().Len() != 1 {
		t.Fatalf("restored GMAT holds %d rules, want 1", fresh.Global().Len())
	}
	if got, want := ctr2.count.Load(), ctr.count.Load(); got != want {
		t.Errorf("snapshotter state: restored count %d, want %d", got, want)
	}

	// The next packet of the restored flow must hit the fast path with
	// the consolidated header action applied.
	p := persistPkt(t, 6000, 4)
	r, err := fresh.ProcessPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != classifier.KindSubsequent || r.Path != PathFast {
		t.Errorf("post-restore packet: kind=%v path=%v, want subsequent/fast", r.Kind, r.Path)
	}
	if p.DstIP() != [4]byte{99, 0, 0, 7} {
		t.Errorf("post-restore output DIP = %v", p.DstIP())
	}
	if !p.VerifyChecksums() {
		t.Error("post-restore output has stale checksums")
	}
}

// TestEpochAdvanceAcrossRestore: a rule checkpointed under epoch N must
// not be served after replay of a journaled epoch advance — and the
// restored engine must consolidate new rules under the final epoch
// (the chain-state republication), not the stale construction epoch.
func TestEpochAdvanceAcrossRestore(t *testing.T) {
	mk := func(dipB byte) []NF {
		return []NF{
			&fakeModifier{name: "a", dip: [4]byte{50, 0, 0, 1}},
			&fakeModifier{name: "b", dip: [4]byte{60, 0, 0, dipB}},
		}
	}
	eng := walEngine(t, mk(1))
	for i := 1; i <= 2; i++ {
		if _, err := eng.ProcessPacket(persistPkt(t, 6000, i)); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Rules) != 1 {
		t.Fatalf("checkpoint holds %d rules, want 1", len(cp.Rules))
	}

	// Live reconfiguration after the checkpoint: the WAL suffix carries
	// the epoch advance the crash must not lose.
	repl := &fakeModifier{name: "b2", dip: [4]byte{60, 0, 0, 2}}
	if err := eng.Reconfigure(ChainPlan{Op: OpReplace, Name: "b", NF: repl}); err != nil {
		t.Fatal(err)
	}

	fresh, err := NewEngine([]NF{
		&fakeModifier{name: "a", dip: [4]byte{50, 0, 0, 1}},
		&fakeModifier{name: "b2", dip: [4]byte{60, 0, 0, 2}},
	}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fresh.AttachWAL(wal.NewWriter(wal.Options{GroupCommit: 1}))
	if err := fresh.Restore(cp, eng.WAL().Bytes()); err != nil {
		t.Fatal(err)
	}

	if got, want := fresh.Epoch(), eng.Epoch(); got != want {
		t.Errorf("restored epoch %d, want %d", got, want)
	}
	if n := fresh.Global().Len(); n != 0 {
		t.Fatalf("restored GMAT serves %d epoch-%d rules past the advance", n, cp.Epoch)
	}

	// The restored flow re-records through the new chain and the rule
	// must be consolidated under the final epoch (live immediately).
	p1 := persistPkt(t, 6000, 3)
	r1, err := fresh.ProcessPacket(p1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Kind != classifier.KindInitial || r1.Path != PathSlow {
		t.Errorf("re-record packet: kind=%v path=%v, want initial/slow", r1.Kind, r1.Path)
	}
	p2 := persistPkt(t, 6000, 4)
	r2, err := fresh.ProcessPacket(p2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Path != PathFast {
		t.Error("rule consolidated after restore is not served (stale chain-state epoch?)")
	}
	if p2.DstIP() != [4]byte{60, 0, 0, 2} {
		t.Errorf("post-restore fast path DIP = %v, want the replacement NF's", p2.DstIP())
	}
}

// TestLadderResetAcrossRestore: degradation backoff tracks faults of
// the dead process, so it deliberately does not survive a restore —
// restored flows may retry recording immediately.
func TestLadderResetAcrossRestore(t *testing.T) {
	mod := &fakeModifier{name: "nat", dip: [4]byte{99, 0, 0, 1}}
	eng := walEngine(t, []NF{mod})
	r1, err := eng.ProcessPacket(persistPkt(t, 6000, 1))
	if err != nil {
		t.Fatal(err)
	}
	fid := r1.FID
	for i := 0; i < 4; i++ {
		ed := eng.class.Flows().Edit(fid, false)
		eng.degrade(ed, "test", true)
		ed.Done()
	}
	if !parked(eng, fid) {
		t.Fatal("flow not parked on the ladder")
	}
	cp, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	fresh := walEngine(t, []NF{&fakeModifier{name: "nat", dip: [4]byte{99, 0, 0, 1}}})
	if err := fresh.Restore(cp, eng.WAL().Bytes()); err != nil {
		t.Fatal(err)
	}
	if fresh.DegradedFlows() != 0 {
		t.Errorf("ladder survived the restore: %d degraded flows", fresh.DegradedFlows())
	}
	if parked(fresh, fid) {
		t.Error("restored flow still serving the dead process's backoff")
	}
	// The logical clock, by contrast, resumes: it never goes back.
	if got := fresh.clock.Load(); got < cp.Clock {
		t.Errorf("restored clock %d behind checkpoint clock %d", got, cp.Clock)
	}
}

// parked reports whether the ladder holds the flow off recording.
func parked(e *Engine, fid flow.FID) bool {
	h, ok := e.class.Flows().AcquireFID(fid)
	return ok && e.clock.Load() < event.RetryAt(h)
}

// refChain is a chain whose rules carry references: the counter's state
// function at position 1 and the event NF's guard at position 2.
func refChain() []NF {
	return []NF{&fakeModifier{name: "nat", dip: [4]byte{99, 0, 0, 1}}, &fakeCounter{name: "mon"}, &fakeEventNF{name: "lb"}}
}

// hostileImages tampers a rule image of refChain — the NAT's modify, the
// counter's state function, the event NF's forward and guard — into one
// the chain cannot take back: another chain's shape, a state function
// past the chain, of an NF that declares none or an undeclared index, a
// guard past the chain, of an NF declaring no event or an undeclared
// index, an action of no kind, a decap its pending encap does not match
// and a modify of the wrong width.
var hostileImages = []struct {
	name   string
	tamper func(im *wal.RuleImage)
}{
	{"image of a longer chain", func(im *wal.RuleImage) {
		im.NFs, im.Spans = append(im.NFs, "extra"), append(im.Spans, mat.LocalRule{})
	}},
	{"contributor the chain lacks", func(im *wal.RuleImage) { im.NFs[1] = "elsewhere" }},
	{"function past the chain", func(im *wal.RuleImage) {
		im.NFs, im.Spans = append(im.NFs, "mon"), append(im.Spans, im.Spans[1])
	}},
	{"function of an NF declaring none", func(im *wal.RuleImage) { im.Spans[0].Funcs, im.Spans[1] = []uint8{0}, mat.LocalRule{} }},
	{"undeclared function", func(im *wal.RuleImage) { im.Spans[1].Funcs = []uint8{3} }},
	{"guard past the chain", func(im *wal.RuleImage) { im.Guards[0].At = 9 }},
	{"guard of an NF declaring no event", func(im *wal.RuleImage) { im.Guards[0].At = 1 }},
	{"undeclared event", func(im *wal.RuleImage) { im.Guards[0].Index = 1 }},
	{"action of no kind", func(im *wal.RuleImage) { im.Spans[0].Actions = []mat.HeaderAction{{Kind: 99}} }},
	{"decap of no pending encap", func(im *wal.RuleImage) {
		im.Spans[0].Actions = []mat.HeaderAction{mat.Encap(packet.ExtraHeader{Type: packet.HeaderAH, SPI: 1})}
		im.Spans[2].Actions = []mat.HeaderAction{mat.Decap(packet.HeaderVLAN)}
	}},
	{"modify of the wrong width", func(im *wal.RuleImage) {
		im.Spans[0].Actions = []mat.HeaderAction{{Kind: mat.ActionModify, Field: packet.FieldDstIP, Value: []byte{99, 0}}}
	}},
}

// tamperOwn applies a hostile tamper to an image of its own: one taken
// from a live rule shares the rule's spans and its chain's names.
func tamperOwn(im *wal.RuleImage, tamper func(*wal.RuleImage)) {
	im.NFs, im.Spans, im.Guards = slices.Clone(im.NFs), slices.Clone(im.Spans), slices.Clone(im.Guards)
	tamper(im)
}

// wantReRecords checks that the flow on port holds no rule on eng and
// that its next packet re-records, the one after that taking the fast
// path, with the engine's records clean throughout.
func wantReRecords(t *testing.T, eng *Engine, port uint16, when string) {
	t.Helper()
	if n := eng.Global().Len(); n != 0 {
		t.Errorf("%s: %d rules installed, want the image dropped", when, n)
	}
	if err := eng.CheckRecords(); err != nil {
		t.Errorf("%s: %v", when, err)
	}
	if r, err := eng.ProcessPacket(udpPkt(t, port, "re-record")); err != nil || r.Kind != classifier.KindInitial || r.Path != PathSlow {
		t.Fatalf("%s: next packet %+v (err %v), want an initial slow-path re-record", when, r, err)
	}
	if r, err := eng.ProcessPacket(udpPkt(t, port, "fast")); err != nil || r.Path != PathFast {
		t.Fatalf("%s: packet after the re-record %+v (err %v), want the fast path", when, r, err)
	}
	if err := eng.CheckRecords(); err != nil {
		t.Errorf("%s: after the re-record: %v", when, err)
	}
}

// TestRestoreDropsHostileImages: a checkpointed rule whose recording the
// restoring chain cannot build — another chain's, a state function or a
// guard naming a position or a declared index the chain lacks, an action
// the consolidation refuses — is dropped — never bound to the wrong
// handler, never a panic — and its flow re-records. The untampered image
// restores.
func TestRestoreDropsHostileImages(t *testing.T) {
	eng := walEngine(t, refChain())
	if _, err := eng.ProcessPacket(udpPkt(t, 6100, "record")); err != nil {
		t.Fatal(err)
	}
	cp, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Rules) != 1 || len(cp.Rules[0].Spans) != 3 || len(cp.Rules[0].Spans[1].Funcs) != 1 || len(cp.Rules[0].Guards) != 1 {
		t.Fatalf("checkpoint rules %+v, want one with a function and a guard", cp.Rules)
	}
	fresh := walEngine(t, refChain())
	if err := fresh.Restore(cp, eng.WAL().Bytes()); err != nil {
		t.Fatal(err)
	}
	if r, err := fresh.ProcessPacket(udpPkt(t, 6100, "restored")); err != nil || r.Path != PathFast || fresh.Global().Len() != 1 {
		t.Fatalf("untampered image: %+v (err %v), %d rules; want its rule serving", r, err, fresh.Global().Len())
	}
	for _, tc := range hostileImages {
		bad, err := wal.DecodeCheckpoint(cp.Encode())
		if err != nil {
			t.Fatal(err)
		}
		tc.tamper(&bad.Rules[0])
		fresh := walEngine(t, refChain())
		// The journal's install of the same rule is hostile too.
		log := wal.NewWriter(wal.Options{})
		log.Append(wal.Record{Type: wal.RecRuleInstall, FID: bad.Rules[0].FID, Epoch: bad.Epoch, Aux: wal.AuxRestorable, Rule: &bad.Rules[0]})
		if err := fresh.Restore(bad, log.Bytes()); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		wantReRecords(t, fresh, 6100, tc.name)
	}
}

// TestImagelessInstallSupersedes: an install the log holds without its
// image replaced the flow's older rule all the same, so the replay
// takes the older rule away, and the flow re-records.
func TestImagelessInstallSupersedes(t *testing.T) {
	eng := walEngine(t, refChain())
	if _, err := eng.ProcessPacket(udpPkt(t, 6150, "record")); err != nil {
		t.Fatal(err)
	}
	cp, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	eng.WAL().Append(wal.Record{Type: wal.RecRuleInstall, FID: cp.Rules[0].FID, Epoch: cp.Epoch, Aux: wal.AuxReplaced})
	fresh := walEngine(t, refChain())
	if err := fresh.Restore(cp, eng.WAL().Bytes()); err != nil {
		t.Fatal(err)
	}
	wantReRecords(t, fresh, 6150, "imageless install")
}

// TestAdoptFlowDropsHostileImages is TestRestoreDropsHostileImages for a
// migration record: the flow arrives with its state, without the rule
// its image cannot bind, and re-records on its new owner. An image never
// carries the engine's own guards, so one that names them is refused too.
func TestAdoptFlowDropsHostileImages(t *testing.T) {
	for _, tc := range append(hostileImages, []struct {
		name   string
		tamper func(im *wal.RuleImage)
	}{
		{"the engine's own guard", func(im *wal.RuleImage) { im.Guards[0] = mat.Ref{Index: event.EngineOwned} }},
		{"untampered", nil},
	}...) {
		from, err := NewEngine(refChain(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		r, err := from.ProcessPacket(udpPkt(t, 6200, "record"))
		if err != nil {
			t.Fatal(err)
		}
		mf, ok := from.ExtractFlow(r.FID)
		if !ok || mf.Rule == nil {
			t.Fatalf("%s: extracted %+v (ok %v), want the flow with its rule", tc.name, mf, ok)
		}
		to, err := NewEngine(refChain(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if tc.tamper == nil {
			to.AdoptFlow(mf)
			if r, err := to.ProcessPacket(udpPkt(t, 6200, "moved")); err != nil || r.Path != PathFast {
				t.Fatalf("untampered record: %+v (err %v), want its rule serving", r, err)
			}
			if err := to.CheckRecords(); err != nil {
				t.Error(err)
			}
			continue
		}
		tamperOwn(mf.Rule, tc.tamper)
		to.AdoptFlow(mf)
		wantReRecords(t, to, 6200, tc.name)
	}
}

// TestEventOnlyNFGuardTravels: an NF that registers an event and
// records nothing has an empty span in its flow's rule, yet the rule
// guards its event. A checkpoint and a migration bring the rule back
// with that guard, bound to the NF's declaration, and the event still
// fires: the update turns the NF's span into a drop in place, and the
// packet that fired it and every later one is dropped on the fast path.
func TestEventOnlyNFGuardTravels(t *testing.T) {
	chain := func() (*fakeEventNF, []NF) {
		lb := &fakeEventNF{name: "lb", silent: true}
		return lb, []NF{&fakeModifier{name: "nat", dip: [4]byte{99, 0, 0, 1}}, &fakeCounter{name: "mon"}, lb}
	}
	_, nfs := chain()
	eng := walEngine(t, nfs)
	r, err := eng.ProcessPacket(udpPkt(t, 6300, "record"))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Rules) != 1 || cp.Rules[0].Spans[2].Actions != nil || len(cp.Rules[0].Guards) != 1 || cp.Rules[0].Guards[0].At != 2 {
		t.Fatalf("checkpoint rules %+v, want one the silent NF recorded nothing of, guarded by it", cp.Rules)
	}
	restored := func() (*Engine, *fakeEventNF) {
		lb, nfs := chain()
		fresh := walEngine(t, nfs)
		if err := fresh.Restore(cp, eng.WAL().Bytes()); err != nil {
			t.Fatal(err)
		}
		return fresh, lb
	}
	moved := func() (*Engine, *fakeEventNF) {
		mf, ok := eng.ExtractFlow(r.FID)
		if !ok || mf.Rule == nil {
			t.Fatalf("extracted %+v (ok %v), want the flow with its rule", mf, ok)
		}
		lb, nfs := chain()
		to, err := NewEngine(nfs, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		to.AdoptFlow(mf)
		return to, lb
	}
	// The restore replays eng's log, which the migration then extends.
	for _, arrive := range []struct {
		name string
		to   func() (*Engine, *fakeEventNF)
	}{{"restore", restored}, {"migration", moved}} {
		name := arrive.name
		to, lb := arrive.to()
		if n := to.Global().Len(); n != 1 || to.Events().Pending(r.FID) != 1 {
			t.Fatalf("%s: %d rules, %d events, want the rule and its event back", name, n, to.Events().Pending(r.FID))
		}
		if res, err := to.ProcessPacket(udpPkt(t, 6300, "back")); err != nil || res.Path != PathFast {
			t.Fatalf("%s: %+v (err %v), want the rule serving", name, res, err)
		}
		if err := to.CheckRecords(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// The firing updates the rule the recording came back with.
		lb.armed.Store(1)
		if res, err := to.ProcessPacket(udpPkt(t, 6300, "fires")); err != nil || res.Path != PathFast ||
			res.Verdict != VerdictDrop || res.Fast.EventsFired != 1 {
			t.Fatalf("%s: armed event: %+v (err %v), want it fired on the fast path, dropping", name, res, err)
		}
		if res, err := to.ProcessPacket(udpPkt(t, 6300, "dropped")); err != nil || res.Path != PathFast || res.Verdict != VerdictDrop {
			t.Fatalf("%s: after the firing: %+v (err %v), want the drop rule serving", name, res, err)
		}
		if st := to.Stats(); st.Initial != 0 || st.SlowPath != 0 {
			t.Errorf("%s: %d initial, %d slow-path packets; want the flow never to re-record", name, st.Initial, st.SlowPath)
		}
		if err := to.CheckRecords(); err != nil {
			t.Errorf("%s: after the firing: %v", name, err)
		}
	}
}

// TestOrphanRuleSweptOnRestore: a WAL-replayed rule whose flow entry
// was born after the checkpoint has no flow-table entry after restore.
// FIDs are tuple-hash allocations with probing, so a different tuple
// could later receive that FID — the orphan must be swept, not served.
func TestOrphanRuleSweptOnRestore(t *testing.T) {
	mod := &fakeModifier{name: "nat", dip: [4]byte{99, 0, 0, 1}}
	eng := walEngine(t, []NF{mod})
	cp, err := eng.Checkpoint() // empty: every later flow is post-checkpoint
	if err != nil {
		t.Fatal(err)
	}

	for i := 1; i <= 2; i++ {
		if _, err := eng.ProcessPacket(persistPkt(t, 6000, i)); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Global().Len() != 1 {
		t.Fatal("no rule installed")
	}

	fresh := walEngine(t, []NF{&fakeModifier{name: "nat", dip: [4]byte{99, 0, 0, 1}}})
	if err := fresh.Restore(cp, eng.WAL().Bytes()); err != nil {
		t.Fatal(err)
	}
	if n := fresh.Global().Len(); n != 0 {
		t.Fatalf("orphan rule survived restore (%d rules)", n)
	}
	// The tuple arrives fresh and records from scratch, correctly.
	p, err := fresh.ProcessPacket(persistPkt(t, 6000, 3))
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != classifier.KindInitial || p.Path != PathSlow {
		t.Errorf("orphaned tuple: kind=%v path=%v, want initial/slow", p.Kind, p.Path)
	}
}

// TestRestoreTornWALEveryOffset feeds Restore the journal truncated at
// every byte offset: whatever survives the tear, restore must succeed
// and the engine must process traffic correctly — a torn record is
// discarded whole, never half-applied to the Global MAT.
func TestRestoreTornWALEveryOffset(t *testing.T) {
	mod := &fakeModifier{name: "nat", dip: [4]byte{99, 0, 0, 1}}
	eng := walEngine(t, []NF{mod})
	// Flow A before the checkpoint, flow B after: the journal suffix
	// past cp.WALSeq carries B's install.
	for i := 1; i <= 2; i++ {
		if _, err := eng.ProcessPacket(persistPkt(t, 6000, i)); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if _, err := eng.ProcessPacket(persistPkt(t, 6001, i)); err != nil {
			t.Fatal(err)
		}
	}
	data := eng.WAL().Bytes()

	for cut := 0; cut <= len(data); cut++ {
		fresh, err := NewEngine([]NF{&fakeModifier{name: "nat", dip: [4]byte{99, 0, 0, 1}}}, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Restore(cp, data[:cut]); err != nil {
			t.Fatalf("cut %d: restore failed: %v", cut, err)
		}
		if n := fresh.Global().Len(); n > 1 {
			t.Fatalf("cut %d: %d rules restored, want at most flow A's", cut, n)
		}
		// Both tuples must process correctly whatever survived.
		for _, port := range []uint16{6000, 6001} {
			p := persistPkt(t, port, 9)
			if _, err := fresh.ProcessPacket(p); err != nil {
				t.Fatalf("cut %d port %d: %v", cut, port, err)
			}
			if p.DstIP() != [4]byte{99, 0, 0, 1} {
				t.Fatalf("cut %d port %d: output DIP = %v", cut, port, p.DstIP())
			}
			if !p.VerifyChecksums() {
				t.Fatalf("cut %d port %d: stale checksums", cut, port)
			}
		}
	}
}
