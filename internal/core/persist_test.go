package core

import (
	"encoding/binary"
	"errors"
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
	if err := ctx.AddHeaderAction(mat.Forward()); err != nil {
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

// TestNonRestorableInstallDemotes: a rule carrying state-function
// batches cannot be serialized; after restore its flow must come back
// as an established entry with no rule, re-record on one slow-path
// pass and then resume the fast path.
func TestNonRestorableInstallDemotes(t *testing.T) {
	ctr := &fakeCounter{name: "dos"}
	eng := walEngine(t, []NF{ctr})
	for i := 1; i <= 2; i++ {
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
	if len(cp.Rules) != 0 {
		t.Fatalf("closure-bearing rule leaked into the checkpoint (%d rules)", len(cp.Rules))
	}
	if len(cp.Flows) != 1 {
		t.Fatalf("flow entry missing from checkpoint")
	}

	fresh := walEngine(t, []NF{&fakeCounter{name: "dos"}})
	if err := fresh.Restore(cp, eng.WAL().Bytes()); err != nil {
		t.Fatal(err)
	}
	if n := fresh.Global().Len(); n != 0 {
		t.Fatalf("non-restorable rule resurrected (%d rules)", n)
	}

	r3, err := fresh.ProcessPacket(persistPkt(t, 6000, 3))
	if err != nil {
		t.Fatal(err)
	}
	if r3.Kind != classifier.KindInitial || r3.Path != PathSlow {
		t.Errorf("demoted flow: kind=%v path=%v, want initial/slow re-record", r3.Kind, r3.Path)
	}
	if fresh.Global().Len() != 1 {
		t.Fatal("re-record did not reinstall the rule")
	}
	r4, err := fresh.ProcessPacket(persistPkt(t, 6000, 4))
	if err != nil {
		t.Fatal(err)
	}
	if r4.Path != PathFast {
		t.Error("flow did not resume the fast path after re-recording")
	}
}

// TestEventRegisterReplayDemotes: an event registered after the
// checkpoint journals a RecEventRegister; replay must drop the flow's
// checkpointed rule — serving it without the closure would skip the
// update the event encodes.
func TestEventRegisterReplayDemotes(t *testing.T) {
	mod := &fakeModifier{name: "nat", dip: [4]byte{99, 0, 0, 1}}
	eng := walEngine(t, []NF{mod})
	r1, err := eng.ProcessPacket(persistPkt(t, 6000, 1))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Rules) != 1 {
		t.Fatalf("checkpoint holds %d rules, want 1", len(cp.Rules))
	}

	// Post-checkpoint registration: the closure dies with the process.
	err = eng.Events().Register(handleOf(t, eng, r1.FID), event.Event{
		NF:        "nat",
		Condition: func(flow.FID) bool { return false },
		Update:    func(flow.FID, *mat.LocalRule) {},
	})
	if err != nil {
		t.Fatal(err)
	}

	fresh := walEngine(t, []NF{&fakeModifier{name: "nat", dip: [4]byte{99, 0, 0, 1}}})
	if err := fresh.Restore(cp, eng.WAL().Bytes()); err != nil {
		t.Fatal(err)
	}
	if n := fresh.Global().Len(); n != 0 {
		t.Fatalf("rule with a lost event closure still installed (%d rules)", n)
	}
	// The flow re-records and recovers.
	r2, err := fresh.ProcessPacket(persistPkt(t, 6000, 2))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Kind != classifier.KindInitial || r2.Path != PathSlow {
		t.Errorf("demoted flow: kind=%v path=%v, want initial/slow", r2.Kind, r2.Path)
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
