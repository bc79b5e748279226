package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"runtime"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// sampleImage builds a rule image exercising every body field: a span
// of every action kind, one of state functions alone, one of an NF that
// recorded nothing, and a guard.
func sampleImage(fid flow.FID) *RuleImage {
	return &RuleImage{
		FID:     fid,
		Version: 5,
		Epoch:   2,
		NFs:     []string{"nat", "vpn", "mon", "lb", "fw"},
		Spans: []mat.LocalRule{
			{Actions: []mat.HeaderAction{
				mat.Modify(packet.FieldDstIP, []byte{10, 0, 0, 9}),
				mat.Modify(packet.FieldDstPort, []byte{0x1f, 0x90}),
			}},
			{Actions: []mat.HeaderAction{
				mat.Decap(packet.HeaderVLAN),
				mat.Encap(packet.ExtraHeader{Type: packet.HeaderAH, SPI: 7, Seq: 3}),
				mat.Encap(packet.ExtraHeader{Type: packet.HeaderVLAN, Tag: 100}),
			}},
			{Actions: []mat.HeaderAction{}, Funcs: []uint8{0, 2}},
			{},
			{Actions: []mat.HeaderAction{mat.Forward(), mat.Drop()}, Funcs: []uint8{1}},
		},
		Guards: []mat.Ref{{At: 3, Index: 0}},
	}
}

// sampleLog appends one record of every type and returns the fully
// synced log plus the records as the writer sequenced them.
func sampleLog() (*Writer, []Record) {
	w := NewWriter(Options{GroupCommit: 1})
	recs := []Record{
		{Type: RecRuleInstall, FID: 4, Epoch: 1, Aux: AuxRestorable, Rule: sampleImage(4)},
		{Type: RecRuleInstall, FID: 9, Epoch: 1, Aux: AuxReplaced},
		{Type: RecRuleStale, FID: 9, Epoch: 1},
		{Type: RecEpochAdvance, Epoch: 2},
		{Type: RecRuleRemove, FID: 4, Epoch: 2},
	}
	for i := range recs {
		recs[i].Seq = w.Append(recs[i])
	}
	return w, recs
}

// prefixEqual reports whether recs matches the leading records of want
// (element-wise, so a nil and an empty slice both count as the empty
// prefix).
func prefixEqual(recs, want []Record) bool {
	if len(recs) > len(want) {
		return false
	}
	for i := range recs {
		if !reflect.DeepEqual(recs[i], want[i]) {
			return false
		}
	}
	return true
}

func TestRecordRoundTrip(t *testing.T) {
	w, want := sampleLog()
	got, consumed := Decode(w.Bytes())
	if consumed != w.Size() {
		t.Errorf("consumed %d of %d bytes", consumed, w.Size())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestImageIsTheRecording: an image is the rule's recording, shared with
// the rule, its chain's names and its guards by chain position and
// declared index — all but the engine's own guards, which do not survive
// a restore or a move — and nothing of what consolidation derived.
func TestImageIsTheRecording(t *testing.T) {
	r := &mat.GlobalRule{FID: 3, Epoch: 2, Version: 7, Spans: sampleImage(3).Spans, Drop: true, Prog: []byte{3, 1},
		Guards: &mat.Guard{Ref: mat.Ref{At: 1, Index: 4}, Next: &mat.Guard{Ref: mat.Ref{Index: event.EngineOwned},
			Next: &mat.Guard{Ref: mat.Ref{At: 3, Index: 0}}}}}
	nfs := sampleImage(3).NFs
	im, ok := ImageOf(r, nfs...)
	want := &RuleImage{FID: 3, Epoch: 2, Version: 7, NFs: nfs, Spans: r.Spans, Guards: []mat.Ref{{At: 1, Index: 4}, {At: 3, Index: 0}}}
	if !ok || !reflect.DeepEqual(im, want) || &im.Spans[0] != &r.Spans[0] {
		t.Errorf("image %+v (ok %v), want %+v sharing the rule's spans", im, ok, want)
	}
	got, rest, ok := decodeRuleImage(appendRuleImage(nil, im))
	if !ok || len(rest) != 0 || !reflect.DeepEqual(got, im) {
		t.Errorf("image does not round-trip: %+v", got)
	}
	// Unnamed positions encode as "": an image to measure, which no
	// chain's restore accepts.
	anon, _ := ImageOf(r)
	if got, _, ok := decodeRuleImage(appendRuleImage(nil, anon)); !ok || len(got.NFs) != len(r.Spans) || got.NFs[0] != "" {
		t.Errorf("an unnamed image decodes to names %q", got.NFs)
	}
}

// TestImageDecodesOnlyWhatEncodes: an action's operands are exactly its
// kind's, a kind no encoding has is corrupt, and so is a logged image of
// another format; a well-formed action of the wrong width is not the
// decoder's to refuse (the consolidation refuses it).
func TestImageDecodesOnlyWhatEncodes(t *testing.T) {
	one := func(a mat.HeaderAction) []byte {
		return appendRuleImage(nil, &RuleImage{NFs: []string{"x"}, Spans: []mat.LocalRule{{Actions: []mat.HeaderAction{a}}}})
	}
	narrow := one(mat.HeaderAction{Kind: mat.ActionModify, Field: packet.FieldDstIP, Value: []byte{1}})
	if im, _, ok := decodeRuleImage(narrow); !ok || len(im.Spans[0].Actions[0].Value) != 1 {
		t.Errorf("a modify of the wrong width did not decode as written: %+v", im)
	}
	kind := 20 + 2 + 2 + 1 + 1 + 2 // header, span count, name, flag, action count
	for name, b := range map[string][]byte{
		"unknown kind":       one(mat.HeaderAction{Kind: 99}),
		"forward with bytes": append(append(one(mat.Forward())[:kind+1:kind+1], 1, 0), 0, 0),
		"short encap":        append(append(one(mat.Encap(packet.ExtraHeader{Type: packet.HeaderAH}))[:kind+1:kind+1], 11), one(mat.Encap(packet.ExtraHeader{Type: packet.HeaderAH}))[kind+2:kind+2+11]...),
	} {
		if _, _, ok := decodeRuleImage(b); ok {
			t.Errorf("%s: decoded", name)
		}
	}
	w := NewWriter(Options{})
	w.Append(Record{Type: RecRuleInstall, FID: 4, Aux: AuxRestorable, Rule: sampleImage(4)})
	log := w.Bytes()
	payload := log[frameHeaderLen:]
	payload[payloadHeaderLen] = 4
	binary.LittleEndian.PutUint32(log[4:], crc32.ChecksumIEEE(payload))
	if recs, _ := Decode(log); len(recs) != 0 {
		t.Errorf("an image of format 4 decoded: %+v", recs)
	}
}

// TestTornTailEveryOffset truncates the log at every byte boundary: the
// decoded result must always be a clean whole-record prefix — a record
// cut anywhere inside its frame is discarded whole, never partially
// applied.
func TestTornTailEveryOffset(t *testing.T) {
	w, want := sampleLog()
	data := w.Bytes()
	full, _ := Decode(data)
	if len(full) != len(want) {
		t.Fatalf("full decode: %d records, want %d", len(full), len(want))
	}
	for cut := 0; cut <= len(data); cut++ {
		recs, consumed := Decode(data[:cut])
		if consumed > cut {
			t.Fatalf("cut %d: consumed %d past the end", cut, consumed)
		}
		if !prefixEqual(recs, want) {
			t.Fatalf("cut %d: decoded %d records, not a prefix of the log", cut, len(recs))
		}
		// Re-decoding the consumed prefix must be stable.
		again, c2 := Decode(data[:consumed])
		if c2 != consumed || !reflect.DeepEqual(again, recs) {
			t.Fatalf("cut %d: re-decode of consumed prefix diverged", cut)
		}
	}
	// A cut exactly at a frame boundary keeps everything before it.
	if recs, _ := Decode(data[:len(data)-1]); len(recs) != len(want)-1 {
		t.Errorf("one byte torn off: %d records, want %d", len(recs), len(want)-1)
	}
}

// TestCorruptByteDiscardsSuffix flips every byte of the log in turn:
// the CRC must stop replay at (or before) the corrupted record, and the
// surviving records must still be a clean prefix.
func TestCorruptByteDiscardsSuffix(t *testing.T) {
	w, want := sampleLog()
	data := w.Bytes()
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		recs, consumed := Decode(mut)
		if consumed > len(mut) {
			t.Fatalf("flip %d: consumed past the end", i)
		}
		if len(recs) >= len(want) {
			t.Fatalf("flip %d: corruption went unnoticed (%d records)", i, len(recs))
		}
		if !prefixEqual(recs, want) {
			t.Fatalf("flip %d: surviving records are not a prefix", i)
		}
	}
}

func TestSeqRegressionStops(t *testing.T) {
	var data []byte
	data = appendRecord(data, &Record{Seq: 1, Type: RecRuleRemove, FID: 1})
	data = appendRecord(data, &Record{Seq: 5, Type: RecRuleRemove, FID: 2})
	boundary := len(data)
	data = appendRecord(data, &Record{Seq: 3, Type: RecRuleRemove, FID: 3})

	recs, consumed := Decode(data)
	if len(recs) != 2 || consumed != boundary {
		t.Errorf("regression: %d records, consumed %d (want 2, %d)", len(recs), consumed, boundary)
	}

	// An equal sequence number is a regression too.
	dup := data[:boundary]
	dup = appendRecord(dup, &Record{Seq: 5, Type: RecRuleRemove, FID: 3})
	if recs, _ := Decode(dup); len(recs) != 2 {
		t.Errorf("duplicate seq accepted: %d records", len(recs))
	}
}

func TestGroupCommitDurability(t *testing.T) {
	var sink bytes.Buffer
	w := NewWriter(Options{GroupCommit: 4, Sink: &sink})
	for i := 0; i < 3; i++ {
		w.Append(Record{Type: RecRuleRemove, FID: flow.FID(i + 1)})
	}
	if n := len(w.DurableBytes()); n != 0 {
		t.Errorf("3 of 4 records appended: %d durable bytes, want 0", n)
	}
	if w.Syncs() != 0 || sink.Len() != 0 {
		t.Error("sync fired before the group-commit batch filled")
	}

	w.Append(Record{Type: RecRuleRemove, FID: 4}) // fills the batch
	if !bytes.Equal(w.DurableBytes(), w.Bytes()) {
		t.Error("after group commit the whole log should be durable")
	}
	if w.Syncs() != 1 || !bytes.Equal(sink.Bytes(), w.Bytes()) {
		t.Errorf("sink holds %d bytes after first sync, want %d", sink.Len(), w.Size())
	}

	w.Append(Record{Type: RecRuleRemove, FID: 5}) // pending again
	if bytes.Equal(w.DurableBytes(), w.Bytes()) {
		t.Error("unsynced tail leaked into DurableBytes")
	}
	w.Sync()
	if !bytes.Equal(w.DurableBytes(), w.Bytes()) || !bytes.Equal(sink.Bytes(), w.Bytes()) {
		t.Error("explicit Sync did not flush the tail")
	}
	syncs := w.Syncs()
	w.Sync() // no-op: nothing pending
	if w.Syncs() != syncs {
		t.Error("empty Sync still counted")
	}

	recs, _ := Decode(w.DurableBytes())
	if len(recs) != 5 || recs[4].Seq != w.Seq() {
		t.Errorf("durable log decodes to %d records (last seq %d), want 5 ending at %d",
			len(recs), recs[len(recs)-1].Seq, w.Seq())
	}
}

// bigLog appends sample records until the log spans at least segs
// segments, syncing every seventh record into sink, and returns the
// writer and the concatenation of the records' own encodings.
func bigLog(segs int, sink io.Writer) (*Writer, []byte) {
	w := NewWriter(Options{GroupCommit: 7, Sink: sink})
	var want []byte
	for i := 0; w.Size() < segs*segmentSize; i++ {
		r := Record{Type: RecRuleInstall, FID: flow.FID(i), Epoch: 1, Aux: AuxRestorable, Rule: sampleImage(flow.FID(i))}
		if i%3 == 0 {
			r = Record{Type: RecRuleRemove, FID: flow.FID(i), Epoch: 1}
		}
		r.Seq = w.Append(r)
		want = appendRecord(want, &r)
	}
	return w, want
}

// TestSegmentedLogIsTheConcatenation: the writer keeps the log in
// fixed-size segments, and nobody can tell — the bytes it returns, the
// lengths it reports and what its sink received are those of the
// records' encodings laid end to end, with records straddling the
// segment boundaries and syncs falling on either side of them.
func TestSegmentedLogIsTheConcatenation(t *testing.T) {
	var sink bytes.Buffer
	w, want := bigLog(3, &sink)
	if len(w.segs) < 4 || len(want)%segmentSize == 0 {
		t.Fatalf("%d bytes in %d segments: want three full ones and a tail", len(want), len(w.segs))
	}
	if !bytes.Equal(w.Bytes(), want) || w.Size() != len(want) {
		t.Fatalf("log is %d bytes, want the %d of its records' encodings, byte for byte", w.Size(), len(want))
	}
	if d := w.DurableLen(); d == 0 || d > len(want) || !bytes.Equal(w.DurableBytes(), want[:d]) || !bytes.Equal(sink.Bytes(), want[:d]) {
		t.Errorf("durable prefix (%d bytes) or the sink's %d are not the log's prefix", d, sink.Len())
	}
	w.Sync()
	if !bytes.Equal(sink.Bytes(), want) || w.DurableLen() != len(want) {
		t.Errorf("after Sync the sink holds %d bytes, want all %d", sink.Len(), len(want))
	}
	recs, consumed := Decode(w.Bytes())
	if consumed != len(want) || uint64(len(recs)) != w.Seq() {
		t.Errorf("decoded %d records over %d bytes, want %d over %d", len(recs), consumed, w.Seq(), len(want))
	}
}

func TestNilWriterSafe(t *testing.T) {
	var w *Writer
	if seq := w.Append(Record{Type: RecRuleRemove}); seq != 0 {
		t.Error("nil writer assigned a sequence")
	}
	w.Sync()
	w.SetOnSync(nil)
	if w.DurableBytes() != nil || w.Bytes() != nil || w.Seq() != 0 || w.Syncs() != 0 || w.Size() != 0 {
		t.Error("nil writer reported state")
	}
}

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Epoch:  3,
		WALSeq: 41,
		Clock:  9000,
		Flows: []FlowEntry{
			{FID: 4, Tuple: packet.FiveTuple{
				SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
				SrcPort: 6000, DstPort: 80, Proto: 6,
			}, State: 2, NF: []event.StateImage{{NF: "monitor", Words: []uint64{12, 900}}}},
			{FID: 9, Tuple: packet.FiveTuple{
				SrcIP: [4]byte{10, 0, 1, 1}, DstIP: [4]byte{10, 0, 1, 2},
				SrcPort: 5353, DstPort: 53, Proto: 17,
			}, State: 2},
		},
		Rules:   []RuleImage{*sampleImage(4), *sampleImage(9)},
		NFState: map[string][]byte{"monitor": {1, 2, 3}, "maglev": nil, "dos": {0xff}},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	want := sampleCheckpoint()
	data := want.Encode()
	got, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Deterministic encoding (map iteration must not leak in).
	if !bytes.Equal(data, want.Encode()) {
		t.Error("checkpoint encoding is not deterministic")
	}
}

// TestCheckpointCorruptionFailsLoudly: unlike a torn WAL tail, a
// damaged checkpoint has no usable prefix — every truncation, byte flip
// and trailing-garbage variant must return ErrBadCheckpoint, never a
// partial snapshot.
func TestCheckpointCorruptionFailsLoudly(t *testing.T) {
	data := sampleCheckpoint().Encode()
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeCheckpoint(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		if _, err := DecodeCheckpoint(mut); err == nil {
			t.Fatalf("byte flip at %d accepted", i)
		}
	}
	if _, err := DecodeCheckpoint(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
	// A format-2 checkpoint — its entries carried packet and byte counters
	// and a last-seen tick — and a format-4 one — its rules were merged
	// images — are refused whole, checksum and all intact.
	for _, format := range []uint16{2, 4} {
		if _, err := DecodeCheckpoint(seal(checkpointMagic, format, data[12:])); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("a format-%d checkpoint decoded: %v", format, err)
		}
	}
}

// FuzzDecodeCheckpoint: arbitrary bytes, and sealed bodies whose counts
// lie, must never panic and never make the decoder allocate more than the
// input could describe (its heap allocation is measured, not inferred),
// and every blob it accepts must re-encode to itself byte for byte.
func FuzzDecodeCheckpoint(f *testing.F) {
	data := sampleCheckpoint().Encode()
	body := data[12:]
	sealed := func(parts ...[]byte) []byte {
		return seal(checkpointMagic, checkpointFormat, bytes.Join(parts, nil))
	}
	f.Add(data)
	f.Add(data[:len(data)-2])
	f.Add([]byte{})
	const flowCount = 24 // epoch, WAL position, clock
	entry := len(appendFlowEntry(nil, &FlowEntry{}))
	nfCount := flowCount + 4 + entry - 2 // the first flow's NF image count
	words := nfCount + 2 + 2 + len("monitor")
	noState := sampleCheckpoint()
	noState.NFState = nil
	stateCount := len(noState.Encode()) - 12 - 4
	lie := []byte{0xff, 0xff, 0xff, 0xff}
	f.Add(sealed(body[:flowCount], lie, body[flowCount+4:]))
	f.Add(sealed(body[:nfCount], lie[:2], body[nfCount+2:]))
	f.Add(sealed(body[:words], lie[:2], body[words+2:]))
	f.Add(sealed(body[:stateCount], lie))
	f.Add(sealed(body[:stateCount], []byte{1, 0, 0, 0, 1, 0, 'x'}, lie))
	f.Add(sealed(body[:stateCount], []byte{0, 0, 1, 0, 1, 0, 'x', 0, 0, 0, 0})) // 65 536 blobs; one follows
	// Two blobs out of name order, and a span's recorded flag of 2: both
	// decode to something that encodes otherwise.
	f.Add(sealed(body[:stateCount], []byte{2, 0, 0, 0, 1, 0, 'b', 0, 0, 0, 0, 1, 0, 'a', 0, 0, 0, 0}))
	first, last := sampleImage(4), sampleImage(9)
	ruleCount := stateCount - len(appendRuleImage(nil, last)) - len(appendRuleImage(nil, first)) - 4
	spanCount := ruleCount + 4 + 20 // past the rule count and the first rule's FID, version, epoch
	bad := append([]byte(nil), body...)
	bad[spanCount+2+2+len(first.NFs[0])] = 2
	f.Add(sealed(bad))
	// The first rule's span count, guard count and last span's function
	// count far past the bytes that follow; and a reference cut in half.
	guardCount := ruleCount + 4 + len(appendRuleImage(nil, first)) - 4*len(first.Guards) - 2
	funcCount := guardCount - len(first.Spans[len(first.Spans)-1].Funcs) - 2
	f.Add(sealed(body[:spanCount], lie[:2], body[spanCount+2:]))
	f.Add(sealed(body[:guardCount], lie[:2], body[guardCount+2:]))
	f.Add(sealed(body[:funcCount], lie[:2], body[funcCount+2:]))
	f.Add(sealed(body[:guardCount+2+2]))
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cp, err := DecodeCheckpoint(in)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4096+64*uint64(len(in)) {
			t.Fatalf("decoding %d bytes allocated %d", len(in), grew)
		}
		if err != nil {
			if cp != nil {
				t.Fatal("a rejected blob yielded a checkpoint")
			}
			return
		}
		if out := cp.Encode(); !bytes.Equal(out, in) {
			t.Fatalf("an accepted blob of %d bytes re-encodes to %d other bytes", len(in), len(out))
		}
	})
}

// FuzzReplayTornTail feeds arbitrary bytes to the log decoder: whatever
// the input, Decode must return a stable, strictly sequenced record
// prefix without panicking — the property Restore relies on to keep a
// corrupt journal from ever touching the Global MAT.
func FuzzReplayTornTail(f *testing.F) {
	w, _ := sampleLog()
	data := w.Bytes()
	f.Add(data)
	f.Add(data[:len(data)-3])
	f.Add([]byte{})
	mut := append([]byte(nil), data...)
	mut[9] ^= 0x40
	f.Add(mut)
	// An install whose image is cut inside its references.
	first := frameHeaderLen + int(binary.LittleEndian.Uint32(data))
	f.Add(data[:first-3])
	// Its checksum intact over an image of format 4, and over a span
	// count far past the bytes that follow.
	resealed := func(at int, b ...byte) []byte {
		out := append([]byte(nil), data...)
		copy(out[frameHeaderLen+at:], b)
		binary.LittleEndian.PutUint32(out[4:], crc32.ChecksumIEEE(out[frameHeaderLen:first]))
		return out
	}
	f.Add(resealed(payloadHeaderLen, 4))
	f.Add(resealed(payloadHeaderLen+1+20, 0xff, 0xff))
	// A crash that kept the first segment of a longer log and nothing
	// of the second: the tear falls on the segment boundary.
	big, _ := bigLog(1, nil)
	f.Add(big.Bytes()[:segmentSize])
	f.Fuzz(func(t *testing.T, in []byte) {
		recs, consumed := Decode(in)
		if consumed < 0 || consumed > len(in) {
			t.Fatalf("consumed %d of %d", consumed, len(in))
		}
		var last uint64
		for _, r := range recs {
			if r.Seq <= last {
				t.Fatalf("sequence regression survived: %d after %d", r.Seq, last)
			}
			last = r.Seq
			if r.Type < RecRuleInstall || r.Type > RecEpochAdvance {
				t.Fatalf("invalid record type %d decoded", r.Type)
			}
		}
		again, c2 := Decode(in[:consumed])
		if c2 != consumed || !reflect.DeepEqual(again, recs) {
			t.Fatal("re-decode of consumed prefix diverged")
		}
	})
}

func TestRecordTypeString(t *testing.T) {
	for rt, want := range map[RecordType]string{
		RecRuleInstall:  "rule-install",
		RecRuleRemove:   "rule-remove",
		RecRuleStale:    "rule-stale",
		RecEpochAdvance: "epoch-advance",
		RecordType(5):   "RecordType(5)",
		RecordType(0):   "RecordType(0)",
		RecordType(99):  "RecordType(99)",
	} {
		if got := rt.String(); got != want {
			t.Errorf("RecordType(%d).String() = %q, want %q", int(rt), got, want)
		}
	}
}
