package wal

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

func sampleMigration() []MigrationRecord {
	return []MigrationRecord{
		{
			Flow: FlowEntry{FID: 4, Tuple: packet.FiveTuple{
				SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
				SrcPort: 6000, DstPort: 80, Proto: 6,
			}, State: 2,
				// The flow's NF state: a NAT translation, a pin, counters.
				NF: []event.StateImage{
					{NF: "mazunat", Words: []uint64{0x0a0000010a000002, 0x1770005006, 0x14e20}},
					{NF: "maglev", Words: []uint64{2, 0x9e3779b97f4a7c15}},
					{NF: "monitor", Words: []uint64{12, 900}},
				}},
			Rule: sampleImage(4),
		},
		{
			// A flow without a live rule: entry only — the new owner
			// re-records it on its next packet.
			Flow: FlowEntry{FID: 9, Tuple: packet.FiveTuple{
				SrcIP: [4]byte{10, 0, 1, 1}, DstIP: [4]byte{10, 0, 1, 2},
				SrcPort: 5353, DstPort: 53, Proto: 17,
			}, State: 1},
		},
	}
}

func TestMigrationRoundTrip(t *testing.T) {
	want := sampleMigration()
	data := EncodeMigration(want)
	got, err := DecodeMigration(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if !bytes.Equal(data, EncodeMigration(want)) {
		t.Error("migration encoding is not deterministic")
	}
	empty, err := DecodeMigration(EncodeMigration(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Errorf("empty batch decoded to %d records", len(empty))
	}
}

// TestMigrationCorruptionFailsLoudly: a migration record commits a
// flow onto a new owner, so a damaged blob must be rejected whole —
// every truncation, byte flip and trailing-garbage variant returns
// ErrBadMigration, never a partial transfer.
func TestMigrationCorruptionFailsLoudly(t *testing.T) {
	data := EncodeMigration(sampleMigration())
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeMigration(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		if _, err := DecodeMigration(mut); err == nil {
			t.Fatalf("byte flip at %d accepted", i)
		}
	}
	if _, err := DecodeMigration(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
	// A format-2 batch — its entries carried packet and byte counters and
	// a last-seen tick — and a format-4 one — its rules were merged images
	// — are refused whole, checksum and all intact.
	for _, format := range []uint16{2, 4} {
		if _, err := DecodeMigration(seal(migrationMagic, format, data[12:])); !errors.Is(err, ErrBadMigration) {
			t.Errorf("a format-%d batch decoded: %v", format, err)
		}
	}
}

// sealMigration frames a body as EncodeMigration does, checksum and all:
// what a hostile sender, not line noise, would present.
func sealMigration(body []byte) []byte { return seal(migrationMagic, migrationFormat, body) }

// FuzzDecodeMigration: arbitrary bytes must never panic, never make the
// decoder allocate more than the input could describe, never yield
// anything alongside an error, and never yield a record batch that
// re-encodes differently than a clean round trip.
func FuzzDecodeMigration(f *testing.F) {
	data := EncodeMigration(sampleMigration())
	f.Add(data)
	f.Add(data[:len(data)-2])
	f.Add([]byte{})
	mut := append([]byte(nil), data...)
	mut[14] ^= 0x20
	f.Add(mut)
	// State-bearing seeds with a valid checksum over a lying body: a
	// record count, an NF count and a word count far past the bytes that
	// follow, and a state image cut mid-word.
	body := data[12:]
	f.Add(sealMigration(append([]byte{0xff, 0xff, 0xff, 0xff}, body[4:]...)))
	entry := len(appendFlowEntry(nil, &FlowEntry{}))
	nfCount := 4 + entry - 2 // the first record's NF count
	for _, lie := range [][]byte{{0xff, 0xff}, {0x01, 0x00, 0x01, 0x00, 'x', 0xff, 0xff}} {
		f.Add(sealMigration(append(append([]byte(nil), body[:nfCount]...), lie...)))
	}
	f.Add(sealMigration(body[:nfCount+2+2+len("mazunat")+2+11]))
	// A rule whose guard count lies, at the end of the first record, and
	// one whose span count does.
	rule := 4 + len(appendFlowEntry(nil, &sampleMigration()[0].Flow)) + 1
	first := rule + len(appendRuleImage(nil, sampleMigration()[0].Rule))
	f.Add(sealMigration(append(append([]byte(nil), body[:first-2-4]...), 0xff, 0xff)))
	f.Add(sealMigration(append(append(append([]byte(nil), body[:rule+20]...), 0xff, 0xff), body[rule+22:]...)))
	f.Fuzz(func(t *testing.T, in []byte) {
		recs, err := DecodeMigration(in)
		if err != nil {
			if recs != nil {
				t.Fatalf("a rejected blob yielded %d record(s)", len(recs))
			}
			return
		}
		words := 0
		for _, r := range recs {
			for _, im := range r.Flow.NF {
				words += len(im.Words)
			}
		}
		if len(recs) > len(in) || 8*words > len(in) {
			t.Fatalf("%d bytes decoded to %d records holding %d state words", len(in), len(recs), words)
		}
		if got, rerr := DecodeMigration(EncodeMigration(recs)); rerr != nil || !reflect.DeepEqual(got, recs) {
			t.Fatalf("accepted batch does not round-trip: %v", rerr)
		}
	})
}
