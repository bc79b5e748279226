// Package wal is the durable write-ahead log behind crash-safe
// SpeedyBox state (ROADMAP item 2, following the transactional-NFV
// direction of TransNFV). Every Global MAT mutation that can change
// what the fast path serves — install, remove, stale-mark, epoch
// advance — is journaled as a length-prefixed, CRC-checksummed binary
// record. A checkpoint
// (snapshot of the restorable tables at a recorded log position) plus
// the journal suffix reconstructs the engine after a crash:
// core.Engine.Restore replays the suffix transactionally, discarding a
// torn or half-written record whole, so a restored engine never serves
// a partially installed rule.
//
// Every rule is data, so every rule is restorable: its header work, and
// its state-function batches and event guards as references to what the
// chain's NFs declared (mat.Ref). A restore binds the references to the
// receiving chain and to the flow's restored state, and re-registers
// the flow's events from the guards.
//
// The package depends only on event, flow, mat and packet (for the rule
// and flow images); the engine adapts its tables to the Writer, never
// the reverse.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// RecordType enumerates the journaled mutation classes.
type RecordType uint8

// Record types. Enum starts at one so a zeroed record is detectably
// invalid.
const (
	// RecRuleInstall is a Global MAT install or replacement. Aux bit 0
	// reports whether the record carries a rule image (the engine's
	// always do); aux bit 1 reports a replacement of an existing rule.
	RecRuleInstall RecordType = iota + 1
	// RecRuleRemove is a Global MAT rule removal.
	RecRuleRemove
	// RecRuleStale is a stale-mark: the installed rule disagrees with
	// the Local MATs and must not be served.
	RecRuleStale
	// RecEpochAdvance is a chain-epoch bump (Engine.Reconfigure). The
	// record's Epoch field carries the new epoch; replay drops every
	// restored rule consolidated under an older one, reproducing the
	// post-reconfiguration sweep.
	RecEpochAdvance
)

// Aux bits of RecRuleInstall.
const (
	// AuxRestorable marks an install record carrying a rule image.
	AuxRestorable uint64 = 1 << 0
	// AuxReplaced marks a replacement of an existing rule.
	AuxReplaced uint64 = 1 << 1
)

// String returns the record type's label.
func (t RecordType) String() string {
	switch t {
	case RecRuleInstall:
		return "rule-install"
	case RecRuleRemove:
		return "rule-remove"
	case RecRuleStale:
		return "rule-stale"
	case RecEpochAdvance:
		return "epoch-advance"
	default:
		return fmt.Sprintf("RecordType(%d)", int(t))
	}
}

// Record is one journaled control-plane mutation.
type Record struct {
	// Seq is the log-wide sequence number (1-based, strictly
	// increasing). Replay stops at the first regression, so random
	// bytes that happen to checksum can never be applied out of order.
	Seq uint64
	// Type is the mutation class.
	Type RecordType
	// FID is the affected flow (zero for epoch advances).
	FID flow.FID
	// Epoch is the chain epoch the mutation happened under (for
	// RecEpochAdvance: the new epoch).
	Epoch uint64
	// Aux carries type-specific flags (Aux* bits).
	Aux uint64
	// Rule is the rule image, non-nil only for RecRuleInstall records
	// with AuxRestorable set.
	Rule *RuleImage
}

// RuleImage is the serializable projection of a mat.GlobalRule: its
// header data, and its state functions and event guards by reference.
type RuleImage struct {
	FID       flow.FID
	Drop      bool
	Modifies  []mat.FieldValue
	Decaps    []packet.HeaderType
	Encaps    []packet.ExtraHeader
	SourceNFs int
	Sources   []mat.SourceSummary
	Version   uint64
	Epoch     uint64
	// Funcs are the rule's state functions, batch by batch in chain
	// order, each by its NF's chain position and declared index: the
	// consecutive ones of one position are that NF's batch. Guards are
	// the rule's event guards in order, but for the engine's own
	// (event.EngineOwned), which do not survive a restore or a move.
	Funcs  []mat.Ref
	Guards []mat.Ref
}

// ImageOf is Image with the second result older callers take; it is
// always true.
func ImageOf(r *mat.GlobalRule) (*RuleImage, bool) { return Image(r), true }

// Image projects a GlobalRule into its serializable image. The guards
// are the flow's registrations: a consolidation snapshots them, and a
// registration after it gives the rule a fresh list.
func Image(r *mat.GlobalRule) *RuleImage {
	im := project(r, nil)
	return &im
}

// project is r's image, sharing r's header slices — an installed rule
// never changes them — and appending its references to refs' storage.
func project(r *mat.GlobalRule, refs []mat.Ref) RuleImage {
	im := RuleImage{
		FID: r.FID, Drop: r.Drop, Modifies: r.Modifies, Decaps: r.Stack.Decaps, Encaps: r.Stack.Encaps,
		SourceNFs: r.SourceNFs, Sources: r.Sources, Version: r.Version, Epoch: r.Epoch,
	}
	for _, b := range r.Batches {
		for _, c := range b.Calls {
			refs = append(refs, mat.Ref{At: uint16(b.At), Index: uint16(c)})
		}
	}
	n := len(refs)
	for g := r.Guards(); g != nil; g = g.Next {
		if g.Index != event.EngineOwned {
			refs = append(refs, g.Ref)
		}
	}
	im.Funcs, im.Guards = refs[:n:n], refs[n:]
	if n == 0 {
		im.Funcs = nil
	}
	if len(im.Guards) == 0 {
		im.Guards = nil
	}
	return im
}

// AppendInstall journals the install of r — a replacement, if replaced —
// with its image, which it builds in place rather than on the heap: the
// record's bytes are the install's one cost.
func (w *Writer) AppendInstall(r *mat.GlobalRule, replaced bool) uint64 {
	if w == nil {
		return 0
	}
	var buf [8]mat.Ref
	im := project(r, buf[:0])
	rec := Record{Type: RecRuleInstall, FID: r.FID, Epoch: r.Epoch, Aux: AuxRestorable, Rule: &im}
	if replaced {
		rec.Aux |= AuxReplaced
	}
	return w.Append(rec)
}

// Rule materializes the image's header data back into a GlobalRule; the
// caller binds its Funcs and Guards to a chain and a flow.
func (im *RuleImage) Rule() *mat.GlobalRule {
	r := &mat.GlobalRule{
		FID:       im.FID,
		Drop:      im.Drop,
		SourceNFs: im.SourceNFs,
		Version:   im.Version,
		Epoch:     im.Epoch,
	}
	r.Modifies = append(r.Modifies, im.Modifies...)
	r.Stack.Decaps = append(r.Stack.Decaps, im.Decaps...)
	r.Stack.Encaps = append(r.Stack.Encaps, im.Encaps...)
	r.Sources = append(r.Sources, im.Sources...)
	// The image predates (or deliberately omits) the compiled action
	// program; rebuild it so restored rules run the compiled fast path
	// instead of falling back to interpretation forever.
	r.Compile()
	return r
}

// Wire format of one record:
//
//	[4B payload length n, LE] [4B CRC32(payload)] [n bytes payload]
//	payload: [8B seq][1B type][4B fid][8B epoch][8B aux][body]
//
// The length prefix frames the record; the checksum covers the whole
// payload, so a record is either decoded whole or discarded whole. The
// body is empty except for restorable RecRuleInstall records, which
// carry the encoded RuleImage.
const (
	frameHeaderLen   = 8  // length + crc
	payloadHeaderLen = 29 // seq + type + fid + epoch + aux
	// maxPayload bounds a single record so a corrupt length prefix
	// cannot make replay allocate unbounded memory.
	maxPayload = 1 << 20
)

// appendRecord encodes the record onto buf.
func appendRecord(buf []byte, r *Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	p := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
	buf = append(buf, byte(r.Type))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.FID))
	buf = binary.LittleEndian.AppendUint64(buf, r.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, r.Aux)
	if r.Rule != nil {
		buf = appendRuleImage(buf, r.Rule)
	}
	payload := buf[p:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// Decode parses records from data until the end of the log or the
// first record that is torn (truncated frame), corrupt (checksum or
// structure mismatch) or out of order (sequence regression). It
// returns the cleanly decoded prefix and how many bytes it spans:
// everything after a bad record is unreachable by construction — the
// writer appends strictly sequentially — so replay applies the prefix
// and discards the rest whole.
func Decode(data []byte) (recs []Record, consumed int) {
	off := 0
	var lastSeq uint64
	for off+frameHeaderLen <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n < payloadHeaderLen || n > maxPayload {
			return recs, off
		}
		if off+frameHeaderLen+n > len(data) {
			return recs, off // torn tail
		}
		payload := data[off+frameHeaderLen : off+frameHeaderLen+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+4:]) {
			return recs, off
		}
		rec, ok := decodePayload(payload)
		if !ok || rec.Seq <= lastSeq {
			return recs, off
		}
		lastSeq = rec.Seq
		recs = append(recs, rec)
		off += frameHeaderLen + n
	}
	return recs, off
}

// decodePayload parses one checksummed payload.
func decodePayload(p []byte) (Record, bool) {
	var r Record
	r.Seq = binary.LittleEndian.Uint64(p)
	r.Type = RecordType(p[8])
	r.FID = flow.FID(binary.LittleEndian.Uint32(p[9:]))
	r.Epoch = binary.LittleEndian.Uint64(p[13:])
	r.Aux = binary.LittleEndian.Uint64(p[21:])
	if r.Type < RecRuleInstall || r.Type > RecEpochAdvance {
		return Record{}, false
	}
	body := p[payloadHeaderLen:]
	if r.Type == RecRuleInstall && r.Aux&AuxRestorable != 0 {
		im, rest, ok := decodeRuleImage(body)
		if !ok || len(rest) != 0 {
			return Record{}, false
		}
		r.Rule = im
		return r, true
	}
	if len(body) != 0 {
		return Record{}, false
	}
	return r, true
}

// --- rule image body encoding -------------------------------------

func appendUint16(buf []byte, v uint16) []byte {
	return append(buf, byte(v), byte(v>>8))
}

func appendBytes(buf, b []byte) []byte {
	buf = appendUint16(buf, uint16(len(b)))
	return append(buf, b...)
}

func appendString(buf []byte, s string) []byte {
	buf = appendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func appendRuleImage(buf []byte, im *RuleImage) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(im.FID))
	flagByte := byte(0)
	if im.Drop {
		flagByte = 1
	}
	buf = append(buf, flagByte)
	buf = appendUint16(buf, uint16(len(im.Modifies)))
	for _, m := range im.Modifies {
		buf = appendUint16(buf, uint16(m.Field))
		buf = appendBytes(buf, m.Value)
	}
	buf = appendUint16(buf, uint16(len(im.Decaps)))
	for _, d := range im.Decaps {
		buf = appendUint16(buf, uint16(d))
	}
	buf = appendUint16(buf, uint16(len(im.Encaps)))
	for _, h := range im.Encaps {
		buf = appendUint16(buf, uint16(h.Type))
		buf = binary.LittleEndian.AppendUint32(buf, h.SPI)
		buf = binary.LittleEndian.AppendUint32(buf, h.Seq)
		buf = appendUint16(buf, h.Tag)
	}
	buf = appendUint16(buf, uint16(im.SourceNFs))
	buf = appendUint16(buf, uint16(len(im.Sources)))
	for _, s := range im.Sources {
		buf = appendString(buf, s.NF)
		buf = appendUint16(buf, s.Modifies)
		buf = appendUint16(buf, s.Encaps)
		buf = appendUint16(buf, s.Decaps)
		dropByte := byte(0)
		if s.Dropped {
			dropByte = 1
		}
		buf = append(buf, dropByte)
	}
	buf = binary.LittleEndian.AppendUint64(buf, im.Version)
	buf = binary.LittleEndian.AppendUint64(buf, im.Epoch)
	buf = appendRefs(buf, im.Funcs)
	return appendRefs(buf, im.Guards)
}

// appendRefs encodes a count, then each reference's position and index.
func appendRefs(buf []byte, refs []mat.Ref) []byte {
	buf = appendUint16(buf, uint16(len(refs)))
	for _, r := range refs {
		buf = appendUint16(buf, r.At)
		buf = appendUint16(buf, r.Index)
	}
	return buf
}

// refs decodes what appendRefs wrote, checking the count against the
// bytes that remain before anything is sized by it.
func (r *byteReader) refs() []mat.Ref {
	n := int(r.u16())
	if !r.ok || len(r.b) < 4*n {
		r.ok = false
		return nil
	}
	var out []mat.Ref
	for i := 0; i < n; i++ {
		out = append(out, mat.Ref{At: r.u16(), Index: r.u16()})
	}
	return out
}

// byteReader cursors over an encoded body; ok latches false on the
// first short read so decoders stay linear instead of error-plumbing
// every field.
type byteReader struct {
	b  []byte
	ok bool
}

func (r *byteReader) u8() byte {
	if !r.ok || len(r.b) < 1 {
		r.ok = false
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// flag reads a byte written as 0 or 1; any other value is corrupt.
func (r *byteReader) flag() bool {
	v := r.u8()
	r.ok = r.ok && v <= 1
	return v == 1
}

func (r *byteReader) u16() uint16 {
	if !r.ok || len(r.b) < 2 {
		r.ok = false
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}

func (r *byteReader) u32() uint32 {
	if !r.ok || len(r.b) < 4 {
		r.ok = false
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *byteReader) u64() uint64 {
	if !r.ok || len(r.b) < 8 {
		r.ok = false
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *byteReader) bytes() []byte {
	n := int(r.u16())
	if !r.ok || len(r.b) < n {
		r.ok = false
		return nil
	}
	v := append([]byte(nil), r.b[:n]...)
	r.b = r.b[n:]
	return v
}

func (r *byteReader) str() string { return string(r.bytes()) }

func decodeRuleImage(body []byte) (*RuleImage, []byte, bool) {
	rd := &byteReader{b: body, ok: true}
	im := &RuleImage{}
	im.FID = flow.FID(rd.u32())
	im.Drop = rd.flag()
	nm := int(rd.u16())
	for i := 0; i < nm && rd.ok; i++ {
		f := packet.Field(rd.u16())
		im.Modifies = append(im.Modifies, mat.FieldValue{Field: f, Value: rd.bytes()})
	}
	nd := int(rd.u16())
	for i := 0; i < nd && rd.ok; i++ {
		im.Decaps = append(im.Decaps, packet.HeaderType(rd.u16()))
	}
	ne := int(rd.u16())
	for i := 0; i < ne && rd.ok; i++ {
		h := packet.ExtraHeader{Type: packet.HeaderType(rd.u16())}
		h.SPI = rd.u32()
		h.Seq = rd.u32()
		h.Tag = rd.u16()
		im.Encaps = append(im.Encaps, h)
	}
	im.SourceNFs = int(rd.u16())
	ns := int(rd.u16())
	for i := 0; i < ns && rd.ok; i++ {
		s := mat.SourceSummary{NF: rd.str()}
		s.Modifies = rd.u16()
		s.Encaps = rd.u16()
		s.Decaps = rd.u16()
		s.Dropped = rd.flag()
		im.Sources = append(im.Sources, s)
	}
	im.Version = rd.u64()
	im.Epoch = rd.u64()
	im.Funcs = rd.refs()
	im.Guards = rd.refs()
	if !rd.ok {
		return nil, nil, false
	}
	return im, rd.b, true
}
