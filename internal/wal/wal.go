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
// Every rule is data, so every rule is restorable: its image is the
// recording it was built from — each NF's actions and declared state
// functions by chain position — and its event guards as references to
// what the chain's NFs declared (mat.Ref). A restore builds the rule from
// the recording and the guards as a live install does, over the flow's
// restored state.
//
// The package depends only on event, flow, mat and packet (for the rule
// and flow images); the engine adapts its tables to the Writer, never
// the reverse.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

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

// RuleImage is the serializable projection of a mat.GlobalRule: the
// recording it was built from, each span with its chain position's NF
// name, and its event guards by reference. A restore builds the rule
// again from it exactly as a live install does (core's Engine.build): the
// merged header work, the program and the state-function batches are
// derived, never carried.
type RuleImage struct {
	FID     flow.FID
	Epoch   uint64
	Version uint64
	// NFs names the NF at each chain position of Spans, so an image of
	// another chain is refused; Spans is the rule's recording
	// (mat.GlobalRule.Spans).
	NFs   []string
	Spans []mat.LocalRule
	// Guards are the rule's event guards in order, each by its NF's
	// chain position and declared index, but for the engine's own
	// (event.EngineOwned), which do not survive a restore or a move.
	Guards []mat.Ref
}

// ImageOf is Image with the second result older callers take; it is
// always true. Without nfs, every position is named "": an image to
// measure or log, not one a restore accepts.
func ImageOf(r *mat.GlobalRule, nfs ...string) (*RuleImage, bool) { return Image(r, nfs), true }

// Image projects a GlobalRule into its serializable image, naming its
// chain positions nfs (the chain's, shared by every image of it). The
// guards are the flow's events: an installed rule's never change.
func Image(r *mat.GlobalRule, nfs []string) *RuleImage {
	im := project(r, nfs, nil)
	return &im
}

// project is r's image, sharing r's spans — an installed rule never
// changes them — and appending its guard references to refs' storage.
func project(r *mat.GlobalRule, nfs []string, refs []mat.Ref) RuleImage {
	im := RuleImage{FID: r.FID, Epoch: r.Epoch, Version: r.Version, NFs: nfs, Spans: r.Spans}
	for g := r.Guards; g != nil; g = g.Next {
		if g.Index != event.EngineOwned {
			refs = append(refs, g.Ref)
		}
	}
	if len(refs) > 0 {
		im.Guards = refs
	}
	return im
}

// NamesOf returns the NF names of chain's positions in order, the names
// an image of a rule that chain built carries.
func NamesOf(chain []mat.Contribution) []string {
	return appendNames(make([]string, 0, len(chain)), chain)
}

func appendNames(nfs []string, chain []mat.Contribution) []string {
	for _, c := range chain {
		nfs = append(nfs, c.NF)
	}
	return nfs
}

// Of reports whether the image names chain's positions, in order.
func (im *RuleImage) Of(chain []mat.Contribution) bool {
	return slices.EqualFunc(im.NFs, chain, func(nf string, c mat.Contribution) bool { return nf == c.NF })
}

// AppendInstall journals the install of r — a replacement, if replaced —
// with its image, naming its positions after chain's contributions, which
// it builds in place rather than on the heap: the record's bytes are the
// install's one cost.
func (w *Writer) AppendInstall(r *mat.GlobalRule, chain []mat.Contribution, replaced bool) uint64 {
	if w == nil {
		return 0
	}
	var buf [4]mat.Ref
	var names [8]string
	im := project(r, appendNames(names[:0], chain), buf[:0])
	rec := Record{Type: RecRuleInstall, FID: r.FID, Epoch: r.Epoch, Aux: AuxRestorable, Rule: &im}
	if replaced {
		rec.Aux |= AuxReplaced
	}
	return w.Append(rec)
}

// Wire format of one record:
//
//	[4B payload length n, LE] [4B CRC32(payload)] [n bytes payload]
//	payload: [8B seq][1B type][4B fid][8B epoch][8B aux][body]
//
// The length prefix frames the record; the checksum covers the whole
// payload, so a record is either decoded whole or discarded whole. The
// body is empty except for restorable RecRuleInstall records, which
// carry the image format and the encoded RuleImage.
const (
	frameHeaderLen   = 8  // length + crc
	payloadHeaderLen = 29 // seq + type + fid + epoch + aux
	// maxPayload bounds a single record so a corrupt length prefix
	// cannot make replay allocate unbounded memory.
	maxPayload = 1 << 20
	// imageFormat tags a logged image as checkpoints and migration
	// batches are sealed with their formats; an image of another format
	// is corrupt. 5: an image is the rule's recording, not its merged
	// header work.
	imageFormat = 5
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
		buf = append(buf, imageFormat)
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
		if len(body) == 0 || body[0] != imageFormat {
			return Record{}, false
		}
		im, rest, ok := decodeRuleImage(body[1:])
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

// appendRuleImage encodes an image: its header words, then each span —
// its NF's name, whether the NF recorded anything and, if it did, its
// actions and its state functions — then its guard references. A
// position Image was given no name for is named "".
func appendRuleImage(buf []byte, im *RuleImage) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(im.FID))
	buf = binary.LittleEndian.AppendUint64(buf, im.Version)
	buf = binary.LittleEndian.AppendUint64(buf, im.Epoch)
	buf = appendUint16(buf, uint16(len(im.Spans)))
	for i := range im.Spans {
		sp := &im.Spans[i]
		nf := ""
		if i < len(im.NFs) {
			nf = im.NFs[i]
		}
		buf = appendString(buf, nf)
		if sp.Actions == nil {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		buf = appendUint16(buf, uint16(len(sp.Actions)))
		for j := range sp.Actions {
			buf = appendAction(buf, &sp.Actions[j])
		}
		buf = appendBytes(buf, sp.Funcs)
	}
	return appendRefs(buf, im.Guards)
}

// appendAction encodes a header action as its kind, the length of its
// operands — one byte: a modify's value is a header field's, at most six
// — and the operands its kind has: a modify's field and value, an encap's
// header, a decap's header type. Every action is at least two bytes, so
// a count of them is checked against the bytes behind it before
// anything is sized by it.
func appendAction(buf []byte, a *mat.HeaderAction) []byte {
	buf = append(buf, byte(a.Kind), 0)
	at := len(buf)
	switch a.Kind {
	case mat.ActionModify:
		buf = appendUint16(buf, uint16(a.Field))
		buf = append(buf, a.Value...)
	case mat.ActionEncap:
		buf = appendUint16(buf, uint16(a.Header.Type))
		buf = binary.LittleEndian.AppendUint32(buf, a.Header.SPI)
		buf = binary.LittleEndian.AppendUint32(buf, a.Header.Seq)
		buf = appendUint16(buf, a.Header.Tag)
	case mat.ActionDecap:
		buf = appendUint16(buf, uint16(a.HeaderType))
	}
	buf[at-1] = byte(len(buf) - at)
	return buf
}

// action decodes what appendAction wrote. An operand length its kind
// does not have, or a kind with no encoding, is corrupt.
func (r *byteReader) action() (a mat.HeaderAction) {
	a.Kind = mat.ActionKind(r.u8())
	n := int(r.u8())
	if !r.ok || len(r.b) < n {
		r.ok = false
		return a
	}
	op := &byteReader{b: r.b[:n], ok: true}
	r.b = r.b[n:]
	switch a.Kind {
	case mat.ActionForward, mat.ActionDrop:
	case mat.ActionModify:
		a.Field = packet.Field(op.u16())
		if op.ok {
			a.Value, op.b = append([]byte(nil), op.b...), nil
		}
	case mat.ActionEncap:
		a.Header = packet.ExtraHeader{Type: packet.HeaderType(op.u16()), SPI: op.u32(), Seq: op.u32(), Tag: op.u16()}
	case mat.ActionDecap:
		a.HeaderType = packet.HeaderType(op.u16())
	default:
		op.ok = false
	}
	r.ok = op.ok && len(op.b) == 0
	return a
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
	im.Version = rd.u64()
	im.Epoch = rd.u64()
	// A span is at least a name's length and a flag: three bytes.
	if n := int(rd.u16()); !rd.ok || len(rd.b) < 3*n {
		rd.ok = false
	} else if n > 0 {
		im.NFs, im.Spans = make([]string, n), make([]mat.LocalRule, n)
	}
	for i := range im.Spans {
		im.NFs[i] = rd.str()
		if !rd.flag() {
			continue
		}
		na := int(rd.u16())
		if !rd.ok || len(rd.b) < 2*na {
			rd.ok = false
			break
		}
		sp := &im.Spans[i]
		sp.Actions = make([]mat.HeaderAction, na)
		for j := range sp.Actions {
			sp.Actions[j] = rd.action()
		}
		sp.Funcs = rd.bytes()
	}
	im.Guards = rd.refs()
	if !rd.ok {
		return nil, nil, false
	}
	return im, rd.b, true
}
