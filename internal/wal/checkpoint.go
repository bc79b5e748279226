package wal

import (
	"encoding/binary"
	"hash/crc32"
	"sort"

	"github.com/fastpathnfv/speedybox/internal/errcode"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// Checkpoint is a consistent snapshot of the engine's restorable
// state: the live Global MAT rules at a recorded epoch, the
// flow-table occupancy with each flow's NF state, the classifier's
// logical clock and each Snapshotter NF's serialized cross-flow state. WALSeq records the log position
// the snapshot reflects; Engine.Restore replays only the journal
// suffix past it.
type Checkpoint struct {
	// Epoch is the chain epoch the snapshot was taken under.
	Epoch uint64
	// WALSeq is the last WAL record sequence reflected in the
	// snapshot (zero when no WAL was attached).
	WALSeq uint64
	// Clock is the engine's logical clock, which a restore resumes so it
	// never goes back.
	Clock uint64
	// Flows is the flow-table occupancy: FID assignments, lifecycle
	// states and NF state. Restored flows are already established, so
	// a flow whose rule did not come back (one its image names what the
	// chain lacks) re-records on its next packet.
	Flows []FlowEntry
	// Rules are the live Global MAT rules, each built again on restore
	// from its recording, under the chain and over its flow's restored
	// state.
	Rules []RuleImage
	// NFState maps NF name to its Snapshotter blob.
	NFState map[string][]byte
}

// FlowEntry is the serializable projection of a flow's entry: the
// flow.Entry and the per-flow state of its NFs, which lives on the
// entry's record. The entry's seen epoch does not travel: its epochs are
// the old table's, and a restored entry is stamped afresh.
type FlowEntry struct {
	FID   flow.FID
	Tuple packet.FiveTuple
	State uint8
	// NF is the flow's NF state, an image a slot in use.
	NF []event.StateImage
}

// ImageOfEntry projects a flow-table entry and its NFs' state; Entry is
// the flow.Entry half back.
func ImageOfEntry(e flow.Entry, nf []event.StateImage) FlowEntry {
	return FlowEntry{FID: e.FID, Tuple: e.Tuple, State: uint8(e.State), NF: nf}
}

func (f *FlowEntry) Entry() flow.Entry {
	return flow.Entry{FID: f.FID, Tuple: f.Tuple, State: flow.State(f.State)}
}

// appendFlowEntry encodes a flow entry as checkpoints and migration
// records carry it. The NF state is a count, then per NF its name, a
// word count and the words.
func appendFlowEntry(body []byte, f *FlowEntry) []byte {
	body = binary.LittleEndian.AppendUint32(body, uint32(f.FID))
	body = append(body, f.Tuple.SrcIP[:]...)
	body = append(body, f.Tuple.DstIP[:]...)
	body = appendUint16(body, f.Tuple.SrcPort)
	body = appendUint16(body, f.Tuple.DstPort)
	body = append(body, f.Tuple.Proto, f.State)
	body = appendUint16(body, uint16(len(f.NF)))
	for _, im := range f.NF {
		body = appendString(body, im.NF)
		body = appendUint16(body, uint16(len(im.Words)))
		for _, w := range im.Words {
			body = binary.LittleEndian.AppendUint64(body, w)
		}
	}
	return body
}

// flowEntry decodes what appendFlowEntry wrote. Every count is checked
// against the bytes that remain before anything is sized by it.
func (r *byteReader) flowEntry() (f FlowEntry) {
	f.FID = flow.FID(r.u32())
	for j := 0; j < 4; j++ {
		f.Tuple.SrcIP[j] = r.u8()
	}
	for j := 0; j < 4; j++ {
		f.Tuple.DstIP[j] = r.u8()
	}
	f.Tuple.SrcPort = r.u16()
	f.Tuple.DstPort = r.u16()
	f.Tuple.Proto = r.u8()
	f.State = r.u8()
	for n := int(r.u16()); n > 0 && r.ok; n-- {
		im := event.StateImage{NF: r.str()}
		words := int(r.u16())
		if r.ok = r.ok && len(r.b) >= 8*words; !r.ok {
			break
		}
		im.Words = make([]uint64, words)
		for i := range im.Words {
			im.Words[i] = r.u64()
		}
		f.NF = append(f.NF, im)
	}
	return f
}

// Checkpoint wire format: sealed (seal) with its own magic and format,
// the body with the same primitive encoding as WAL record bodies.
const (
	checkpointMagic = 0x53424350 // "SBCP"
	// checkpointFormat 2: flow entries carry NF state; 3: and no packet
	// or byte counters or last-seen tick; 4: rule images carry their
	// state-function and guard references; 5: a rule image is the rule's
	// recording (imageFormat).
	checkpointFormat = imageFormat
)

// seal frames a body as checkpoints and migration batches travel:
// magic, format, a reserved zero word, the body's CRC-32, the body.
func seal(magic uint32, format uint16, body []byte) []byte {
	out := make([]byte, 0, len(body)+12)
	out = binary.LittleEndian.AppendUint32(out, magic)
	out = appendUint16(out, format)
	out = appendUint16(out, 0)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	return append(out, body...)
}

// unseal returns the body of what seal framed, ok=false unless the
// magic, the format, the reserved word and the checksum all hold: a blob
// of another format is refused whole.
func unseal(data []byte, magic uint32, format uint16) ([]byte, bool) {
	if len(data) < 12 || binary.LittleEndian.Uint32(data) != magic ||
		binary.LittleEndian.Uint16(data[4:]) != format || binary.LittleEndian.Uint16(data[6:]) != 0 {
		return nil, false
	}
	body := data[12:]
	return body, crc32.ChecksumIEEE(body) == binary.LittleEndian.Uint32(data[8:])
}

// ErrBadCheckpoint reports a checkpoint blob that failed structural or
// checksum validation. Unlike a torn WAL tail — which is expected
// after a crash and skipped silently — a corrupt checkpoint has no
// usable prefix, so decoding fails loudly.
var ErrBadCheckpoint = errcode.Sentinel("wal.checkpoint_corrupt", "wal: corrupt or truncated checkpoint")

// Encode serializes the checkpoint. Maps are emitted in sorted key
// order so encoding is deterministic.
func (c *Checkpoint) Encode() []byte {
	var body []byte
	body = binary.LittleEndian.AppendUint64(body, c.Epoch)
	body = binary.LittleEndian.AppendUint64(body, c.WALSeq)
	body = binary.LittleEndian.AppendUint64(body, c.Clock)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(c.Flows)))
	for i := range c.Flows {
		body = appendFlowEntry(body, &c.Flows[i])
	}
	body = binary.LittleEndian.AppendUint32(body, uint32(len(c.Rules)))
	for i := range c.Rules {
		body = appendRuleImage(body, &c.Rules[i])
	}
	names := make([]string, 0, len(c.NFState))
	for name := range c.NFState {
		names = append(names, name)
	}
	sort.Strings(names)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(names)))
	for _, name := range names {
		body = appendString(body, name)
		blob := c.NFState[name]
		body = binary.LittleEndian.AppendUint32(body, uint32(len(blob)))
		body = append(body, blob...)
	}
	return seal(checkpointMagic, checkpointFormat, body)
}

// DecodeCheckpoint parses an encoded checkpoint. It accepts only what
// Encode writes — NF state blobs in strictly ascending name order, flags
// of 0 or 1 — so an accepted blob re-encodes to itself, and sizes nothing
// by a count before the bytes it counts are there.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	body, ok := unseal(data, checkpointMagic, checkpointFormat)
	if !ok {
		return nil, ErrBadCheckpoint
	}
	rd := &byteReader{b: body, ok: true}
	c := &Checkpoint{}
	c.Epoch = rd.u64()
	c.WALSeq = rd.u64()
	c.Clock = rd.u64()
	nf := int(rd.u32())
	for i := 0; i < nf && rd.ok; i++ {
		c.Flows = append(c.Flows, rd.flowEntry())
	}
	nr := int(rd.u32())
	for i := 0; i < nr && rd.ok; i++ {
		im, rest, ok := decodeRuleImage(rd.b)
		if !ok {
			return nil, ErrBadCheckpoint
		}
		rd.b = rest
		c.Rules = append(c.Rules, *im)
	}
	ns := int(rd.u32())
	for i, last := 0, ""; i < ns && rd.ok; i++ {
		name := rd.str()
		blobLen := int(rd.u32())
		if !rd.ok || len(rd.b) < blobLen || (i > 0 && name <= last) {
			return nil, ErrBadCheckpoint
		}
		if c.NFState == nil {
			c.NFState = make(map[string][]byte)
		}
		c.NFState[name], last = append([]byte(nil), rd.b[:blobLen]...), name
		rd.b = rd.b[blobLen:]
	}
	if !rd.ok || len(rd.b) != 0 {
		return nil, ErrBadCheckpoint
	}
	return c, nil
}
