package mat

import (
	"encoding/binary"
	"fmt"

	"github.com/fastpathnfv/speedybox/internal/packet"
)

// Compiled action programs. A rule's header work is fixed at
// consolidation time, so it compiles once into a flat byte program —
// opcode, then immediate operands — and the per-packet executor is one
// loop over it, with no pointer chasing, where interpreting the rule
// walks three slices and patches the checksums once per field.
// ApplyHeader remains the reference implementation: the executor must
// be byte-identical to it (FuzzProgramExec), and rules without a
// program (hand-built tests, old WAL encodings) fall back to it.
//
// Layout: prog[0] is the format version; the opcodes follow. A
// forward-only rule compiles to just the version byte, so the hot
// common case — no residual header work — executes zero opcodes.
const (
	// progVersion is the program format tag in prog[0]. Bump it when
	// the encoding changes; the executor falls back to ApplyHeader on
	// an unknown version, so stale programs degrade to interpretation
	// instead of misexecuting. 2: no checksum opcode — the executor
	// owes the checksums what its modifies add up to.
	progVersion = 2
)

// Program opcodes. Each is followed by its fixed-size operands.
const (
	// opDrop consumes the packet (terminal; compiled alone).
	opDrop byte = iota + 1
	// opDecap pops the outermost header: operand [1]type.
	opDecap
	// opEncap pushes a header: operands [1]type [4]spi [4]seq [2]tag
	// (big-endian), mirroring packet.ExtraHeader.
	opEncap
	// opModify rewrites a header field: operands [1]field [1]width,
	// then width value bytes. The executor passes the value as a
	// subslice of the program, so no per-packet copy is made, and
	// collects the checksum corrections of all a program's modifies to
	// patch each checksum once, after the last.
	opModify
)

// The programs Consolidate shares among rules without header work and
// among drop rules: a built program is never written.
var (
	forwardProg = []byte{progVersion}
	dropProg    = []byte{progVersion, opDrop}
)

// Compile builds (and attaches) the rule's action program from its
// consolidated header work: restore paths call it on rules decoded from
// a WAL or checkpoint, whose encodings predate the program.
func (r *GlobalRule) Compile() {
	size, _ := programSize(r)
	r.Prog = appendProgram(make([]byte, 0, size), r)
}

// programSize is the length of the rule's program; modsAt is where its
// first modify opcode sits.
func programSize(r *GlobalRule) (size, modsAt int) {
	if r.Drop {
		return len(dropProg), len(dropProg)
	}
	modsAt = 1 + 2*len(r.Stack.Decaps) + 12*len(r.Stack.Encaps)
	size = modsAt
	for _, m := range r.Modifies {
		size += 3 + len(m.Value)
	}
	return size, modsAt
}

// appendProgram encodes the rule's header work onto p in ApplyHeader's
// exact order: decaps, encaps, modifies. Drop rules compile to the lone
// drop opcode (Consolidate already clears their header work).
func appendProgram(p []byte, r *GlobalRule) []byte {
	if r.Drop {
		return append(p, dropProg...)
	}
	p = append(p, progVersion)
	for _, t := range r.Stack.Decaps {
		p = append(p, opDecap, byte(t))
	}
	for _, h := range r.Stack.Encaps {
		var op [11]byte
		op[0] = byte(h.Type)
		binary.BigEndian.PutUint32(op[1:5], h.SPI)
		binary.BigEndian.PutUint32(op[5:9], h.Seq)
		binary.BigEndian.PutUint16(op[9:11], h.Tag)
		p = append(p, opEncap)
		p = append(p, op[:]...)
	}
	for _, m := range r.Modifies {
		p = append(p, opModify, byte(m.Field), byte(len(m.Value)))
		p = append(p, m.Value...)
	}
	return p
}

// ExecHeader performs the consolidated header work by running the
// rule's compiled action program; it is the data path's ApplyHeader.
// A rule without a program (or with one in an unknown format) falls
// back to the interpreted reference. It returns false when the
// verdict is drop.
func (r *GlobalRule) ExecHeader(pkt *packet.Packet) (alive bool, err error) {
	p := r.Prog
	if len(p) == 0 || p[0] != progVersion {
		return r.ApplyHeader(pkt)
	}
	var owed packet.Sums
	for i := 1; i < len(p); {
		switch p[i] {
		case opDrop:
			pkt.Drop()
			return false, nil
		case opDecap:
			if err := pkt.Decap(packet.HeaderType(p[i+1])); err != nil {
				return false, fmt.Errorf("mat: global rule %v: %w", r.FID, err)
			}
			i += 2
		case opEncap:
			h := packet.ExtraHeader{
				Type: packet.HeaderType(p[i+1]),
				SPI:  binary.BigEndian.Uint32(p[i+2 : i+6]),
				Seq:  binary.BigEndian.Uint32(p[i+6 : i+10]),
				Tag:  binary.BigEndian.Uint16(p[i+10 : i+12]),
			}
			if err := pkt.Encap(h); err != nil {
				return false, fmt.Errorf("mat: global rule %v: %w", r.FID, err)
			}
			i += 12
		case opModify:
			f := packet.Field(p[i+1])
			w := int(p[i+2])
			if err := pkt.SetDeferred(f, p[i+3:i+3+w], &owed); err != nil {
				return false, fmt.Errorf("mat: global rule %v: %w", r.FID, err)
			}
			i += 3 + w
		default:
			// Corrupt program: the interpreted path is always correct,
			// once the half-run program's rewrites are paid for.
			pkt.PatchChecksums(owed)
			return r.ApplyHeader(pkt)
		}
	}
	if owed != (packet.Sums{}) {
		pkt.PatchChecksums(owed)
	}
	return true, nil
}
