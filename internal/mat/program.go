package mat

import (
	"encoding/binary"
	"fmt"

	"github.com/fastpathnfv/speedybox/internal/packet"
)

// Compiled action programs. A rule's header work is fixed at
// consolidation time, so it compiles once into a flat byte program —
// opcode, then immediate operands — and the per-packet executor is one
// loop over it. What no packet changes is resolved when the program is
// built: where each rewritten field sits in its header, which checksums
// cover it, and what its new value adds to them. ApplyHeader remains the
// reference implementation: the executor must be byte-identical to it
// (FuzzProgramExec), and rules without a program fall back to it.
//
// Layout: prog[0] is the format version. A forward-only rule compiles to
// just the version byte, so the hot common case executes zero opcodes,
// and a drop rule to the version byte and opDrop. Every other program
// carries its length at progLen, its checksum sums at progSums and its
// opcodes from progOps on.
const (
	// progVersion is the program format tag in prog[0]; the executor
	// falls back to ApplyHeader on any other. 3: a modify carries its
	// field's place, and the program what its values add to each checksum.
	progVersion = 3
	// progLen holds the program's length (little-endian), so a program
	// cut short anywhere is refused before it runs.
	progLen = 1
	// progSums holds K for the IPv4 and then the TCP/UDP checksum
	// (little-endian): Σ(0xffff + m') over the 16-bit words m' the
	// program's modifies write there, a 1-byte field as half a word. The
	// executor sums the old words m it overwrites and owes each checksum
	// K − Σm, the integer the per-field corrections 0xffff − m + m' add
	// up to.
	progSums = progLen + 2
	progOps  = progSums + 8
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
	// opModify rewrites a header field: operands [1]base [1]rel [1]size
	// [1]sums — the field's packet.Place — then size value bytes, which
	// the executor writes straight out of the program.
	opModify
)

// modOperands is the length of an opModify up to its value.
const modOperands = 5

// The programs Consolidate shares among rules without header work and
// among drop rules: a built program is never written.
var (
	forwardProg = []byte{progVersion}
	dropProg    = []byte{progVersion, opDrop}
)

// Compile builds (and attaches) the rule's action program from its
// consolidated header work: restore paths call it on rules decoded from
// a WAL or checkpoint, whose encodings do not carry the program.
func (r *GlobalRule) Compile() {
	size, _ := programSize(r)
	r.Prog = compile(make([]byte, 0, size), r)
}

// programSize is the length of the rule's program; modsAt is where its
// first modify opcode sits.
func programSize(r *GlobalRule) (size, modsAt int) {
	switch {
	case r.Drop:
		return len(dropProg), len(dropProg)
	case len(r.Modifies) == 0 && r.Stack.Empty():
		return len(forwardProg), len(forwardProg)
	}
	modsAt = progOps + 2*len(r.Stack.Decaps) + 12*len(r.Stack.Encaps)
	size = modsAt
	for _, m := range r.Modifies {
		size += modOperands + len(m.Value)
	}
	return size, modsAt
}

// compile encodes the rule's header work into the empty storage p in
// ApplyHeader's exact order — decaps, encaps, modifies — each modify
// resolved to its field's place. Drop rules compile to the lone drop
// opcode (Consolidate already clears their header work). It returns nil,
// leaving the rule to the reference, for work no program may carry: a
// field that is not one, a value of the wrong width, a header type
// Encap and Decap do not know, more than 64 KiB of it.
func compile(p []byte, r *GlobalRule) []byte {
	switch {
	case r.Drop:
		return append(p, dropProg...)
	case len(r.Modifies) == 0 && r.Stack.Empty():
		return append(p, forwardProg...)
	}
	p = append(p, make([]byte, progOps)...)
	p[0] = progVersion
	for _, t := range r.Stack.Decaps {
		if !knownHeader(t) {
			return nil
		}
		p = append(p, opDecap, byte(t))
	}
	for _, h := range r.Stack.Encaps {
		if !knownHeader(h.Type) {
			return nil
		}
		var op [12]byte
		op[0], op[1] = opEncap, byte(h.Type)
		binary.BigEndian.PutUint32(op[2:6], h.SPI)
		binary.BigEndian.PutUint32(op[6:10], h.Seq)
		binary.BigEndian.PutUint16(op[10:12], h.Tag)
		p = append(p, op[:]...)
	}
	mods := len(p)
	for _, m := range r.Modifies {
		pl, ok := m.Field.Place()
		if !ok || len(m.Value) != int(pl.Size) {
			return nil
		}
		p = append(p, opModify, pl.Base, pl.Rel, pl.Size, pl.Sums)
		p = append(p, m.Value...)
	}
	if len(p) > 0xffff {
		return nil
	}
	k, _ := newSums(p[mods:])
	binary.LittleEndian.PutUint16(p[progLen:], uint16(len(p)))
	binary.LittleEndian.PutUint32(p[progSums:], k.IP)
	binary.LittleEndian.PutUint32(p[progSums+4:], k.L4)
	return p
}

// knownHeader reports whether Encap and Decap know the header type.
func knownHeader(t packet.HeaderType) bool {
	return t == packet.HeaderAH || t == packet.HeaderVLAN
}

// newSums is K for the well-formed modifies ops — what writing their
// values adds to each checksum — and n is how many there are.
func newSums(ops []byte) (k packet.Sums, n int) {
	for i := 0; i < len(ops); n++ {
		pl := placeAt(ops[i:])
		end := i + modOperands + int(pl.Size)
		s := 0xffff*((uint32(pl.Size)+1)/2) + wordSum(ops[i+modOperands:end], pl.Rel)
		k.IP += s & -uint32(pl.Sums&packet.SumIP)
		k.L4 += s & -uint32((pl.Sums&packet.SumL4)>>1)
		i = end
	}
	return k, n
}

// placeAt decodes the place of the opModify at op[0], which must hold
// its operands.
func placeAt(op []byte) packet.Place {
	return packet.Place{Base: op[1], Rel: op[2], Size: op[3], Sums: op[4]}
}

// wordSum adds up the 16-bit words of a field's bytes b, which sit at
// offset rel of their header: a lone byte is the high half of its word
// at an even offset, the low half at an odd one.
func wordSum(b []byte, rel uint8) (s uint32) {
	if len(b) == 1 {
		return uint32(b[0]) << (8 * (^rel & 1))
	}
	for i := 0; i+1 < len(b); i += 2 {
		s += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	return s
}

// ExecHeader performs the consolidated header work by running the
// rule's compiled action program; it is the data path's ApplyHeader and
// returns false when the verdict is drop. A rule without a program, or
// with one the executor cannot run to its end — an unknown version or
// opcode, an operand out of range, a program cut short — falls back to
// the reference, which does what the program had not once the executor
// has settled the checksums for what it ran.
func (r *GlobalRule) ExecHeader(pkt *packet.Packet) (alive bool, err error) {
	p := r.Prog
	switch {
	case len(p) == 1 && p[0] == progVersion:
		return true, nil
	case len(p) == 2 && p[0] == progVersion && p[1] == opDrop:
		pkt.Drop()
		return false, nil
	case len(p) <= progOps || p[0] != progVersion || int(binary.LittleEndian.Uint16(p[progLen:])) != len(p):
		return r.ApplyHeader(pkt)
	}
	i, done := progOps, 0
	for ; i < len(p) && p[i] != opModify; done++ {
		var err error
		switch {
		case p[i] == opDecap && i+2 <= len(p) && knownHeader(packet.HeaderType(p[i+1])):
			err = pkt.Decap(packet.HeaderType(p[i+1]))
			i += 2
		case p[i] == opEncap && i+12 <= len(p) && knownHeader(packet.HeaderType(p[i+1])):
			err = pkt.Encap(packet.ExtraHeader{
				Type: packet.HeaderType(p[i+1]),
				SPI:  binary.BigEndian.Uint32(p[i+2 : i+6]),
				Seq:  binary.BigEndian.Uint32(p[i+6 : i+10]),
				Tag:  binary.BigEndian.Uint16(p[i+10 : i+12]),
			})
			i += 12
		default:
			return r.applyHeader(pkt, done)
		}
		if err != nil {
			return false, fmt.Errorf("mat: global rule %v: %w", r.FID, err)
		}
	}
	// The modifies: each overwrites its field where the packet's headers
	// now start and adds the old words to the sums of the checksums that
	// cover it. The checks keep a corrupt operand in bounds.
	ip, l4, parsed := pkt.Bases()
	if !parsed {
		return r.applyHeader(pkt, done)
	}
	bases := [...]int{packet.BaseL2: 0, packet.BaseIP: ip, packet.BaseL4: l4}
	data, mods := pkt.Data(), i
	var old packet.Sums
modifies:
	for i+modOperands <= len(p) && p[i] == opModify {
		// Fixed-length slices: their pointers need no masking.
		pl := placeAt(p[i : i+modOperands : i+modOperands])
		v, end := i+modOperands, i+modOperands+int(pl.Size)
		if end > len(p) || !pl.Within() {
			break
		}
		at := bases[pl.Base] + int(pl.Rel)
		var o uint32
		switch pl.Size {
		case 1:
			o = uint32(data[at]) << (8 * (^pl.Rel & 1))
			data[at] = p[v]
		case 2:
			b := data[at : at+2 : at+2]
			o = uint32(binary.BigEndian.Uint16(b))
			binary.BigEndian.PutUint16(b, binary.BigEndian.Uint16(p[v:v+2:v+2]))
		case 4:
			b := data[at : at+4 : at+4]
			w := binary.BigEndian.Uint32(b)
			o = w>>16 + w&0xffff
			binary.BigEndian.PutUint32(b, binary.BigEndian.Uint32(p[v:v+4:v+4]))
		case 6:
			b := data[at : at+6 : at+6]
			o = wordSum(b, pl.Rel)
			copy(b, p[v:end])
		default:
			break modifies
		}
		old.IP += o & -uint32(pl.Sums&packet.SumIP)
		old.L4 += o & -uint32((pl.Sums&packet.SumL4)>>1)
		i = end
	}
	if i == len(p) {
		pkt.PatchChecksums(packet.Sums{
			IP: binary.LittleEndian.Uint32(p[progSums:]) - old.IP,
			L4: binary.LittleEndian.Uint32(p[progSums+4:]) - old.L4,
		})
		return true, nil
	}
	// Stopped short: the modifies that ran owe their own K less their old
	// words, and the reference does the rest.
	k, ran := newSums(p[mods:i])
	pkt.PatchChecksums(packet.Sums{IP: k.IP - old.IP, L4: k.L4 - old.L4})
	return r.applyHeader(pkt, done+ran)
}
