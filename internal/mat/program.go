package mat

import (
	"encoding/binary"
	"fmt"

	"github.com/fastpathnfv/speedybox/internal/errcode"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// Compiled action programs. A rule's header work is fixed at
// consolidation time, so Consolidate compiles it once into a flat byte
// program — opcode, then immediate operands — and stores nothing else of
// it: the program is the rule's one executable, priced and printed form
// (ExecHeader, HeaderWork, String). What no packet changes is resolved
// when the program is built: where each rewritten field sits in its
// header, which checksums cover it, and what its new value adds to them.
// The reference a program must match is the recording it was built from,
// applied action by action (ApplyNaive, ApplyHeader; FuzzProgramExec).
//
// Layout: prog[0] is the format version. A forward-only rule compiles to
// just the version byte, so the hot common case executes zero opcodes,
// and a drop rule to the version byte and opDrop. Every other program
// carries its length at progLen, its checksum sums at progSums and its
// opcodes from progOps on.
const (
	// progVersion is the program format tag in prog[0]; the executor
	// refuses any other. 3: a modify carries its field's place, and the
	// program what its values add to each checksum.
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

// modOperands is the length of an opModify up to its value; decapLen and
// encapLen are the lengths of the other two.
const modOperands, decapLen, encapLen = 5, 2, 12

// ErrBadProgram reports a program the executor cannot run to its end.
var ErrBadProgram = errcode.Sentinel("mat.bad_program", "mat: malformed action program")

// The programs Consolidate shares among rules without header work and
// among drop rules: a built program is never written.
var (
	forwardProg = []byte{progVersion}
	dropProg    = []byte{progVersion, opDrop}
)

// Compile builds (and attaches) the program of a hand-built rule's
// Modifies and verdict; nil if they do not fit one. A consolidated
// rule's program is built by Consolidate, and its Modifies stay nil.
func (r *GlobalRule) Compile() { r.Prog = compile(nil, r.Drop, nil, nil, r.Modifies) }

// compile encodes a rule's header work into a program, in made's room if
// it fits (made may be nil), in the order the program performs it: pop
// decaps, headers already on the packet (outermost first); push encaps
// (bottom to top) — the residue of §V-B's stack simulation — then
// rewrite fields, the merged modifies, each resolved to its field's
// place. A drop is the shared drop program whatever the work, no work
// the shared forward. It returns nil for work no program may carry: a
// field that is not one, a value of the wrong width, a header type Encap
// and Decap do not know, more than 64 KiB of it.
func compile(made *Room, drop bool, decaps []packet.HeaderType, encaps []packet.ExtraHeader, rewrites []FieldValue) []byte {
	switch {
	case drop:
		return dropProg
	case len(decaps) == 0 && len(encaps) == 0 && len(rewrites) == 0:
		return forwardProg
	}
	var p []byte
	if made != nil {
		p = made.prog[:0]
	}
	p = append(p, make([]byte, progOps)...)
	p[0] = progVersion
	for _, t := range decaps {
		if !knownHeader(t) {
			return nil
		}
		p = append(p, opDecap, byte(t))
	}
	for _, h := range encaps {
		if !knownHeader(h.Type) {
			return nil
		}
		p = binary.BigEndian.AppendUint32(append(p, opEncap, byte(h.Type)), h.SPI)
		p = binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint32(p, h.Seq), h.Tag)
	}
	mods := len(p)
	for _, m := range rewrites {
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
	k := newSums(p[mods:])
	binary.LittleEndian.PutUint16(p[progLen:], uint16(len(p)))
	binary.LittleEndian.PutUint32(p[progSums:], k.IP)
	binary.LittleEndian.PutUint32(p[progSums+4:], k.L4)
	return p
}

// eachOp calls fn with each op of the program p in order and reports
// whether p is one ExecHeader runs to its end (a forward and a drop have
// no op).
func eachOp(p []byte, fn func(op []byte)) bool {
	switch {
	case string(p) == string(forwardProg) || string(p) == string(dropProg):
		return true
	case len(p) <= progOps || p[0] != progVersion || int(binary.LittleEndian.Uint16(p[progLen:])) != len(p):
		return false
	}
	for o := p[progOps:]; len(o) > 0; {
		n := 0
		switch {
		case o[0] == opDecap:
			n = decapLen
		case o[0] == opEncap:
			n = encapLen
		case o[0] == opModify && len(o) >= modOperands:
			n = modOperands + int(o[3])
		}
		if n == 0 || n > len(o) {
			return false
		}
		fn(o[:n:n])
		o = o[n:]
	}
	return true
}

// HeaderWork counts the header ops of the rule's program for the cost
// model: field rewrites, residual decaps and residual encaps. Any of them
// costs one checksum refresh.
func (r *GlobalRule) HeaderWork() (modifies, decaps, encaps int) {
	var n [opModify + 1]int
	eachOp(r.Prog, func(op []byte) { n[op[0]]++ })
	return n[opModify], n[opDecap], n[opEncap]
}

// HeaderActions disassembles the rule's program into the header actions
// it performs, in order: a lone drop, or its residual decaps, its encaps
// and its merged modifies, whose values alias the program — none for a
// forward. ok is false for a program ExecHeader would refuse.
func (r *GlobalRule) HeaderActions() (acts []HeaderAction, ok bool) {
	if string(r.Prog) == string(dropProg) {
		return []HeaderAction{Drop()}, true
	}
	valid := true
	ok = eachOp(r.Prog, func(op []byte) {
		a := Decap(packet.HeaderType(op[1]))
		switch op[0] {
		case opEncap:
			a = Encap(header(op))
		case opModify:
			f, _ := packet.FieldAt(placeAt(op))
			a = HeaderAction{Kind: ActionModify, Field: f, Value: op[modOperands:]}
		}
		valid = valid && a.Validate() == nil
		acts = append(acts, a)
	})
	if !ok || !valid {
		return nil, false
	}
	return acts, true
}

// header decodes the header the opEncap at op[:encapLen] pushes.
func header(op []byte) packet.ExtraHeader {
	return packet.ExtraHeader{
		Type: packet.HeaderType(op[1]),
		SPI:  binary.BigEndian.Uint32(op[2:6]),
		Seq:  binary.BigEndian.Uint32(op[6:10]),
		Tag:  binary.BigEndian.Uint16(op[10:12]),
	}
}

// knownHeader reports whether Encap and Decap know the header type.
func knownHeader(t packet.HeaderType) bool {
	return t == packet.HeaderAH || t == packet.HeaderVLAN
}

// newSums is K for the well-formed modify ops in code — what writing
// their values adds to each checksum.
func newSums(code []byte) (k packet.Sums) {
	for i := 0; i < len(code); {
		pl := placeAt(code[i:])
		end := i + modOperands + int(pl.Size)
		s := 0xffff*((uint32(pl.Size)+1)/2) + wordSum(code[i+modOperands:end], pl.Rel)
		k.IP += s & -uint32(pl.Sums&packet.SumIP)
		k.L4 += s & -uint32((pl.Sums&packet.SumL4)>>1)
		i = end
	}
	return k
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

// ExecHeader performs the rule's header work by running its program to
// its end; it returns false when the verdict is drop. A program the
// executor cannot run to its end — none, an unknown version or opcode, an
// operand out of range, a program cut short — is ErrBadProgram, with the
// packet's state unspecified, as after any other failed action.
func (r *GlobalRule) ExecHeader(pkt *packet.Packet) (alive bool, err error) {
	p := r.Prog
	switch {
	case len(p) == 1 && p[0] == progVersion:
		return true, nil
	case len(p) == 2 && p[0] == progVersion && p[1] == opDrop:
		pkt.Drop()
		return false, nil
	case len(p) <= progOps || p[0] != progVersion || int(binary.LittleEndian.Uint16(p[progLen:])) != len(p):
		return false, fmt.Errorf("mat: global rule %v: %w", r.FID, ErrBadProgram)
	}
	i := progOps
	for i < len(p) && p[i] != opModify {
		var err error
		switch {
		case p[i] == opDecap && i+decapLen <= len(p) && knownHeader(packet.HeaderType(p[i+1])):
			err = pkt.Decap(packet.HeaderType(p[i+1]))
			i += decapLen
		case p[i] == opEncap && i+encapLen <= len(p) && knownHeader(packet.HeaderType(p[i+1])):
			err = pkt.Encap(header(p[i : i+encapLen]))
			i += encapLen
		default:
			err = ErrBadProgram
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
		return false, fmt.Errorf("mat: global rule %v: %w", r.FID, packet.ErrNotParsed)
	}
	bases := [...]int{packet.BaseL2: 0, packet.BaseIP: ip, packet.BaseL4: l4}
	data := pkt.Data()
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
	if i != len(p) {
		return false, fmt.Errorf("mat: global rule %v: %w", r.FID, ErrBadProgram)
	}
	pkt.PatchChecksums(packet.Sums{
		IP: binary.LittleEndian.Uint32(p[progSums:]) - old.IP,
		L4: binary.LittleEndian.Uint32(p[progSums+4:]) - old.L4,
	})
	return true, nil
}
