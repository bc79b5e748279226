package packet

import (
	"encoding/binary"
	"fmt"
)

// Field identifies a modifiable packet-header field. The Modify header
// action (paper §IV-A1) is expressed as (Field, value) pairs, and the
// Global MAT consolidates them per §V-B.
type Field int

// The fields the substrate supports. Enum starts at one so that the
// zero value is invalid and accidental zero-initialised actions fail
// loudly.
const (
	// FieldSrcMAC is the 6-byte Ethernet source address.
	FieldSrcMAC Field = iota + 1
	// FieldDstMAC is the 6-byte Ethernet destination address.
	FieldDstMAC
	// FieldSrcIP is the 4-byte IPv4 source address.
	FieldSrcIP
	// FieldDstIP is the 4-byte IPv4 destination address.
	FieldDstIP
	// FieldTTL is the 1-byte IPv4 time-to-live.
	FieldTTL
	// FieldDSCP is the 1-byte IPv4 TOS/DSCP field.
	FieldDSCP
	// FieldSrcPort is the 2-byte transport source port.
	FieldSrcPort
	// FieldDstPort is the 2-byte transport destination port.
	FieldDstPort
)

// fieldNames is indexed by Field for String.
var fieldNames = [...]string{
	FieldSrcMAC:  "SrcMAC",
	FieldDstMAC:  "DstMAC",
	FieldSrcIP:   "SIP",
	FieldDstIP:   "DIP",
	FieldTTL:     "TTL",
	FieldDSCP:    "DSCP",
	FieldSrcPort: "SPort",
	FieldDstPort: "DPort",
}

// String returns the short field name used in the paper's examples
// (e.g. modify(DIP, DPort)).
func (f Field) String() string {
	if f < FieldSrcMAC || int(f) >= len(fieldNames) {
		return fmt.Sprintf("Field(%d)", int(f))
	}
	return fieldNames[f]
}

// A field lives at a fixed offset from the start of one header, and is
// covered by the checksums that header's bytes feed.
const (
	BaseL2 = iota // frame start
	BaseIP        // Headers.IPOff
	BaseL4        // Headers.L4Off

	SumIP = 1 << 0 // the IPv4 header checksum covers the field
	SumL4 = 1 << 1 // the TCP/UDP checksum does (pseudo-header included)
)

// Place is where a field lives: the header it sits in (BaseL2, BaseIP or
// BaseL4), its byte offset within that header, its width, and the
// checksums that cover it (SumIP, SumL4). A field's place does not depend
// on the packet, so a rewrite can be resolved once and run on any frame
// against the header offsets Bases reads off it.
type Place struct{ Base, Rel, Size, Sums uint8 }

// fieldPlaces is indexed by Field.
var fieldPlaces = [...]Place{
	FieldDstMAC:  {BaseL2, 0, 6, 0},
	FieldSrcMAC:  {BaseL2, 6, 6, 0},
	FieldDSCP:    {BaseIP, 1, 1, SumIP},
	FieldTTL:     {BaseIP, 8, 1, SumIP},
	FieldSrcIP:   {BaseIP, 12, 4, SumIP | SumL4},
	FieldDstIP:   {BaseIP, 16, 4, SumIP | SumL4},
	FieldSrcPort: {BaseL4, 0, 2, SumL4},
	FieldDstPort: {BaseL4, 2, 2, SumL4},
}

// Place resolves the field to where it lives; ok is false for an invalid
// field.
func (f Field) Place() (pl Place, ok bool) {
	if f < 0 || int(f) >= len(fieldPlaces) {
		return Place{}, false
	}
	return fieldPlaces[f], fieldPlaces[f].Size != 0
}

// FieldAt is the field whose place is pl, the inverse of Place; ok is
// false if no field lives there.
func FieldAt(pl Place) (f Field, ok bool) {
	for f, fp := range fieldPlaces {
		if fp.Size != 0 && fp == pl {
			return Field(f), true
		}
	}
	return 0, false
}

// Size returns the field width in bytes, or 0 for an invalid field.
func (f Field) Size() int {
	pl, _ := f.Place()
	return int(pl.Size)
}

// Valid reports whether f is one of the defined fields.
func (f Field) Valid() bool { return f.Size() != 0 }

// spans is how much of each header a parsed frame is guaranteed to hold:
// the Ethernet header, the IPv4 header, and the eight bytes a TCP and a
// UDP header both start with.
var spans = [...]int{BaseL2: EthHeaderLen, BaseIP: IPv4HeaderLen, BaseL4: UDPHeaderLen}

// Within reports whether the place names a known header and lies inside
// the part of it Parse guarantees, so that on any parsed frame its bytes
// are in bounds. Every field's place is.
func (pl Place) Within() bool {
	return int(pl.Base) < len(spans) && int(pl.Rel)+int(pl.Size) <= spans[pl.Base]
}

// Bases returns where in the frame the headers a Place names start: the
// IPv4 header (BaseIP) and the transport header (BaseL4); BaseL2 is the
// frame start. ok is false for an unparsed packet.
func (p *Packet) Bases() (ip, l4 int, ok bool) {
	return p.hdr.IPOff, p.hdr.L4Off, p.parsed
}

// fieldOffset returns the field's byte offset within a parsed frame.
func (p *Packet) fieldOffset(f Field) (int, error) {
	if !p.parsed {
		return 0, ErrNotParsed
	}
	pl, ok := f.Place()
	if !ok {
		return 0, fmt.Errorf("packet: invalid field %v", f)
	}
	off := int(pl.Rel)
	switch pl.Base {
	case BaseIP:
		off += p.hdr.IPOff
	case BaseL4:
		off += p.hdr.L4Off
	}
	return off, nil
}

// Get reads a header field into a freshly allocated slice.
func (p *Packet) Get(f Field) ([]byte, error) {
	off, err := p.fieldOffset(f)
	if err != nil {
		return nil, err
	}
	out := make([]byte, f.Size())
	copy(out, p.data[off:off+f.Size()])
	return out, nil
}

// Set overwrites a header field and patches the checksums that cover
// it by delta, so they stay as right or as wrong as they were
// (PatchChecksums). The value length must equal the field size.
func (p *Packet) Set(f Field, value []byte) error {
	var s Sums
	if err := p.SetDeferred(f, value, &s); err != nil {
		return err
	}
	p.PatchChecksums(s)
	return nil
}

// SetDeferred is Set with the checksum patch left to the caller: the
// correction is added to s, and the checksums are stale until
// PatchChecksums(s). A run of rewrites — a consolidated rule's — so
// patches each checksum once (paper §V-B: trailer fields are modified
// at the end of the consolidation).
func (p *Packet) SetDeferred(f Field, value []byte, s *Sums) error {
	if len(value) != f.Size() {
		return fmt.Errorf("packet: field %v needs %d bytes, got %d", f, f.Size(), len(value))
	}
	off, err := p.fieldOffset(f)
	if err != nil {
		return err
	}
	// Each 16-bit word m of the header rewritten to m' owes ~m + m',
	// which is 0xffff - m + m'.
	var d uint32
	switch b := p.data[off : off+len(value)]; len(b) {
	case 4:
		old, new := binary.BigEndian.Uint32(b), binary.BigEndian.Uint32(value)
		binary.BigEndian.PutUint32(b, new)
		d = 2*0xffff - (old>>16 + old&0xffff) + (new>>16 + new&0xffff)
	case 2:
		old, new := binary.BigEndian.Uint16(b), binary.BigEndian.Uint16(value)
		binary.BigEndian.PutUint16(b, new)
		d = 0xffff - uint32(old) + uint32(new)
	case 1:
		// Half a word: the high byte at an even offset, the low at an odd.
		shift := 8 * (^fieldPlaces[f].Rel & 1)
		d = 0xffff - uint32(b[0])<<shift + uint32(value[0])<<shift
		b[0] = value[0]
	default:
		copy(b, value)
	}
	if fieldPlaces[f].Sums&SumIP != 0 {
		s.IP += d
	}
	if fieldPlaces[f].Sums&SumL4 != 0 {
		s.L4 += d
	}
	return nil
}

// SrcIP returns the IPv4 source address of a parsed packet.
func (p *Packet) SrcIP() [4]byte { return p.ip4(12) }

// DstIP returns the IPv4 destination address of a parsed packet.
func (p *Packet) DstIP() [4]byte { return p.ip4(16) }

func (p *Packet) ip4(rel int) [4]byte {
	var a [4]byte
	if p.parsed {
		copy(a[:], p.data[p.hdr.IPOff+rel:p.hdr.IPOff+rel+4])
	}
	return a
}

// SrcPort returns the transport source port of a parsed packet.
func (p *Packet) SrcPort() uint16 {
	if !p.parsed {
		return 0
	}
	return binary.BigEndian.Uint16(p.data[p.hdr.L4Off : p.hdr.L4Off+2])
}

// DstPort returns the transport destination port of a parsed packet.
func (p *Packet) DstPort() uint16 {
	if !p.parsed {
		return 0
	}
	return binary.BigEndian.Uint16(p.data[p.hdr.L4Off+2 : p.hdr.L4Off+4])
}

// TTL returns the IPv4 TTL of a parsed packet.
func (p *Packet) TTL() uint8 {
	if !p.parsed {
		return 0
	}
	return p.data[p.hdr.IPOff+8]
}

// DecrementTTL decreases the TTL by one, saturating at zero, and
// patches the IPv4 header checksum for it. It returns the new value.
func (p *Packet) DecrementTTL() (uint8, error) {
	if !p.parsed {
		return 0, ErrNotParsed
	}
	off := p.hdr.IPOff + 8
	if p.data[off] > 0 {
		p.data[off]--
		// The (TTL, protocol) word fell by 0x0100.
		p.PatchChecksums(Sums{IP: 0xffff - 0x0100})
	}
	return p.data[off], nil
}

// PutUint16 and PutUint32 are conveniences for building field values.
func PutUint16(v uint16) []byte {
	b := make([]byte, 2)
	binary.BigEndian.PutUint16(b, v)
	return b
}

// PutUint32 encodes v as 4 big-endian bytes (e.g. an IPv4 address).
func PutUint32(v uint32) []byte {
	b := make([]byte, 4)
	binary.BigEndian.PutUint32(b, v)
	return b
}
