package packet

import (
	"encoding/binary"
	"fmt"
)

// HeaderType identifies a header that Encap/Decap actions push or pop.
// It is the unit of the encap/decap stack the Global MAT simulates
// during consolidation (paper §V-B).
type HeaderType int

// Supported encapsulation header types.
const (
	// HeaderAH is the IPsec-style authentication header a VPN NF adds
	// (paper §IV-A1: "VPNs add an Authentication Header (AH) for each
	// packet before forwarding").
	HeaderAH HeaderType = iota + 1
	// HeaderVLAN is an 802.1Q tag, exercising a second, L2-level
	// encapsulation point.
	HeaderVLAN
)

// String returns the header type name.
func (t HeaderType) String() string {
	switch t {
	case HeaderAH:
		return "AH"
	case HeaderVLAN:
		return "VLAN"
	default:
		return fmt.Sprintf("HeaderType(%d)", int(t))
	}
}

// ExtraHeader describes one header to encapsulate: its type plus the
// type-specific parameters.
type ExtraHeader struct {
	// Type selects the header layout.
	Type HeaderType
	// SPI is the security parameter index for HeaderAH.
	SPI uint32
	// Seq is the sequence number for HeaderAH.
	Seq uint32
	// Tag is the VLAN ID (12 bits used) for HeaderVLAN.
	Tag uint16
}

// EncapAH inserts an authentication header between the IPv4 header and
// whatever follows it, updating the IP protocol chain, the total length
// and, for those two words, the IPv4 header checksum (the transport
// checksum's pseudo-header names the L4 protocol and segment length,
// which an AH changes neither of). The packet is re-parsed on success.
func (p *Packet) EncapAH(spi, seq uint32) error {
	if !p.parsed {
		return ErrNotParsed
	}
	ip := p.hdr.IPOff
	insertAt := ip + IPv4HeaderLen
	oldProto := p.data[ip+9]

	p.data = openGap(p.data, insertAt, AHHeaderLen)
	ah := p.data[insertAt : insertAt+AHHeaderLen]
	ah[0] = oldProto
	ah[1] = (AHHeaderLen / 4) - 2 // RFC 4302 payload length encoding
	binary.BigEndian.PutUint32(ah[4:8], spi)
	binary.BigEndian.PutUint32(ah[8:12], seq)
	p.setIPProtoLen(ProtoAH, AHHeaderLen)
	return p.Parse()
}

// DecapAH removes the outermost authentication header. It returns
// ErrNoHeader if the packet has none.
func (p *Packet) DecapAH() error {
	if !p.parsed {
		return ErrNotParsed
	}
	if p.hdr.AHCount == 0 {
		return fmt.Errorf("%w: AH", ErrNoHeader)
	}
	ip := p.hdr.IPOff
	ahOff := ip + IPv4HeaderLen
	inner := p.data[ahOff] // next-header field
	p.data = removeBytes(p.data, ahOff, AHHeaderLen)
	p.setIPProtoLen(inner, -AHHeaderLen)
	return p.Parse()
}

// setIPProtoLen rewrites the IPv4 protocol, grows the total length by
// grow bytes and patches the header checksum for the two words.
func (p *Packet) setIPProtoLen(proto uint8, grow int) {
	ip := p.data[p.hdr.IPOff:]
	totLen := binary.BigEndian.Uint16(ip[2:4])
	// ~m + m' for the length word and for the low half of (TTL, protocol).
	owed := Sums{IP: 2*0xffff - uint32(totLen) - uint32(ip[9]) + uint32(totLen+uint16(grow)) + uint32(proto)}
	binary.BigEndian.PutUint16(ip[2:4], totLen+uint16(grow))
	ip[9] = proto
	p.PatchChecksums(owed)
}

// EncapVLAN pushes an 802.1Q tag directly after the MAC addresses.
func (p *Packet) EncapVLAN(tag uint16) error {
	if !p.parsed {
		return ErrNotParsed
	}
	// The tag occupies the former EtherType position; the original
	// EtherType (and any existing tags) shift right by 4 bytes.
	p.data = openGap(p.data, 12, VLANTagLen)
	binary.BigEndian.PutUint16(p.data[12:14], EtherTypeVLAN)
	binary.BigEndian.PutUint16(p.data[14:16], tag&0x0fff)
	return p.Parse()
}

// DecapVLAN pops the outermost 802.1Q tag.
func (p *Packet) DecapVLAN() error {
	if !p.parsed {
		return ErrNotParsed
	}
	if p.hdr.VLANs == 0 {
		return fmt.Errorf("%w: VLAN", ErrNoHeader)
	}
	p.data = removeBytes(p.data, 12, VLANTagLen)
	return p.Parse()
}

// Encap applies an ExtraHeader description, dispatching on type.
func (p *Packet) Encap(h ExtraHeader) error {
	switch h.Type {
	case HeaderAH:
		return p.EncapAH(h.SPI, h.Seq)
	case HeaderVLAN:
		return p.EncapVLAN(h.Tag)
	default:
		return fmt.Errorf("%w: encap %v", ErrUnsupported, h.Type)
	}
}

// Decap removes the outermost header of the given type.
func (p *Packet) Decap(t HeaderType) error {
	switch t {
	case HeaderAH:
		return p.DecapAH()
	case HeaderVLAN:
		return p.DecapVLAN()
	default:
		return fmt.Errorf("%w: decap %v", ErrUnsupported, t)
	}
}

// OutermostVLAN returns the outermost VLAN tag value, if any.
func (p *Packet) OutermostVLAN() (uint16, bool) {
	if !p.parsed || p.hdr.VLANs == 0 {
		return 0, false
	}
	return binary.BigEndian.Uint16(p.data[14:16]) & 0x0fff, true
}

// OutermostAH returns the SPI and sequence of the outermost AH header,
// if any.
func (p *Packet) OutermostAH() (spi, seq uint32, ok bool) {
	if !p.parsed || p.hdr.AHCount == 0 {
		return 0, 0, false
	}
	off := p.hdr.IPOff + IPv4HeaderLen
	return binary.BigEndian.Uint32(p.data[off+4 : off+8]),
		binary.BigEndian.Uint32(p.data[off+8 : off+12]), true
}

// openGap returns a new frame of data with n zero bytes opened at at, for
// the caller to write a header into.
func openGap(data []byte, at, n int) []byte {
	out := make([]byte, len(data)+n)
	copy(out, data[:at])
	copy(out[at+n:], data[at:])
	return out
}

func removeBytes(data []byte, at, n int) []byte {
	out := make([]byte, 0, len(data)-n)
	out = append(out, data[:at]...)
	out = append(out, data[at+n:]...)
	return out
}
