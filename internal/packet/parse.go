package packet

import (
	"encoding/binary"
	"fmt"
)

// Parse walks the frame and records header offsets. It accepts
// Ethernet (optionally 802.1Q-tagged, possibly stacked), IPv4 without
// options, zero or more AH headers, and a TCP or UDP transport header.
//
// Parse is the functional counterpart of the parse step every NF in an
// unconsolidated chain repeats (redundancy R1 in the paper, §II-A);
// cycle accounting for it lives in the callers. A failing parse leaves
// the descriptor as it was.
func (p *Packet) Parse() error {
	if p.dropped {
		return ErrDropped
	}
	data := p.data
	if len(data) < EthHeaderLen {
		return fmt.Errorf("%w: %d bytes, need %d for ethernet", ErrTruncated, len(data), EthHeaderLen)
	}

	// L2: Ethernet plus any stack of 802.1Q tags.
	off := 12 // EtherType position
	vlans := 0
	etherType := binary.BigEndian.Uint16(data[off : off+2])
	for etherType == EtherTypeVLAN {
		if len(data) < off+2+VLANTagLen {
			return fmt.Errorf("%w: truncated VLAN tag", ErrTruncated)
		}
		vlans++
		off += VLANTagLen
		etherType = binary.BigEndian.Uint16(data[off : off+2])
	}
	if etherType != EtherTypeIPv4 {
		return fmt.Errorf("%w: ethertype 0x%04x", ErrUnsupported, etherType)
	}
	ipOff := off + 2

	// L3: IPv4, no options.
	if len(data) < ipOff+IPv4HeaderLen {
		return fmt.Errorf("%w: %d bytes, need %d for ipv4", ErrTruncated, len(data), ipOff+IPv4HeaderLen)
	}
	vihl := data[ipOff]
	if vihl>>4 != 4 {
		return fmt.Errorf("%w: ip version %d", ErrUnsupported, vihl>>4)
	}
	ihl := int(vihl&0x0f) * 4
	if ihl != IPv4HeaderLen {
		return fmt.Errorf("%w: ipv4 options (ihl=%d)", ErrUnsupported, ihl)
	}
	totLen := int(binary.BigEndian.Uint16(data[ipOff+2 : ipOff+4]))
	if ipOff+totLen > len(data) || totLen < IPv4HeaderLen {
		return fmt.Errorf("%w: ip total length %d exceeds frame", ErrTruncated, totLen)
	}

	// AH stack, then transport.
	proto := data[ipOff+9]
	off = ipOff + IPv4HeaderLen
	ahs := 0
	for proto == ProtoAH {
		if len(data) < off+AHHeaderLen {
			return fmt.Errorf("%w: truncated AH header", ErrTruncated)
		}
		ahs++
		proto = data[off] // AH next-header field
		off += AHHeaderLen
	}
	var payOff int
	switch proto {
	case ProtoTCP:
		if len(data) < off+TCPHeaderLen {
			return fmt.Errorf("%w: truncated TCP header", ErrTruncated)
		}
		dataOff := int(data[off+12]>>4) * 4
		if dataOff < TCPHeaderLen || len(data) < off+dataOff {
			return fmt.Errorf("%w: bad TCP data offset %d", ErrTruncated, dataOff)
		}
		payOff = off + dataOff
	case ProtoUDP:
		if len(data) < off+UDPHeaderLen {
			return fmt.Errorf("%w: truncated UDP header", ErrTruncated)
		}
		payOff = off + UDPHeaderLen
	default:
		return fmt.Errorf("%w: ip protocol %d", ErrUnsupported, proto)
	}
	end := ipOff + totLen
	if payOff > end {
		return fmt.Errorf("%w: ip total length %d cuts the transport header", ErrTruncated, totLen)
	}

	// Every check passed: store field by field. A Headers built on the
	// stack and copied whole would be reloaded in 16-byte halves of its
	// 8-byte stores, which the store buffer cannot forward (DESIGN §16,
	// "Stores in place").
	h := &p.hdr
	h.L2Len, h.VLANs, h.IPOff, h.AHCount = ipOff, vlans, ipOff, ahs
	h.L4Off, h.L4Proto, h.PayloadOff, h.End = off, proto, payOff, end
	p.parsed = true
	return nil
}

// FiveTuple is the canonical flow key: addresses, ports and protocol.
type FiveTuple struct {
	SrcIP   [4]byte
	DstIP   [4]byte
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// String renders the tuple in src -> dst form.
func (ft FiveTuple) String() string {
	return fmt.Sprintf("%d.%d.%d.%d:%d->%d.%d.%d.%d:%d/%d",
		ft.SrcIP[0], ft.SrcIP[1], ft.SrcIP[2], ft.SrcIP[3], ft.SrcPort,
		ft.DstIP[0], ft.DstIP[1], ft.DstIP[2], ft.DstIP[3], ft.DstPort, ft.Proto)
}

// Reverse returns the tuple of the opposite direction of the same
// connection.
func (ft FiveTuple) Reverse() FiveTuple {
	return FiveTuple{
		SrcIP: ft.DstIP, DstIP: ft.SrcIP,
		SrcPort: ft.DstPort, DstPort: ft.SrcPort,
		Proto: ft.Proto,
	}
}

// FiveTuple extracts the flow key from a parsed packet.
func (p *Packet) FiveTuple() (FiveTuple, error) {
	if !p.parsed {
		return FiveTuple{}, ErrNotParsed
	}
	var ft FiveTuple
	ip := p.hdr.IPOff
	copy(ft.SrcIP[:], p.data[ip+12:ip+16])
	copy(ft.DstIP[:], p.data[ip+16:ip+20])
	l4 := p.hdr.L4Off
	ft.SrcPort = binary.BigEndian.Uint16(p.data[l4 : l4+2])
	ft.DstPort = binary.BigEndian.Uint16(p.data[l4+2 : l4+4])
	ft.Proto = p.hdr.L4Proto
	return ft, nil
}

// FlowKey returns the five-tuple packed into two words — the source
// and destination addresses in hi, the ports and protocol in lo — for
// key comparisons on hot paths that would otherwise build and compare
// the 13-byte FiveTuple struct per packet. Two packets have equal
// (hi, lo) keys exactly when their FiveTuples are equal. ok is false
// for unparsed packets.
func (p *Packet) FlowKey() (hi, lo uint64, ok bool) {
	if !p.parsed {
		return 0, 0, false
	}
	ip := p.hdr.IPOff
	l4 := p.hdr.L4Off
	hi = binary.BigEndian.Uint64(p.data[ip+12 : ip+20])
	lo = uint64(binary.BigEndian.Uint32(p.data[l4:l4+4]))<<8 | uint64(p.hdr.L4Proto)
	return hi, lo, true
}

// Key packs the tuple into FlowKey's two words, so a tuple built by hand
// and one parsed off the wire name a flow by the same key.
func (ft FiveTuple) Key() (hi, lo uint64) {
	hi = uint64(binary.BigEndian.Uint32(ft.SrcIP[:]))<<32 | uint64(binary.BigEndian.Uint32(ft.DstIP[:]))
	lo = uint64(ft.SrcPort)<<24 | uint64(ft.DstPort)<<8 | uint64(ft.Proto)
	return hi, lo
}

// KeyTuple is the inverse of FiveTuple.Key.
func KeyTuple(hi, lo uint64) FiveTuple {
	var ft FiveTuple
	binary.BigEndian.PutUint32(ft.SrcIP[:], uint32(hi>>32))
	binary.BigEndian.PutUint32(ft.DstIP[:], uint32(hi))
	ft.SrcPort, ft.DstPort, ft.Proto = uint16(lo>>24), uint16(lo>>8), uint8(lo)
	return ft
}

// TCP flag bits in the 13th byte of the TCP header.
const (
	TCPFlagFIN = 1 << 0
	TCPFlagSYN = 1 << 1
	TCPFlagRST = 1 << 2
	TCPFlagPSH = 1 << 3
	TCPFlagACK = 1 << 4
)

// TCPFlags returns the TCP flag byte. The boolean is false for non-TCP
// or unparsed packets.
func (p *Packet) TCPFlags() (uint8, bool) {
	if !p.parsed || p.hdr.L4Proto != ProtoTCP {
		return 0, false
	}
	return p.data[p.hdr.L4Off+13], true
}

// SetTCPFlags overwrites the TCP flag byte. It returns ErrNoHeader for
// non-TCP packets.
func (p *Packet) SetTCPFlags(flags uint8) error {
	if !p.parsed {
		return ErrNotParsed
	}
	if p.hdr.L4Proto != ProtoTCP {
		return ErrNoHeader
	}
	p.data[p.hdr.L4Off+13] = flags
	return nil
}
