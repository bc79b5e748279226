package packet

import "encoding/binary"

// onesComplementSum adds data to sum, the running one's-complement sum
// of 16-bit big-endian words the IPv4, TCP and UDP checksums are built
// on; foldChecksum finishes it. One's-complement addition is
// associative and 2^16 = 1 in it, so the sum of a wider big-endian
// word's halves is the sum of its 16-bit words: the kernel adds the two
// 32-bit halves of eight bytes at a time into a 64-bit accumulator —
// which 2^31 such words cannot overflow — and narrows once at the end.
func onesComplementSum(sum uint32, data []byte) uint32 {
	acc := uint64(sum)
	for len(data) >= 32 {
		w0 := binary.BigEndian.Uint64(data[0:8])
		w1 := binary.BigEndian.Uint64(data[8:16])
		w2 := binary.BigEndian.Uint64(data[16:24])
		w3 := binary.BigEndian.Uint64(data[24:32])
		acc += w0>>32 + w0&0xffffffff + w1>>32 + w1&0xffffffff +
			w2>>32 + w2&0xffffffff + w3>>32 + w3&0xffffffff
		data = data[32:]
	}
	for len(data) >= 8 {
		w := binary.BigEndian.Uint64(data[0:8])
		acc += w>>32 + w&0xffffffff
		data = data[8:]
	}
	if len(data) >= 4 {
		acc += uint64(binary.BigEndian.Uint32(data[0:4]))
		data = data[4:]
	}
	if len(data) >= 2 {
		acc += uint64(binary.BigEndian.Uint16(data[0:2]))
		data = data[2:]
	}
	if len(data) == 1 {
		// An odd trailing byte is the high half of a zero-padded word.
		acc += uint64(data[0]) << 8
	}
	acc = acc>>32 + acc&0xffffffff
	acc = acc>>32 + acc&0xffffffff
	return uint32(acc)
}

// foldChecksum folds the carries of sum back in twice, which leaves any
// 32-bit sum within 16 bits (the first fold leaves at most 0x1fffe),
// and complements it.
func foldChecksum(sum uint32) uint16 {
	sum = sum&0xffff + sum>>16
	sum = sum&0xffff + sum>>16
	return ^uint16(sum)
}

// Checksum returns the Internet checksum over data (used directly by
// tests as a reference).
func Checksum(data []byte) uint16 {
	return foldChecksum(onesComplementSum(0, data))
}

// FinalizeChecksums recomputes the IPv4 header checksum and the
// transport checksum from the frame's bytes. It is how Build finishes a
// synthesized frame, and the reference the tests hold the header
// mutators to; no per-packet path calls it — Set, DecrementTTL and the
// AH encap/decap keep the checksums right by delta (PatchChecksums), so
// a rewrite costs the words it overwrites, not the payload, and a
// checksum that arrived wrong leaves wrong.
func (p *Packet) FinalizeChecksums() error {
	if !p.parsed {
		return ErrNotParsed
	}
	ip := p.hdr.IPOff
	// IPv4 header checksum: zero the field, sum the header.
	p.data[ip+10], p.data[ip+11] = 0, 0
	ipSum := Checksum(p.data[ip : ip+IPv4HeaderLen])
	binary.BigEndian.PutUint16(p.data[ip+10:ip+12], ipSum)

	// Transport checksum with IPv4 pseudo-header. The pseudo-header
	// protocol/length cover the L4 segment; AH headers sit between IP
	// and L4 and are excluded (they carry no checksum here).
	l4 := p.hdr.L4Off
	pseudo := p.pseudoHeader()

	var ckOff int
	switch p.hdr.L4Proto {
	case ProtoTCP:
		ckOff = l4 + 16
	case ProtoUDP:
		ckOff = l4 + 6
	default:
		return nil
	}
	p.data[ckOff], p.data[ckOff+1] = 0, 0
	sum := onesComplementSum(0, pseudo[:])
	sum = onesComplementSum(sum, p.data[l4:p.hdr.End])
	ck := foldChecksum(sum)
	if p.hdr.L4Proto == ProtoUDP && ck == 0 {
		ck = 0xffff // RFC 768: transmitted as all ones
	}
	binary.BigEndian.PutUint16(p.data[ckOff:ckOff+2], ck)
	return nil
}

// VerifyChecksums reports whether the IPv4 and transport checksums are
// currently valid. Used by tests to assert that consolidated output is
// wire-correct.
func (p *Packet) VerifyChecksums() bool {
	if !p.parsed {
		return false
	}
	ip := p.hdr.IPOff
	if Checksum(p.data[ip:ip+IPv4HeaderLen]) != 0 {
		return false
	}
	pseudo := p.pseudoHeader()
	sum := onesComplementSum(0, pseudo[:])
	sum = onesComplementSum(sum, p.data[p.hdr.L4Off:p.hdr.End])
	return foldChecksum(sum) == 0
}

// pseudoHeader builds the IPv4 pseudo-header of the transport checksum.
// The segment it (and the checksum) covers ends with the IPv4 datagram,
// not with the frame: bytes past Headers.End are link-layer padding.
func (p *Packet) pseudoHeader() (pseudo [12]byte) {
	ip := p.hdr.IPOff
	copy(pseudo[0:8], p.data[ip+12:ip+20])
	pseudo[9] = p.hdr.L4Proto
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(p.hdr.End-p.hdr.L4Off))
	return pseudo
}

// Sums is the checksum correction a run of header rewrites owes: per
// checksum, the one's-complement sum of ~m + m' over the 16-bit words
// overwritten (RFC 1624, eqn. 3), not yet folded into the checksum
// field. The zero value owes nothing. Corrections add, so one Sums may
// collect any number of SetDeferred calls — in any order, across an
// encap or decap — before a single PatchChecksums settles it.
type Sums struct{ IP, L4 uint32 }

// PatchChecksums settles s: HC' = ~(~HC + s) on the IPv4 header
// checksum and on the TCP or UDP checksum. A checksum that owes
// nothing is not touched; one that owes something comes out in the
// form FinalizeChecksums writes — a one's-complement zero reads 0x0000,
// 0xffff in UDP — because s is then a positive sum and folds into
// 1..0xffff. The patched value so depends only on the old field and
// the sum of the corrections, which is why a patch per field, per NF
// or per consolidated rule all leave the same bytes: those of a full
// recompute when the checksum was right, and a checksum wrong by the
// same amount when it was not. A UDP checksum of zero says the sender
// computed none (RFC 768) and stays zero.
func (p *Packet) PatchChecksums(s Sums) {
	if !p.parsed {
		return
	}
	if s.IP != 0 {
		patchChecksum(p.data[p.hdr.IPOff+10:p.hdr.IPOff+12], s.IP, 0)
	}
	if s.L4 != 0 {
		switch p.hdr.L4Proto {
		case ProtoTCP:
			patchChecksum(p.data[p.hdr.L4Off+16:p.hdr.L4Off+18], s.L4, 0)
		case ProtoUDP:
			if ck := p.data[p.hdr.L4Off+6 : p.hdr.L4Off+8]; ck[0]|ck[1] != 0 {
				patchChecksum(ck, s.L4, 0xffff)
			}
		}
	}
}

// patchChecksum applies the non-zero correction d to the checksum at
// ck[0:2]; zero is what a computed checksum of zero is written as.
func patchChecksum(ck []byte, d uint32, zero uint16) {
	hc := foldChecksum(uint32(^binary.BigEndian.Uint16(ck)) + d)
	if hc == 0 {
		hc = zero
	}
	binary.BigEndian.PutUint16(ck, hc)
}
