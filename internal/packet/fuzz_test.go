package packet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickParseNeverPanics feeds arbitrary byte soup to the parser:
// it must return an error or a consistent parse, never panic or read
// out of bounds (the race/bounds checking of `go test` enforces the
// latter).
func TestQuickParseNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		p := New(data)
		if err := p.Parse(); err != nil {
			return true
		}
		// A successful parse must yield in-bounds offsets and a
		// usable 5-tuple.
		h, ok := p.Headers()
		if !ok {
			return false
		}
		if h.PayloadOff > len(data) || h.L4Off > h.PayloadOff || h.IPOff > h.L4Off {
			return false
		}
		_, err := p.FiveTuple()
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// FuzzParse holds Parse to what its callers rely on, for any bytes: it
// never panics, and a frame it accepts has its headers in order and in
// bounds — the Ethernet header and tags, then the IPv4 header and any AH
// headers, then a TCP header of at least 20 bytes or a UDP header of 8,
// all inside the datagram, which is inside the frame — so that every
// field's place is in bounds, as a compiled rewrite assumes; and its
// packed flow key unpacks to its five-tuple.
func FuzzParse(f *testing.F) {
	tcp := MustBuild(Spec{SrcIP: IP4(10, 0, 0, 1), DstIP: IP4(10, 0, 0, 2), SrcPort: 1234, DstPort: 80, Payload: []byte("seed")})
	udp := MustBuild(Spec{SrcIP: IP4(10, 0, 0, 1), DstIP: IP4(10, 0, 0, 2), SrcPort: 53, DstPort: 5353, Proto: ProtoUDP})
	tunnelled := udp.Clone()
	for _, step := range []func() error{
		func() error { return tunnelled.EncapVLAN(7) },
		func() error { return tunnelled.EncapVLAN(8) },
		func() error { return tunnelled.EncapAH(9, 1) },
	} {
		if err := step(); err != nil {
			f.Fatal(err)
		}
	}
	for _, frame := range [][]byte{
		tcp.Data(), udp.Data(), tunnelled.Data(),
		append(bytes.Clone(tcp.Data()), 0xde, 0xad), // padded
		tcp.Data()[:40], tunnelled.Data()[:50], // cut short
	} {
		f.Add(bytes.Clone(frame))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := New(data)
		if p.Parse() != nil {
			return
		}
		h, ok := p.Headers()
		if !ok {
			t.Fatal("accepted frame reads as unparsed")
		}
		l4 := UDPHeaderLen
		if h.L4Proto == ProtoTCP {
			l4 = TCPHeaderLen
		}
		if h.IPOff != EthHeaderLen+VLANTagLen*h.VLANs || h.L4Off != h.IPOff+IPv4HeaderLen+AHHeaderLen*h.AHCount ||
			h.L4Off+l4 > h.PayloadOff || h.PayloadOff > h.End || h.End > len(data) {
			t.Fatalf("headers out of order or bounds in a %d-byte frame: %+v", len(data), h)
		}
		if h.L4Proto == ProtoTCP && int(data[h.L4Off+12]>>4)*4 != h.PayloadOff-h.L4Off {
			t.Fatalf("TCP data offset %d, payload at %d of the segment", data[h.L4Off+12]>>4*4, h.PayloadOff-h.L4Off)
		}
		ip, l4off, _ := p.Bases()
		for field := FieldSrcMAC; field <= FieldDstPort; field++ {
			pl, _ := field.Place()
			at := [...]int{BaseL2: 0, BaseIP: ip, BaseL4: l4off}[pl.Base] + int(pl.Rel)
			if !pl.Within() || at+int(pl.Size) > h.End {
				t.Fatalf("%v at %d+%d, past the datagram's end %d", field, at, pl.Size, h.End)
			}
		}
		hi, lo, ok := p.FlowKey()
		ft, err := p.FiveTuple()
		if !ok || err != nil || KeyTuple(hi, lo) != ft {
			t.Fatalf("flow key (%x, %x, %v) unpacks to %v, five-tuple %v (%v)", hi, lo, ok, KeyTuple(hi, lo), ft, err)
		}
	})
}

// TestQuickParseMutatedValidFrames takes valid frames and flips random
// bytes: parsing must stay panic-free and any successful parse must
// stay self-consistent.
func TestQuickParseMutatedValidFrames(t *testing.T) {
	base := MustBuild(Spec{
		SrcIP: IP4(10, 0, 0, 1), DstIP: IP4(10, 0, 0, 2),
		SrcPort: 1234, DstPort: 80, Proto: ProtoTCP,
		Payload: []byte("payload for mutation"),
	}).Data()

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, len(base))
		copy(data, base)
		for flips := rng.Intn(8); flips > 0; flips-- {
			data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
		}
		// Occasionally truncate too.
		if rng.Intn(3) == 0 {
			data = data[:rng.Intn(len(data)+1)]
		}
		p := New(data)
		if err := p.Parse(); err != nil {
			return true
		}
		h, _ := p.Headers()
		return h.PayloadOff <= len(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickFinalizeChecksumsAfterMutation: finalize must succeed on
// any successfully parsed frame and leave it verifiable.
func TestQuickFinalizeAlwaysVerifies(t *testing.T) {
	f := func(payload []byte, dip [4]byte, dport uint16) bool {
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		p, err := Build(Spec{
			SrcIP: IP4(1, 2, 3, 4), DstIP: dip,
			SrcPort: 9999, DstPort: dport, Proto: ProtoUDP,
			Payload: payload,
		})
		if err != nil {
			return false
		}
		if err := p.Set(FieldDstIP, []byte{5, 6, 7, 8}); err != nil {
			return false
		}
		if err := p.FinalizeChecksums(); err != nil {
			return false
		}
		return p.VerifyChecksums()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// checkIncremental is the differential property of the header mutators:
// data decodes into a checksum-correct frame — TCP or UDP, any payload
// length, 0-2 VLAN tags, 0-2 AH, padded or not — and a run of Set on
// any field, DecrementTTL, EncapAH and DecapAH. After every step the
// frame must equal, byte for byte, a clone of it finished with
// FinalizeChecksums: patching by delta and summing the segment afresh
// are the same function of a frame whose checksums were right.
func checkIncremental(t testing.TB, data []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	shape := next()
	spec := Spec{
		SrcIP: IP4(next(), next(), next(), next()), DstIP: IP4(next(), next(), next(), next()),
		SrcPort: uint16(next())<<8 | uint16(next()), DstPort: uint16(next())<<8 | uint16(next()),
		Proto: ProtoTCP, TTL: next(), TCPFlags: TCPFlagACK,
		Payload: make([]byte, next()),
	}
	if shape&1 != 0 {
		spec.Proto = ProtoUDP
	}
	for i := range spec.Payload {
		spec.Payload[i] = byte(i)*31 + shape
	}
	p, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < int(shape>>1)%3; i++ {
		if err := p.EncapVLAN(uint16(i) + 100); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < int(shape>>3)%3; i++ {
		if err := p.EncapAH(uint32(shape), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if shape&0x20 != 0 {
		p = New(append(p.Data(), 0xde, 0xad, 0xbe, 0xef, 0x01)[:p.Len()+1+int(shape>>6)])
		if err := p.Parse(); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step string) {
		t.Helper()
		ref := p.Clone()
		if err := ref.FinalizeChecksums(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p.Data(), ref.Data()) {
			t.Fatalf("after %s:\n patched   % x\n recompute % x", step, p.Data(), ref.Data())
		}
	}
	check("building the frame")
	for steps := 0; len(data) > 0 && steps < 64; steps++ {
		op := next() % 12
		switch {
		case op < 8:
			f := Field(op) + FieldSrcMAC
			v := make([]byte, f.Size())
			for i := range v {
				v[i] = next()
			}
			if err := p.Set(f, v); err != nil {
				t.Fatal(err)
			}
			check("Set " + f.String())
		case op == 8:
			// A word of all ones rewritten to all zeros: m = -0, m' = +0,
			// a correction of zero.
			f := Field(next()%6) + FieldSrcIP
			for _, b := range []byte{0xff, 0x00} {
				if err := p.Set(f, bytes.Repeat([]byte{b}, f.Size())); err != nil {
					t.Fatal(err)
				}
				check("Set " + f.String() + " to all ones, then zeros")
			}
		case op == 9:
			if _, err := p.DecrementTTL(); err != nil {
				t.Fatal(err)
			}
			check("DecrementTTL")
		case op == 10:
			if h, _ := p.Headers(); h.AHCount < 4 {
				if err := p.EncapAH(uint32(next()), uint32(steps)); err != nil {
					t.Fatal(err)
				}
				check("EncapAH")
			}
		default:
			before := bytes.Clone(p.Data())
			if err := p.DecapAH(); err != nil && !bytes.Equal(before, p.Data()) {
				t.Fatalf("failed DecapAH (%v) changed the frame", err)
			}
			check("DecapAH")
		}
	}
}

// incrementalSeeds: a TCP frame through every mutator, a padded UDP
// frame with an odd payload under two VLAN tags and two AH, and both
// halves of the 1-byte fields' words driven to all ones and back.
var incrementalSeeds = [][]byte{
	{0, 10, 0, 0, 1, 10, 0, 0, 2, 4, 87, 0, 80, 64, 19, 2, 198, 51, 100, 1, 6, 0x9c, 0x40, 3, 192, 168, 1, 10, 9, 10, 7, 11, 4, 17, 5, 0xb8},
	{0x20 | 0x10 | 4 | 1, 10, 0, 0, 1, 10, 0, 0, 2, 4, 87, 0, 80, 1, 33, 9, 9, 3, 1, 2, 3, 4, 11, 7, 0xff, 0xff, 8, 4, 8, 5},
	{0x41, 255, 255, 255, 255, 0, 0, 0, 0, 255, 255, 0, 0, 255, 0, 8, 0, 8, 1, 8, 2, 8, 3, 8, 4, 8, 5, 4, 255, 5, 255, 4, 0, 5, 0},
}

// TestQuickIncrementalMatchesFinalize runs the property over the seeds
// and over random bytes.
func TestQuickIncrementalMatchesFinalize(t *testing.T) {
	for _, seed := range incrementalSeeds {
		checkIncremental(t, seed)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		data := make([]byte, 14+rng.Intn(80))
		rng.Read(data)
		checkIncremental(t, data)
	}
}

// FuzzIncrementalChecksum is the same property on fuzzer-chosen bytes.
func FuzzIncrementalChecksum(f *testing.F) {
	for _, seed := range incrementalSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkIncremental(t, data) })
}

// TestPatchedChecksumZeroForms pins the two encodings of a computed
// checksum of zero, which random frames reach once in 65535 rewrites: a
// port chosen to bring the segment's sum to zero must leave 0xffff in a
// UDP header and 0x0000 in a TCP header, as FinalizeChecksums does, and
// the next rewrite must leave it right again. A UDP checksum of zero
// means none was computed, and no rewrite computes one.
func TestPatchedChecksumZeroForms(t *testing.T) {
	for _, tc := range []struct {
		proto uint8
		ckOff int
		zero  uint16
	}{{ProtoUDP, 6, 0xffff}, {ProtoTCP, 16, 0x0000}} {
		p := MustBuild(Spec{
			SrcIP: IP4(10, 0, 0, 1), DstIP: IP4(10, 0, 0, 2),
			SrcPort: 4000, DstPort: 80, Proto: tc.proto, Payload: []byte("zero"),
		})
		h, _ := p.Headers()
		ck := p.Data()[h.L4Off+tc.ckOff:]
		// The words but the checksum sum to ~HC; lowering the port by
		// that much (mod 0xffff) brings them to zero.
		sum := uint32(^binary.BigEndian.Uint16(ck))
		port := (uint32(p.DstPort()) + 0xffff - sum) % 0xffff
		for _, port := range []uint16{uint16(port), 8080} {
			if err := p.Set(FieldDstPort, PutUint16(port)); err != nil {
				t.Fatal(err)
			}
			ref := p.Clone()
			if err := ref.FinalizeChecksums(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(p.Data(), ref.Data()) || !p.VerifyChecksums() {
				t.Errorf("proto %d, port %d: checksum % x, recomputed % x", tc.proto, port, ck[:2], ref.Data()[h.L4Off+tc.ckOff:][:2])
			}
			if port != 8080 && binary.BigEndian.Uint16(ck) != tc.zero {
				t.Errorf("proto %d: zero checksum written as % x, want %04x", tc.proto, ck[:2], tc.zero)
			}
		}
	}

	none := MustBuild(Spec{SrcIP: IP4(10, 0, 0, 1), DstIP: IP4(10, 0, 0, 2), SrcPort: 4000, DstPort: 80, Proto: ProtoUDP})
	h, _ := none.Headers()
	ck := none.Data()[h.L4Off+6:][:2]
	ck[0], ck[1] = 0, 0
	for _, f := range []Field{FieldSrcIP, FieldDstPort} {
		if err := none.Set(f, []byte{9, 9, 9, 9}[:f.Size()]); err != nil {
			t.Fatal(err)
		}
	}
	if ck[0]|ck[1] != 0 {
		t.Errorf("UDP checksum none rewritten to % x", ck)
	}
	if Checksum(none.Data()[h.IPOff:h.IPOff+IPv4HeaderLen]) != 0 {
		t.Error("IPv4 header checksum wrong after rewriting a frame without a UDP checksum")
	}
}
