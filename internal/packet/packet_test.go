package packet

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
	"unsafe"
)

func sampleSpec() Spec {
	return Spec{
		SrcIP: IP4(10, 0, 0, 1), DstIP: IP4(10, 0, 0, 2),
		SrcPort: 40000, DstPort: 80,
		Proto: ProtoTCP, TCPFlags: TCPFlagACK,
		Payload: []byte("hello world"),
	}
}

func TestBuildParseRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		spec Spec
	}{
		{"tcp with payload", sampleSpec()},
		{"tcp empty payload", Spec{SrcIP: IP4(1, 2, 3, 4), DstIP: IP4(5, 6, 7, 8), SrcPort: 1, DstPort: 2, Proto: ProtoTCP}},
		{"udp", Spec{SrcIP: IP4(192, 168, 0, 1), DstIP: IP4(192, 168, 0, 2), SrcPort: 5353, DstPort: 53, Proto: ProtoUDP, Payload: []byte("q")}},
		{"default proto is tcp", Spec{SrcIP: IP4(9, 9, 9, 9), DstIP: IP4(8, 8, 8, 8), SrcPort: 7, DstPort: 8}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p, err := Build(tt.spec)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			ft, err := p.FiveTuple()
			if err != nil {
				t.Fatalf("FiveTuple: %v", err)
			}
			if ft.SrcIP != tt.spec.SrcIP || ft.DstIP != tt.spec.DstIP {
				t.Errorf("addresses = %v->%v, want %v->%v", ft.SrcIP, ft.DstIP, tt.spec.SrcIP, tt.spec.DstIP)
			}
			if ft.SrcPort != tt.spec.SrcPort || ft.DstPort != tt.spec.DstPort {
				t.Errorf("ports = %d->%d, want %d->%d", ft.SrcPort, ft.DstPort, tt.spec.SrcPort, tt.spec.DstPort)
			}
			if !bytes.Equal(p.Payload(), tt.spec.Payload) {
				t.Errorf("payload = %q, want %q", p.Payload(), tt.spec.Payload)
			}
			if !p.VerifyChecksums() {
				t.Error("checksums invalid on freshly built packet")
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name  string
		frame []byte
	}{
		{"empty", nil},
		{"short ethernet", make([]byte, 10)},
		{"non-ip ethertype", func() []byte {
			f := make([]byte, 60)
			binary.BigEndian.PutUint16(f[12:14], 0x0806) // ARP
			return f
		}()},
		{"truncated ipv4", func() []byte {
			f := make([]byte, EthHeaderLen+10)
			binary.BigEndian.PutUint16(f[12:14], EtherTypeIPv4)
			f[14] = 0x45
			return f
		}()},
		{"ip version 6", func() []byte {
			f := make([]byte, 60)
			binary.BigEndian.PutUint16(f[12:14], EtherTypeIPv4)
			f[14] = 0x60
			return f
		}()},
		{"ipv4 options unsupported", func() []byte {
			f := make([]byte, 80)
			binary.BigEndian.PutUint16(f[12:14], EtherTypeIPv4)
			f[14] = 0x46 // ihl = 24
			binary.BigEndian.PutUint16(f[16:18], 66)
			return f
		}()},
		{"unknown l4 proto", func() []byte {
			f := make([]byte, 60)
			binary.BigEndian.PutUint16(f[12:14], EtherTypeIPv4)
			f[14] = 0x45
			binary.BigEndian.PutUint16(f[16:18], 46)
			f[23] = 132 // SCTP
			return f
		}()},
		{"ip total length beyond frame", func() []byte {
			f := make([]byte, EthHeaderLen+IPv4HeaderLen)
			binary.BigEndian.PutUint16(f[12:14], EtherTypeIPv4)
			f[14] = 0x45
			binary.BigEndian.PutUint16(f[16:18], 999)
			f[23] = ProtoTCP
			return f
		}()},
		{"truncated tcp", func() []byte {
			f := make([]byte, EthHeaderLen+IPv4HeaderLen+4)
			binary.BigEndian.PutUint16(f[12:14], EtherTypeIPv4)
			f[14] = 0x45
			binary.BigEndian.PutUint16(f[16:18], IPv4HeaderLen+4)
			f[23] = ProtoTCP
			return f
		}()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := New(tt.frame).Parse(); err == nil {
				t.Error("Parse succeeded, want error")
			}
		})
	}
}

func TestFieldGetSet(t *testing.T) {
	fields := []struct {
		field Field
		value []byte
	}{
		{FieldSrcMAC, []byte{1, 2, 3, 4, 5, 6}},
		{FieldDstMAC, []byte{6, 5, 4, 3, 2, 1}},
		{FieldSrcIP, []byte{172, 16, 0, 9}},
		{FieldDstIP, []byte{172, 16, 0, 10}},
		{FieldTTL, []byte{13}},
		{FieldDSCP, []byte{0x2e}},
		{FieldSrcPort, PutUint16(12345)},
		{FieldDstPort, PutUint16(443)},
	}
	p := MustBuild(sampleSpec())
	for _, tt := range fields {
		t.Run(tt.field.String(), func(t *testing.T) {
			if err := p.Set(tt.field, tt.value); err != nil {
				t.Fatalf("Set: %v", err)
			}
			got, err := p.Get(tt.field)
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			if !bytes.Equal(got, tt.value) {
				t.Errorf("Get = %v, want %v", got, tt.value)
			}
		})
	}
	// Payload must be untouched by header edits.
	if !bytes.Equal(p.Payload(), []byte("hello world")) {
		t.Errorf("payload corrupted by header edits: %q", p.Payload())
	}
	// After finalize, checksums are valid again.
	if err := p.FinalizeChecksums(); err != nil {
		t.Fatalf("FinalizeChecksums: %v", err)
	}
	if !p.VerifyChecksums() {
		t.Error("checksums invalid after finalize")
	}
}

func TestSetWrongLength(t *testing.T) {
	p := MustBuild(sampleSpec())
	if err := p.Set(FieldSrcIP, []byte{1, 2}); err == nil {
		t.Error("Set with wrong length succeeded, want error")
	}
	if err := p.Set(Field(0), []byte{}); err == nil {
		t.Error("Set with invalid field succeeded, want error")
	}
}

func TestFieldEnum(t *testing.T) {
	if Field(0).Valid() {
		t.Error("zero Field must be invalid (enums start at one)")
	}
	if Field(99).Valid() {
		t.Error("out-of-range Field must be invalid")
	}
	for f := FieldSrcMAC; f <= FieldDstPort; f++ {
		if !f.Valid() {
			t.Errorf("field %d should be valid", f)
		}
		if f.String() == "" {
			t.Errorf("field %d has empty name", f)
		}
	}
}

func TestChecksumReference(t *testing.T) {
	// RFC 1071 example: checksum of 00 01 f2 03 f4 f5 f6 f7.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got, want := Checksum(data), uint16(^uint16(0xddf2)); got != want {
		t.Errorf("Checksum = %#04x, want %#04x", got, want)
	}
	// Odd-length input pads the final byte on the right.
	if got := Checksum([]byte{0xff}); got != ^uint16(0xff00) {
		t.Errorf("odd Checksum = %#04x", got)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	p := MustBuild(sampleSpec())
	p.Data()[EthHeaderLen+12]++ // flip a source-IP byte without refreshing checksums
	if p.VerifyChecksums() {
		t.Error("VerifyChecksums passed on corrupted packet")
	}
}

func TestEncapDecapAH(t *testing.T) {
	p := MustBuild(sampleSpec())
	origLen := p.Len()
	payload := append([]byte(nil), p.Payload()...)

	if err := p.EncapAH(0xdeadbeef, 7); err != nil {
		t.Fatalf("EncapAH: %v", err)
	}
	if p.Len() != origLen+AHHeaderLen {
		t.Errorf("len after encap = %d, want %d", p.Len(), origLen+AHHeaderLen)
	}
	h, _ := p.Headers()
	if h.AHCount != 1 {
		t.Errorf("AHCount = %d, want 1", h.AHCount)
	}
	spi, seq, ok := p.OutermostAH()
	if !ok || spi != 0xdeadbeef || seq != 7 {
		t.Errorf("OutermostAH = (%#x, %d, %v)", spi, seq, ok)
	}
	// 5-tuple must still be extractable through the AH header.
	ft, err := p.FiveTuple()
	if err != nil || ft.SrcPort != 40000 {
		t.Fatalf("FiveTuple through AH = %v, %v", ft, err)
	}
	if !bytes.Equal(p.Payload(), payload) {
		t.Error("payload corrupted by encap")
	}

	if err := p.DecapAH(); err != nil {
		t.Fatalf("DecapAH: %v", err)
	}
	if p.Len() != origLen {
		t.Errorf("len after decap = %d, want %d", p.Len(), origLen)
	}
	if err := p.FinalizeChecksums(); err != nil {
		t.Fatal(err)
	}
	if !p.VerifyChecksums() {
		t.Error("checksums invalid after encap/decap round trip")
	}
}

func TestEncapAHNested(t *testing.T) {
	p := MustBuild(sampleSpec())
	for i := uint32(1); i <= 3; i++ {
		if err := p.EncapAH(i, i); err != nil {
			t.Fatalf("EncapAH %d: %v", i, err)
		}
	}
	h, _ := p.Headers()
	if h.AHCount != 3 {
		t.Fatalf("AHCount = %d, want 3", h.AHCount)
	}
	// Pops come off in LIFO order.
	for want := uint32(3); want >= 1; want-- {
		spi, _, _ := p.OutermostAH()
		if spi != want {
			t.Errorf("outermost SPI = %d, want %d", spi, want)
		}
		if err := p.DecapAH(); err != nil {
			t.Fatalf("DecapAH: %v", err)
		}
	}
	if err := p.DecapAH(); err == nil {
		t.Error("DecapAH on AH-less packet succeeded, want error")
	}
}

func TestEncapDecapVLAN(t *testing.T) {
	p := MustBuild(sampleSpec())
	if err := p.EncapVLAN(42); err != nil {
		t.Fatalf("EncapVLAN: %v", err)
	}
	tag, ok := p.OutermostVLAN()
	if !ok || tag != 42 {
		t.Fatalf("OutermostVLAN = (%d, %v), want (42, true)", tag, ok)
	}
	if err := p.EncapVLAN(100); err != nil {
		t.Fatalf("stacked EncapVLAN: %v", err)
	}
	h, _ := p.Headers()
	if h.VLANs != 2 {
		t.Errorf("VLANs = %d, want 2", h.VLANs)
	}
	ft, err := p.FiveTuple()
	if err != nil || ft.DstPort != 80 {
		t.Fatalf("FiveTuple through stacked VLANs: %v, %v", ft, err)
	}
	if err := p.DecapVLAN(); err != nil {
		t.Fatal(err)
	}
	if tag, _ := p.OutermostVLAN(); tag != 42 {
		t.Errorf("after pop, outermost tag = %d, want 42", tag)
	}
	if err := p.DecapVLAN(); err != nil {
		t.Fatal(err)
	}
	if err := p.DecapVLAN(); err == nil {
		t.Error("DecapVLAN on untagged packet succeeded, want error")
	}
}

// TestEncapAllocatesOnce: an encap writes its header straight into the
// gap it opens in the one new frame it makes.
func TestEncapAllocatesOnce(t *testing.T) {
	for _, h := range []ExtraHeader{{Type: HeaderAH, SPI: 1, Seq: 2}, {Type: HeaderVLAN, Tag: 5}} {
		pkts := make([]*Packet, 101) // AllocsPerRun's warm-up and its runs
		for i := range pkts {
			pkts[i] = MustBuild(sampleSpec())
		}
		n := 0
		allocs := testing.AllocsPerRun(len(pkts)-1, func() {
			if err := pkts[n].Encap(h); err != nil {
				t.Fatal(err)
			}
			n++
		})
		if allocs != 1 {
			t.Errorf("%v encap: %v allocations, want 1 (the new frame)", h.Type, allocs)
		}
	}
}

func TestEncapDispatch(t *testing.T) {
	p := MustBuild(sampleSpec())
	if err := p.Encap(ExtraHeader{Type: HeaderVLAN, Tag: 5}); err != nil {
		t.Fatal(err)
	}
	if err := p.Encap(ExtraHeader{Type: HeaderAH, SPI: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.Decap(HeaderAH); err != nil {
		t.Fatal(err)
	}
	if err := p.Decap(HeaderVLAN); err != nil {
		t.Fatal(err)
	}
	if err := p.Encap(ExtraHeader{Type: HeaderType(99)}); err == nil {
		t.Error("Encap with unknown type succeeded")
	}
	if err := p.Decap(HeaderType(99)); err == nil {
		t.Error("Decap with unknown type succeeded")
	}
}

func TestDrop(t *testing.T) {
	p := MustBuild(sampleSpec())
	p.Drop()
	if !p.Dropped() {
		t.Error("Dropped = false after Drop")
	}
	if p.Payload() != nil {
		t.Error("Payload non-nil after Drop")
	}
	if err := p.Parse(); err == nil {
		t.Error("Parse succeeded on dropped packet")
	}
}

func TestClone(t *testing.T) {
	p := MustBuild(sampleSpec())
	p.Meta.FID, p.Meta.HasFID = 99, true
	c := p.Clone()
	if c.Meta.FID != 99 || !c.Meta.HasFID {
		t.Error("clone lost metadata")
	}
	// Mutating the clone must not affect the original.
	if err := c.Set(FieldTTL, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if p.TTL() == 1 {
		t.Error("clone shares buffer with original")
	}
}

func TestTCPFlags(t *testing.T) {
	spec := sampleSpec()
	spec.TCPFlags = TCPFlagSYN | TCPFlagACK
	p := MustBuild(spec)
	flags, ok := p.TCPFlags()
	if !ok || flags != TCPFlagSYN|TCPFlagACK {
		t.Errorf("TCPFlags = (%#x, %v)", flags, ok)
	}
	if err := p.SetTCPFlags(TCPFlagFIN); err != nil {
		t.Fatal(err)
	}
	if flags, _ := p.TCPFlags(); flags != TCPFlagFIN {
		t.Errorf("after SetTCPFlags, flags = %#x", flags)
	}
	udp := MustBuild(Spec{SrcIP: IP4(1, 1, 1, 1), DstIP: IP4(2, 2, 2, 2), Proto: ProtoUDP})
	if _, ok := udp.TCPFlags(); ok {
		t.Error("TCPFlags ok on UDP packet")
	}
	if err := udp.SetTCPFlags(0); err == nil {
		t.Error("SetTCPFlags on UDP succeeded")
	}
}

func TestDecrementTTL(t *testing.T) {
	spec := sampleSpec()
	spec.TTL = 2
	p := MustBuild(spec)
	if v, _ := p.DecrementTTL(); v != 1 {
		t.Errorf("TTL = %d, want 1", v)
	}
	if v, _ := p.DecrementTTL(); v != 0 {
		t.Errorf("TTL = %d, want 0", v)
	}
	if v, _ := p.DecrementTTL(); v != 0 {
		t.Errorf("TTL saturation failed: %d", v)
	}
}

func TestFiveTupleReverse(t *testing.T) {
	ft := FiveTuple{SrcIP: IP4(1, 1, 1, 1), DstIP: IP4(2, 2, 2, 2), SrcPort: 10, DstPort: 20, Proto: ProtoTCP}
	r := ft.Reverse()
	if r.SrcIP != ft.DstIP || r.DstPort != ft.SrcPort || r.Proto != ft.Proto {
		t.Errorf("Reverse = %v", r)
	}
	if r.Reverse() != ft {
		t.Error("double Reverse is not identity")
	}
}

// Property: Build is deterministic and the parsed tuple always echoes
// the spec, for arbitrary tuples.
func TestQuickBuildEchoesSpec(t *testing.T) {
	f := func(src, dst [4]byte, sp, dp uint16, udp bool, payload []byte) bool {
		proto := uint8(ProtoTCP)
		if udp {
			proto = ProtoUDP
		}
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		p, err := Build(Spec{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: proto, Payload: payload})
		if err != nil {
			return false
		}
		ft, err := p.FiveTuple()
		if err != nil {
			return false
		}
		// One packing: the wire's key is the tuple's key, and it unpacks.
		hi, lo, ok := p.FlowKey()
		kHi, kLo := ft.Key()
		return ft == FiveTuple{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: proto} &&
			ok && hi == kHi && lo == kLo && KeyTuple(hi, lo) == ft &&
			bytes.Equal(p.Payload(), payload) && p.VerifyChecksums()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: encap followed by decap restores the exact frame bytes.
func TestQuickEncapDecapIdentity(t *testing.T) {
	f := func(spi, seq uint32, tag uint16, payload []byte) bool {
		if len(payload) > 512 {
			payload = payload[:512]
		}
		spec := sampleSpec()
		spec.Payload = payload
		p, err := Build(spec)
		if err != nil {
			return false
		}
		orig := append([]byte(nil), p.Data()...)
		if p.EncapAH(spi, seq) != nil || p.EncapVLAN(tag) != nil {
			return false
		}
		if p.DecapVLAN() != nil || p.DecapAH() != nil {
			return false
		}
		return bytes.Equal(p.Data(), orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAddressAccessors: a parsed packet reads its addresses and ports
// off the frame; an unparsed one reads zeros rather than guessing at
// offsets.
func TestAddressAccessors(t *testing.T) {
	spec := sampleSpec()
	p := MustBuild(spec)
	if p.SrcIP() != spec.SrcIP || p.DstIP() != spec.DstIP || p.SrcPort() != spec.SrcPort || p.DstPort() != spec.DstPort {
		t.Errorf("parsed: %v:%d -> %v:%d, want %v:%d -> %v:%d",
			p.SrcIP(), p.SrcPort(), p.DstIP(), p.DstPort(), spec.SrcIP, spec.SrcPort, spec.DstIP, spec.DstPort)
	}
	raw := New(append([]byte(nil), p.Data()...))
	if raw.Parsed() {
		t.Fatal("New parsed its frame")
	}
	if raw.SrcIP() != ([4]byte{}) || raw.DstIP() != ([4]byte{}) || raw.SrcPort() != 0 || raw.DstPort() != 0 {
		t.Errorf("unparsed: %v:%d -> %v:%d, want zeros", raw.SrcIP(), raw.SrcPort(), raw.DstIP(), raw.DstPort())
	}
	if got := PutUint32(0x0a000001); !bytes.Equal(got, []byte{10, 0, 0, 1}) {
		t.Errorf("PutUint32 = %v", got)
	}
}

func TestPacketString(t *testing.T) {
	p := MustBuild(sampleSpec())
	if got, want := p.String(), "packet(65B, 10.0.0.1:40000->10.0.0.2:80/6)"; got != want {
		t.Errorf("parsed: %q, want %q", got, want)
	}
	if got, want := New(p.Data()[:10]).String(), "packet(unparsed, 10B)"; got != want {
		t.Errorf("unparsed: %q, want %q", got, want)
	}
	p.Drop()
	if got, want := p.String(), "packet(dropped)"; got != want {
		t.Errorf("dropped: %q, want %q", got, want)
	}
}

// TestFailedParseKeepsPriorParse: Parse stores its headers only once the
// frame has passed every check, so a parse that fails leaves the
// descriptor reading exactly as the last one that succeeded.
func TestFailedParseKeepsPriorParse(t *testing.T) {
	p := MustBuild(sampleSpec())
	if err := p.EncapVLAN(7); err != nil {
		t.Fatal(err)
	}
	if err := p.EncapAH(0x1234, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Parse(); err != nil {
		t.Fatal(err)
	}
	hdr, _ := p.Headers()
	if hdr.VLANs != 1 || hdr.AHCount != 1 {
		t.Fatalf("headers %+v, want one VLAN tag and one AH", hdr)
	}
	hi, lo, _ := p.FlowKey()
	tests := []struct {
		name    string
		at      int
		corrupt []byte
		want    string
	}{
		{"ip version", hdr.IPOff, []byte{0x65}, "packet: unsupported protocol: ip version 6"},
		{"total length past the frame", hdr.IPOff + 2, []byte{0xff, 0xff}, "packet: truncated frame: ip total length 65535 exceeds frame"},
		{"unknown ethertype", 12, []byte{0x86, 0xdd}, "packet: unsupported protocol: ethertype 0x86dd"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := p.Data()[tt.at : tt.at+len(tt.corrupt)]
			orig := append([]byte(nil), b...)
			copy(b, tt.corrupt)
			defer copy(b, orig)
			if err := p.Parse(); err == nil || err.Error() != tt.want {
				t.Fatalf("Parse = %v, want %q", err, tt.want)
			}
			if got, ok := p.Headers(); got != hdr || !ok {
				t.Errorf("Headers() = %+v, %v after the failed parse, want %+v, true", got, ok, hdr)
			}
			if !p.Parsed() {
				t.Error("Parsed() = false after the failed parse")
			}
			if gotHi, gotLo, ok := p.FlowKey(); gotHi != hi || gotLo != lo || !ok {
				t.Errorf("FlowKey() = %#x, %#x, %v, want %#x, %#x, true", gotHi, gotLo, ok, hi, lo)
			}
		})
	}
}

// TestPacketSizeClass pins the descriptor to the 128-byte size class:
// objects of that class start on a 128-byte boundary, so a descriptor
// spans exactly two cache lines. The benchmark and a pooled trace
// allocate one per frame, so a field that pushes it past 128 bytes puts
// every descriptor across a third line. One that shrinks it into a
// smaller class changes the lines descriptors span (in the 112-byte
// class, half of them span three): move the pin with a measurement.
func TestPacketSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n <= 112 || n > 128 {
		t.Errorf("Packet is %d bytes, want 113-128 (the 128-byte size class)", n)
	}
}
