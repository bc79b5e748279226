package packet

import (
	"strconv"
	"testing"
)

func benchFrame(b *testing.B, payload int) []byte {
	b.Helper()
	p := MustBuild(Spec{
		SrcIP: IP4(10, 0, 0, 1), DstIP: IP4(10, 0, 0, 2),
		SrcPort: 4000, DstPort: 80, Proto: ProtoTCP,
		Payload: make([]byte, payload),
	})
	return p.Data()
}

// BenchmarkParse measures one full header parse — the step every NF
// repeats on the original path (redundancy R1).
func BenchmarkParse(b *testing.B) {
	frame := benchFrame(b, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := New(frame)
		if err := p.Parse(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseVector parses 32-packet vectors the way the daemon's
// pump and the repository benchmark's receive step do: 32 reused
// descriptors, each loaded with SetFrame and then parsed. The frames are
// UDP, of 4 flows interleaved. b.N counts packets.
func BenchmarkParseVector(b *testing.B) {
	const vec = 32
	frames := make([][]byte, vec)
	pkts := make([]*Packet, vec)
	for i := range frames {
		frames[i] = MustBuild(Spec{
			SrcIP: IP4(10, 0, 0, byte(i%4)), DstIP: IP4(10, 1, 0, 1),
			SrcPort: uint16(1024 + i%4), DstPort: 53, Proto: ProtoUDP,
			Payload: make([]byte, 64),
		}).Data()
		pkts[i] = new(Packet)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += vec {
		for i, p := range pkts {
			p.SetFrame(frames[i])
		}
		for _, p := range pkts {
			if err := p.Parse(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFinalizeChecksums measures the full recompute of both
// checksums over a 512-byte payload. It is Build's cost — trace
// generation's — and no per-packet path's: header rewrites patch by
// delta (BenchmarkSetField).
func BenchmarkFinalizeChecksums(b *testing.B) {
	p := MustBuild(Spec{
		SrcIP: IP4(10, 0, 0, 1), DstIP: IP4(10, 0, 0, 2),
		SrcPort: 4000, DstPort: 80, Proto: ProtoTCP,
		Payload: make([]byte, 512),
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.FinalizeChecksums(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSetField measures one header-field rewrite.
func BenchmarkSetField(b *testing.B) {
	p := MustBuild(Spec{
		SrcIP: IP4(10, 0, 0, 1), DstIP: IP4(10, 0, 0, 2),
		SrcPort: 4000, DstPort: 80,
	})
	v := []byte{1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Set(FieldDstIP, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncapDecapAH measures the header push/pop pair a VPN NF
// performs per packet.
func BenchmarkEncapDecapAH(b *testing.B) {
	p := MustBuild(Spec{
		SrcIP: IP4(10, 0, 0, 1), DstIP: IP4(10, 0, 0, 2),
		SrcPort: 4000, DstPort: 80, Payload: make([]byte, 128),
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.EncapAH(1, uint32(i)); err != nil {
			b.Fatal(err)
		}
		if err := p.DecapAH(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuild measures packet synthesis (trace generation hot path).
func BenchmarkBuild(b *testing.B) {
	spec := Spec{
		SrcIP: IP4(10, 0, 0, 1), DstIP: IP4(10, 0, 0, 2),
		SrcPort: 4000, DstPort: 80, Payload: make([]byte, 128),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChecksum measures the one's-complement kernel on a minimum
// frame's worth of bytes, a mid-sized segment and a full MTU.
func BenchmarkChecksum(b *testing.B) {
	for _, n := range []int{64, 256, 1500} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			data := benchFrame(b, n)[:n]
			b.SetBytes(int64(n))
			var sum uint32
			for i := 0; i < b.N; i++ {
				sum += onesComplementSum(sum&0xffff, data)
			}
			checksumSink = sum
		})
	}
}

// checksumSink keeps BenchmarkChecksum's result live.
var checksumSink uint32
