package packet

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// referenceSum is the checksum kernel at its plainest — one 16-bit
// big-endian word at a time, an odd trailing byte as the high half of a
// zero-padded word. The wide kernel must agree with it after folding on
// every input.
func referenceSum(sum uint32, data []byte) uint32 {
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i : i+2]))
	}
	if n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	return sum
}

// TestChecksumKernelMatchesReference holds the wide kernel to the
// 16-bit one for every length a frame can have, at even and odd start
// offsets (the unrolled loop, each tail step and unaligned loads), with
// zero and non-zero seed sums, over random and all-ones bytes (the
// latter drive every carry).
func TestChecksumKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 1603)
	rng.Read(random)
	ones := make([]byte, 1603)
	for i := range ones {
		ones[i] = 0xff
	}
	for _, buf := range [][]byte{random, ones} {
		for n := 0; n <= 1600; n++ {
			for off := 0; off < 3; off++ {
				for _, seed := range []uint32{0, 0x1d0f, 0x00ffffff} {
					data := buf[off : off+n]
					want := foldChecksum(referenceSum(seed, data))
					if got := foldChecksum(onesComplementSum(seed, data)); got != want {
						t.Fatalf("len %d offset %d seed %#x: checksum %#04x, reference %#04x", n, off, seed, got, want)
					}
				}
			}
		}
	}
}

// FuzzChecksum is the same comparison on fuzzer-chosen bytes, start
// offset and seed sum.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, uint32(0), false)
	f.Add([]byte{0x45, 0x11}, uint32(0), true)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint32(0xffff), false)
	f.Add(MustBuild(Spec{
		SrcIP: IP4(10, 0, 0, 1), DstIP: IP4(10, 0, 0, 2),
		SrcPort: 4000, DstPort: 80, Proto: ProtoUDP,
		Payload: []byte("thirty-three bytes of payload ..."),
	}).Data(), uint32(0x1234), true)
	f.Fuzz(func(t *testing.T, data []byte, seed uint32, odd bool) {
		if odd && len(data) > 0 {
			data = data[1:]
		}
		// A seed is a sum already in progress: at most a pseudo-header's.
		seed &= 0x00ffffff
		want := foldChecksum(referenceSum(seed, data))
		if got := foldChecksum(onesComplementSum(seed, data)); got != want {
			t.Fatalf("len %d seed %#x: checksum %#04x, reference %#04x", len(data), seed, got, want)
		}
	})
}
