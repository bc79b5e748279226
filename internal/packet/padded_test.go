package packet_test

import (
	"bytes"
	"errors"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// TestPaddedFrameChecksums: Ethernet pads every frame under 60 bytes,
// so a bare TCP ACK (54 bytes) arrives with six trailer bytes the IPv4
// total length does not cover. The transport checksum ends where the
// datagram does: the frame verifies as it arrived, still verifies after
// a rewrite — whether the chain's per-NF actions or the consolidated
// rule's compiled program made it, with identical bytes — and the
// trailer is never touched. Encap and decap move the datagram's end and
// the checksum follows.
func TestPaddedFrameChecksums(t *testing.T) {
	ack := packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: 40000, DstPort: 80, Proto: packet.ProtoTCP, TCPFlags: packet.TCPFlagACK,
	})
	if ack.Len() != 54 {
		t.Fatalf("bare ACK is %d bytes, want 54", ack.Len())
	}
	trailer := []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}
	padded := func() *packet.Packet {
		p := packet.New(append(bytes.Clone(ack.Data()), trailer...))
		if err := p.Parse(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	check := func(p *packet.Packet, when string) {
		t.Helper()
		if !p.VerifyChecksums() {
			t.Errorf("%s: checksums do not verify", when)
		}
		if !bytes.HasSuffix(p.Data(), trailer) {
			t.Errorf("%s: trailer is % x, want % x", when, p.Data()[p.Len()-len(trailer):], trailer)
		}
	}

	arrived := padded()
	if h, _ := arrived.Headers(); h.End != 54 || arrived.Len() != 60 {
		t.Fatalf("datagram ends at %d of %d bytes, want 54 of 60", h.End, arrived.Len())
	}
	check(arrived, "as it arrived")

	// The chain's way: each NF applies its action and refreshes the
	// checksums. The fast path's way: one compiled program.
	contribs := []mat.Contribution{
		{NF: "lb", Rule: &mat.LocalRule{Actions: []mat.HeaderAction{mat.Modify(packet.FieldDstIP, []byte{192, 168, 7, 9})}}},
		{NF: "nat", Rule: &mat.LocalRule{Actions: []mat.HeaderAction{mat.Modify(packet.FieldSrcPort, packet.PutUint16(61000))}}},
	}
	slow, fast := padded(), padded()
	if _, err := mat.ApplyNaive(slow, contribs); err != nil {
		t.Fatal(err)
	}
	rule, err := mat.Consolidate(1, contribs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rule.ExecHeader(fast); err != nil {
		t.Fatal(err)
	}
	check(slow, "after the chain's rewrites")
	check(fast, "after the consolidated rewrite")
	if !bytes.Equal(slow.Data(), fast.Data()) {
		t.Errorf("slow path and ExecHeader disagree:\n slow % x\n fast % x", slow.Data(), fast.Data())
	}
	if bytes.Equal(slow.Data(), arrived.Data()) {
		t.Error("the rewrite changed nothing")
	}

	// Encap and decap move the end of the datagram.
	tunnelled := padded()
	if err := tunnelled.EncapAH(7, 1); err != nil {
		t.Fatal(err)
	}
	if err := tunnelled.FinalizeChecksums(); err != nil {
		t.Fatal(err)
	}
	if h, _ := tunnelled.Headers(); h.End != 54+packet.AHHeaderLen {
		t.Errorf("datagram ends at %d after encap, want %d", h.End, 54+packet.AHHeaderLen)
	}
	check(tunnelled, "after encap")
	if err := tunnelled.DecapAH(); err != nil {
		t.Fatal(err)
	}
	if err := tunnelled.FinalizeChecksums(); err != nil {
		t.Fatal(err)
	}
	check(tunnelled, "after decap")
	if !bytes.Equal(tunnelled.Data(), arrived.Data()) {
		t.Error("encap then decap did not restore the frame")
	}

	// A total length that ends inside the transport header leaves no
	// segment to sum: the frame is truncated, whatever trails it.
	cut := bytes.Clone(arrived.Data())
	cut[14+3] = 20 + 8 // IPv4 total length: 8 bytes of a 20-byte TCP header
	if err := packet.New(cut).Parse(); !errors.Is(err, packet.ErrTruncated) {
		t.Errorf("total length inside the TCP header: Parse = %v, want ErrTruncated", err)
	}
}
