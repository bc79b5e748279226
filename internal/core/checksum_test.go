package core_test

import (
	"bytes"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/server"
)

// TestCorruptChecksumSurvivesBothPaths: a middlebox must not launder a
// corrupt packet into a valid one. Every header mutator patches the
// checksums by what it rewrites, so a packet leaves the chain exactly
// as right or as wrong as it arrived — and, because a patch depends only
// on the old field and the words rewritten, the recording traversal
// (slow path), the consolidated rule (fast path) and the baseline chain
// leave the same bytes whether they patch per NF or once. A UDP
// checksum of zero ("none") stays zero.
func TestCorruptChecksumSurvivesBothPaths(t *testing.T) {
	chains := []struct {
		name, spec string
	}{
		// Three modifies across two checksums.
		{"chain1", server.DefaultSpecJSON},
		// TTL, DSCP and MAC rewrites, then an AH pair the consolidated
		// rule cancels: the chain patches the IPv4 checksum four times,
		// the rule once.
		{"gateway-vpn", `{"name": "gw-vpn", "nfs": [
			{"type": "gateway", "next_hop_mac": "02:00:00:00:00:fe"},
			{"type": "vpn-encap"}, {"type": "monitor"}, {"type": "vpn-decap"}]}`},
		// The same with the AH left on: an encap opcode ahead of the
		// rule's modifies.
		{"gateway-encap", `{"name": "gw-encap", "nfs": [
			{"type": "gateway", "next_hop_mac": "02:00:00:00:00:fe"},
			{"type": "vpn-encap"}]}`},
	}
	frames := []struct {
		name    string
		proto   uint8
		corrupt func(data []byte, h packet.Headers)
	}{
		{"valid udp", packet.ProtoUDP, nil},
		{"valid tcp", packet.ProtoTCP, nil},
		{"flipped payload byte udp", packet.ProtoUDP, func(d []byte, h packet.Headers) { d[h.PayloadOff+3] ^= 0x40 }},
		{"flipped payload byte tcp", packet.ProtoTCP, func(d []byte, h packet.Headers) { d[h.PayloadOff+3] ^= 0x40 }},
		{"wrong ip checksum", packet.ProtoUDP, func(d []byte, h packet.Headers) { d[h.IPOff+11] ^= 0x5a }},
		{"udp checksum none", packet.ProtoUDP, func(d []byte, h packet.Headers) { d[h.L4Off+6], d[h.L4Off+7] = 0, 0 }},
	}
	for _, c := range chains {
		for _, f := range frames {
			t.Run(c.name+"/"+f.name, func(t *testing.T) {
				arrive := func() *packet.Packet {
					p := chain1Pkt(7400, f.proto, packet.TCPFlagACK, "odd payload")
					if f.corrupt != nil {
						h, _ := p.Headers()
						f.corrupt(p.Data(), h)
					}
					return p
				}
				validIn := arrive().VerifyChecksums()
				if validIn != (f.corrupt == nil) {
					t.Fatalf("frame verifies: %v", validIn)
				}
				// out[0..1] the SpeedyBox engine's initial and subsequent
				// packet, out[2..3] the baseline chain's.
				var out []*packet.Packet
				for _, opts := range []core.Options{core.DefaultOptions(), core.BaselineOptions()} {
					eng, err := core.NewEngine(specChain(t, c.spec), opts)
					if err != nil {
						t.Fatal(err)
					}
					if f.proto == packet.ProtoTCP {
						for _, flags := range []uint8{packet.TCPFlagSYN, packet.TCPFlagACK} {
							if _, err := eng.ProcessPacket(chain1Pkt(7400, f.proto, flags, "")); err != nil {
								t.Fatal(err)
							}
						}
					}
					for i, want := range []core.Path{core.PathSlow, core.PathFast} {
						p := arrive()
						res, err := eng.ProcessPacket(p)
						if err != nil {
							t.Fatal(err)
						}
						if !opts.EnableSpeedyBox {
							want = core.PathSlow
						}
						if res.Path != want || res.Verdict != core.VerdictForward {
							t.Fatalf("packet %d (speedybox %v): path %v verdict %v, want %v forwarded",
								i, opts.EnableSpeedyBox, res.Path, res.Verdict, want)
						}
						out = append(out, p)
					}
					if err := eng.CheckRecords(); err != nil {
						t.Error(err)
					}
				}
				for i, p := range out[1:] {
					if !bytes.Equal(out[0].Data(), p.Data()) {
						t.Errorf("output %d differs from the slow path's:\n slow % x\n this % x", i+1, out[0].Data(), p.Data())
					}
				}
				if bytes.Equal(out[0].Data(), arrive().Data()) {
					t.Error("the chain rewrote nothing")
				}
				if got := out[0].VerifyChecksums(); got != validIn {
					t.Errorf("checksums verify out: %v, in: %v", got, validIn)
				}
				if f.name == "udp checksum none" {
					if h, _ := out[0].Headers(); out[0].Data()[h.L4Off+6]|out[0].Data()[h.L4Off+7] != 0 {
						t.Errorf("UDP checksum none left as % x", out[0].Data()[h.L4Off+6:h.L4Off+8])
					}
				}
			})
		}
	}
}
