package mat

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/packet"
)

// progTestPacket builds the canonical test packet the program tests
// mutate.
func progTestPacket(t testing.TB) *packet.Packet {
	t.Helper()
	p, err := packet.Build(packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: 1111, DstPort: 2222, Proto: packet.ProtoTCP,
		TCPFlags: packet.TCPFlagACK, Seq: 7,
		Payload: []byte("program-equivalence"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// diffNaive runs the chain's contributions action by action
// (ApplyNaive) and the rule's program on clones of the same packet, and
// fails on any observable divergence: verdict, drop flag, output bytes,
// checksums included — or on the program failing where the chain did
// not. A chain that fails, decapping a header the packet never carried,
// could never have been recorded: diffNaive reports false and compares
// nothing.
func diffNaive(t *testing.T, rule *GlobalRule, cs []Contribution, base *packet.Packet) bool {
	t.Helper()
	pNaive, pProg := base.Clone(), base.Clone()
	dropped, err := ApplyNaive(pNaive, cs)
	if err != nil {
		return false
	}
	alive, err := rule.ExecHeader(pProg)
	if err != nil {
		t.Fatalf("the chain ran, the program failed: %v", err)
	}
	if dropped == alive || pNaive.Dropped() != pProg.Dropped() {
		t.Fatalf("verdict divergence: naive dropped=%v (flag %v), program alive=%v (flag %v)",
			dropped, pNaive.Dropped(), alive, pProg.Dropped())
	}
	if dropped {
		return true
	}
	if !bytes.Equal(pNaive.Data(), pProg.Data()) {
		t.Fatalf("byte divergence:\nnaive:   %x\nprogram: %x", pNaive.Data(), pProg.Data())
	}
	if pNaive.VerifyChecksums() != pProg.VerifyChecksums() {
		t.Fatalf("checksum divergence: naive valid=%v, program valid=%v", pNaive.VerifyChecksums(), pProg.VerifyChecksums())
	}
	return true
}

// FuzzProgramExec is the compiled-program equivalence property: for
// every rule the consolidator emits from fuzzed per-NF action lists,
// executing the compiled program must be observably identical — verdict,
// drop flag and output bytes, checksums included — to applying the same
// contributions action by action with ApplyNaive, the one reference.
// The corpus decoder is shared with FuzzConsolidate, so the program
// executor is exercised over exactly the rule shapes consolidation can
// produce, on frames whose headers sit where a program resolved at
// compile time could get wrong: behind one or two 802.1Q tags, or an AH
// header a decap pops before the modifies run.
func FuzzProgramExec(f *testing.F) {
	f.Add([]byte{0, 1, 0})
	f.Add([]byte{3, 4, 1, 1, 9, 9, 9, 9, 1, 0, 10, 0, 0, 2, 1})
	f.Add([]byte{1, 3, 2, 7, 3, 200, 4, 1})
	f.Add([]byte{2, 2, 1, 5, 42, 42, 0, 13})
	f.Add([]byte{0, 2, 5, 0, 5, 1, 1})
	f.Add([]byte{255, 4, 2, 9, 1, 1, 1, 2, 3, 4, 3, 77, 4, 1, 1, 3, 1, 4, 5, 6, 0, 26})
	// The modify chain again on each packet shape (the bits above the
	// chain length): UDP with an odd payload, either checksum wrong, and
	// a UDP checksum of none.
	for _, shape := range []byte{3, 4, 5, 9, 13} {
		f.Add([]byte{shape<<2 | 3, 4, 1, 1, 9, 9, 9, 9, 1, 0, 10, 0, 0, 2, 1, 2, 1, 4, 17, 1, 2, 0x4e, 0x20, 1})
	}
	// Frames with headers to move (shape bits 4-5): two tags and no decap;
	// one tag popped, then the addresses and ports rewritten; two tags,
	// one popped, then the TTL and a MAC; a tag and an AH, the AH popped,
	// then a port, a MAC and the DSCP; both popped, on UDP without a
	// checksum.
	f.Add([]byte{2 << 4 << 2, 2, 1, 1, 192, 168, 1, 10, 1, 3, 0x1f, 0x90, 1})
	f.Add([]byte{1 << 4 << 2, 3, 5, 1, 1, 0, 9, 9, 9, 9, 1, 3, 0x1f, 0x90, 1})
	f.Add([]byte{(2<<4 | 1) << 2, 3, 5, 1, 1, 4, 17, 1, 7, 1, 2, 3, 4, 5, 6, 1})
	f.Add([]byte{3 << 4 << 2, 4, 5, 0, 1, 2, 0x4e, 0x20, 1, 6, 6, 5, 4, 3, 2, 1, 1, 5, 0xb8, 1})
	f.Add([]byte{(3<<4|3<<2|1)<<2 | 1, 2, 5, 1, 5, 0, 1, 2, 1, 1, 10, 1, 2, 3, 1, 4, 99, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		cs := decodeContribs(data)
		if len(cs) == 0 {
			t.Skip()
		}
		rule, err := Consolidate(1, cs)
		if err != nil {
			if !errors.Is(err, ErrNotConsolidatable) {
				t.Fatalf("Consolidate failed with a non-sentinel error: %v", err)
			}
			return
		}
		if len(rule.Prog) == 0 {
			t.Fatal("Consolidate emitted a rule without a compiled program")
		}
		// The first byte also picks the packet, so that the executor's one
		// patch per checksum meets the reference's patch per field where
		// they could part: TCP and UDP, an odd payload, a checksum that
		// arrived wrong, a UDP checksum of none; and so that its fields
		// sit behind no tag, one or two (IPv4 at 14, 18 or 22), or a tag
		// and an AH header.
		spec := packet.Spec{
			SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
			SrcPort: 1111, DstPort: 2222, Proto: packet.ProtoTCP,
			TCPFlags: packet.TCPFlagACK, Seq: 7,
			Payload: []byte("program-equivalence"),
		}
		shape := data[0] >> 2
		if shape&1 != 0 {
			spec.Proto = packet.ProtoUDP
		}
		if shape&2 != 0 {
			spec.Payload = spec.Payload[1:]
		}
		base, err := packet.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		frame, tags := shape>>4, shape>>4 // frame 3: one tag and an AH
		if frame == 3 {
			tags = 1
		}
		for tag := byte(0); tag < tags; tag++ {
			if err := base.EncapVLAN(100 + uint16(tag)); err != nil {
				t.Fatal(err)
			}
		}
		if frame == 3 {
			if err := base.EncapAH(0x5eed, 1); err != nil {
				t.Fatal(err)
			}
		}
		h, _ := base.Headers()
		switch shape >> 2 & 3 {
		case 1:
			base.Data()[h.PayloadOff] ^= 0x80 // wrong transport checksum
		case 2:
			base.Data()[h.IPOff+10] ^= 0x80 // wrong IPv4 header checksum
		case 3:
			if spec.Proto == packet.ProtoUDP {
				base.Data()[h.L4Off+6], base.Data()[h.L4Off+7] = 0, 0
			}
		}
		diffNaive(t, rule, cs, base)
	})
}

// TestProgramForwardOnly checks the hot common case: a rule with no
// residual header work compiles to just the version byte, and the
// executor leaves the packet untouched.
func TestProgramForwardOnly(t *testing.T) {
	rule := &GlobalRule{FID: 3}
	rule.Compile()
	if len(rule.Prog) != 1 || rule.Prog[0] != progVersion {
		t.Fatalf("forward-only program = %x, want just the version byte", rule.Prog)
	}
	p := progTestPacket(t)
	before := append([]byte(nil), p.Data()...)
	alive, err := rule.ExecHeader(p)
	if err != nil || !alive {
		t.Fatalf("ExecHeader = (%v, %v), want (true, nil)", alive, err)
	}
	if !bytes.Equal(before, p.Data()) {
		t.Fatal("forward-only program mutated the packet")
	}
}

// TestProgramDrop checks that a drop rule compiles to the lone drop
// opcode and the executor consumes the packet.
func TestProgramDrop(t *testing.T) {
	rule := &GlobalRule{FID: 4, Drop: true}
	rule.Compile()
	want := []byte{progVersion, opDrop}
	if !bytes.Equal(rule.Prog, want) {
		t.Fatalf("drop program = %x, want %x", rule.Prog, want)
	}
	p := progTestPacket(t)
	alive, err := rule.ExecHeader(p)
	if err != nil || alive {
		t.Fatalf("ExecHeader = (%v, %v), want (false, nil)", alive, err)
	}
	if !p.Dropped() {
		t.Fatal("packet not marked dropped")
	}
}

// TestProgramRefusesMalformed checks every way a program can be
// malformed — none at all, an unknown format version, a program cut
// short, a corrupt opcode or operand, first or mid-program, behind a
// decap or not: ExecHeader returns ErrBadProgram, never panics, and
// never reports a packet served.
func TestProgramRefusesMalformed(t *testing.T) {
	// The TTL modify sits at mod, its value at mod+modOperands; the
	// destination port's modify at next. A decap (two bytes) moves both.
	const mod, next = progOps, progOps + modOperands + 1
	for _, tc := range []struct {
		name  string
		decap bool // the rule first pops a VLAN tag the packet carries
		prog  func(p []byte) []byte
	}{
		{"nil-program", false, func([]byte) []byte { return nil }},
		{"unknown-version", false, func(p []byte) []byte { p[0] = progVersion + 1; return p }},
		{"corrupt-opcode", false, func(p []byte) []byte { p[mod] = 0xee; return p }},
		{"corrupt-second-opcode", false, func(p []byte) []byte { p[next] = 0xee; return p }},
		{"corrupt-width", false, func(p []byte) []byte { p[mod+3] = 200; return p }},
		{"unknown-width", false, func(p []byte) []byte { p[mod+3] = 3; return p }},
		{"corrupt-second-width", false, func(p []byte) []byte { p[next+3] = 0; return p }},
		{"corrupt-selector", false, func(p []byte) []byte { p[mod+1] = 127; return p }},
		{"corrupt-second-selector", false, func(p []byte) []byte { p[next+1] = 127; return p }},
		{"corrupt-offset", false, func(p []byte) []byte { p[mod+2] = 250; return p }},
		{"truncated", false, func(p []byte) []byte { return p[:len(p)-1] }},
		{"truncated-at-an-opcode", false, func(p []byte) []byte { return p[:next] }},
		{"truncated-header", false, func(p []byte) []byte { return p[:progSums] }},
		{"corrupt-decap-type", true, func(p []byte) []byte { p[progOps+1] = 9; return p }},
		{"corrupt-opcode-after-decap", true, func(p []byte) []byte { p[next+2] = 0xee; return p }},
		{"corrupt-width-after-decap", true, func(p []byte) []byte { p[next+2+3] = 200; return p }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			acts := []HeaderAction{Modify(packet.FieldTTL, []byte{17}), Modify(packet.FieldDstPort, []byte{0x1f, 0x90})}
			base := progTestPacket(t)
			if tc.decap {
				acts = append([]HeaderAction{Decap(packet.HeaderVLAN)}, acts...)
				if err := base.EncapVLAN(7); err != nil {
					t.Fatal(err)
				}
			}
			cs := []Contribution{{NF: "rewriter", Rule: &LocalRule{Actions: acts}}}
			rule, err := Consolidate(9, cs)
			if err != nil {
				t.Fatal(err)
			}
			if !diffNaive(t, rule, cs, base) {
				t.Fatal("the chain failed on the packet")
			}
			rule.Prog = tc.prog(rule.Prog)
			if alive, err := rule.ExecHeader(base.Clone()); !errors.Is(err, ErrBadProgram) || alive {
				t.Errorf("ExecHeader = (%v, %v), want ErrBadProgram", alive, err)
			}
			if m, d, e := rule.HeaderWork(); tc.name == "nil-program" && m+d+e != 0 {
				t.Errorf("no program prices as (%d, %d, %d) ops", m, d, e)
			}
			if acts, ok := rule.HeaderActions(); ok || !strings.Contains(rule.String(), "invalid program") {
				t.Errorf("the malformed program disassembles to %v: %s", acts, rule)
			}
		})
	}
}

// TestProgramErrorParity checks that a runtime failure — here a decap of
// a header the packet never carried — fails the program as it fails the
// chain, with the same cause.
func TestProgramErrorParity(t *testing.T) {
	cs := []Contribution{{NF: "vpn-term", Rule: &LocalRule{Actions: []HeaderAction{Decap(packet.HeaderAH)}}}}
	rule, err := Consolidate(11, cs)
	if err != nil {
		t.Fatal(err)
	}
	_, errNaive := ApplyNaive(progTestPacket(t), cs)
	_, errProg := rule.ExecHeader(progTestPacket(t))
	if !errors.Is(errNaive, packet.ErrNoHeader) || !errors.Is(errProg, packet.ErrNoHeader) {
		t.Fatalf("decap of an absent header: chain %v, program %v; want both packet.ErrNoHeader", errNaive, errProg)
	}
}

// TestExecHeaderAllocatesNothing: the executor writes the packet's bytes
// in place and reads the values out of the program, so a rule that only
// rewrites fields — Chain1's — allocates nothing, on TCP and UDP, with
// or without tags in front of the headers. (A decap or encap re-frames
// the packet and is not covered.)
func TestExecHeaderAllocatesNothing(t *testing.T) {
	rule := chain1Rule(t)
	for _, tc := range []struct {
		proto uint8
		tags  int
	}{{packet.ProtoUDP, 0}, {packet.ProtoTCP, 0}, {packet.ProtoUDP, 2}} {
		p := packet.MustBuild(packet.Spec{
			SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
			SrcPort: 4000, DstPort: 80, Proto: tc.proto, Payload: make([]byte, 200),
		})
		for i := 0; i < tc.tags; i++ {
			if err := p.EncapVLAN(uint16(i)); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(100, func() {
			if alive, err := rule.ExecHeader(p); err != nil || !alive {
				t.Fatalf("ExecHeader = (%v, %v)", alive, err)
			}
		}); n != 0 {
			t.Errorf("proto %d, %d tags: %v allocations a packet, want 0", tc.proto, tc.tags, n)
		}
	}
}

// TestExecHeaderIgnoresPayload: a rewrite costs its fields, not its
// payload — stated without a stopwatch. Two frames equal in every
// header byte, checksum fields included, but not in their payloads
// leave the executor with identical header bytes (and their payloads
// as they were), which they could not if it read the segment.
func TestExecHeaderIgnoresPayload(t *testing.T) {
	rule := chain1Rule(t)
	spec := packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: 4000, DstPort: 80, Proto: packet.ProtoUDP,
	}
	spec.Payload = bytes.Repeat([]byte{0x00}, 200)
	a := packet.MustBuild(spec)
	spec.Payload = bytes.Repeat([]byte{0xa7}, 200)
	b := packet.MustBuild(spec)
	h, _ := a.Headers()
	copy(b.Data()[:h.PayloadOff], a.Data()[:h.PayloadOff])
	before := bytes.Clone(a.Data()[:h.PayloadOff])
	for _, p := range []*packet.Packet{a, b} {
		if alive, err := rule.ExecHeader(p); err != nil || !alive {
			t.Fatalf("ExecHeader = (%v, %v)", alive, err)
		}
	}
	if !bytes.Equal(a.Data()[:h.PayloadOff], b.Data()[:h.PayloadOff]) {
		t.Errorf("headers differ by payload:\n % x\n % x", a.Data()[:h.PayloadOff], b.Data()[:h.PayloadOff])
	}
	if bytes.Equal(a.Data()[:h.PayloadOff], before) || !a.VerifyChecksums() {
		t.Error("the rule did not rewrite the header, or left a right checksum wrong")
	}
	if b.VerifyChecksums() || b.Data()[h.PayloadOff] != 0xa7 {
		t.Error("the frame carrying the other payload's checksum came out right, or its payload changed")
	}
}
