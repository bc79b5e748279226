package mat

import (
	"errors"
	"fmt"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/packet"
)

// byteReader walks the fuzz input; decoding stops gracefully at the
// end so every input is a valid (possibly empty) action program.
type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) next() (byte, bool) {
	if r.pos >= len(r.data) {
		return 0, false
	}
	b := r.data[r.pos]
	r.pos++
	return b, true
}

// decodeContribs interprets fuzz bytes as per-NF action lists: the
// first byte sizes the chain, then each NF reads an action count and
// opcodes. Decaps usually pop the pending encap stack (consolidatable
// programs), but opcode 5 emits a raw decap of an arbitrary type so
// the fuzzer also reaches the ErrNotConsolidatable and runtime-error
// paths. A drop ends the program, as nothing downstream of a drop
// records on the original path.
func decodeContribs(data []byte) []Contribution {
	r := &byteReader{data: data}
	nb, ok := r.next()
	if !ok {
		return nil
	}
	nNFs := int(nb%4) + 1
	fields := []packet.Field{
		packet.FieldSrcIP, packet.FieldDstIP,
		packet.FieldSrcPort, packet.FieldDstPort,
		packet.FieldTTL, packet.FieldDSCP,
		packet.FieldSrcMAC, packet.FieldDstMAC,
	}
	var pending []packet.HeaderType
	cs := make([]Contribution, 0, nNFs)
	for i := 0; i < nNFs; i++ {
		cb, ok := r.next()
		if !ok {
			cb = 0
		}
		nActions := int(cb % 5)
		var actions []HeaderAction
		dropped := false
		for j := 0; j < nActions && !dropped; j++ {
			op, ok := r.next()
			if !ok {
				break
			}
			switch op % 7 {
			case 0, 6:
				actions = append(actions, Forward())
			case 1:
				fb, _ := r.next()
				f := fields[int(fb)%len(fields)]
				v := make([]byte, f.Size())
				for k := range v {
					vb, ok := r.next()
					if !ok {
						vb = byte(k)
					}
					v[k] = vb
				}
				actions = append(actions, Modify(f, v))
			case 2:
				sb, _ := r.next()
				actions = append(actions, Encap(packet.ExtraHeader{
					Type: packet.HeaderAH, SPI: uint32(sb), Seq: uint32(op),
				}))
				pending = append(pending, packet.HeaderAH)
			case 3:
				tb, _ := r.next()
				actions = append(actions, Encap(packet.ExtraHeader{
					Type: packet.HeaderVLAN, Tag: uint16(tb) % 4096,
				}))
				pending = append(pending, packet.HeaderVLAN)
			case 4:
				if len(pending) > 0 {
					t := pending[len(pending)-1]
					pending = pending[:len(pending)-1]
					actions = append(actions, Decap(t))
				} else {
					actions = append(actions, Forward())
				}
			case 5:
				tb, _ := r.next()
				t := packet.HeaderAH
				if tb%2 == 1 {
					t = packet.HeaderVLAN
				}
				actions = append(actions, Decap(t))
			}
		}
		db, ok := r.next()
		if ok && db%13 == 0 {
			actions = append(actions, Drop())
			dropped = true
		}
		cs = append(cs, Contribution{NF: fmt.Sprintf("nf%d", i), Rule: &LocalRule{Actions: actions}})
		if dropped {
			break
		}
	}
	return cs
}

// FuzzConsolidate is the consolidation equivalence property under
// fuzzed action programs: any program that consolidates must produce a
// rule whose program's single application is byte-identical, verdict and
// checksums included, to applying the per-NF actions in chain order
// (ApplyNaive), and leaves a well-formed frame with valid checksums; any
// program the consolidator refuses must fail with ErrNotConsolidatable,
// never anything else.
func FuzzConsolidate(f *testing.F) {
	// Seeded corpus: plain forward, a modify chain, balanced
	// encap/decap, a drop program, an unmatched decap, and a dense
	// random-looking program.
	f.Add([]byte{0, 1, 0})
	f.Add([]byte{3, 4, 1, 1, 9, 9, 9, 9, 1, 0, 10, 0, 0, 2, 1})
	f.Add([]byte{1, 3, 2, 7, 3, 200, 4, 1})
	f.Add([]byte{2, 2, 1, 5, 42, 42, 0, 13})
	f.Add([]byte{0, 2, 5, 0, 5, 1, 1})
	f.Add([]byte{255, 4, 2, 9, 1, 1, 1, 2, 3, 4, 3, 77, 4, 1, 1, 3, 1, 4, 5, 6, 0, 26})
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
		base, err := packet.Build(packet.Spec{
			SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
			SrcPort: 1111, DstPort: 2222, Proto: packet.ProtoTCP,
			TCPFlags: packet.TCPFlagACK, Seq: 7,
			Payload: []byte("fuzz-equivalence"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !diffNaive(t, rule, cs, base) {
			// The program decaps a header the packet never carried; the
			// original path would have failed mid-chain, so the sequence
			// could never have been recorded and there is nothing to
			// compare.
			t.Skip()
		}
		out := base.Clone()
		if alive, _ := rule.ExecHeader(out); alive && !out.VerifyChecksums() {
			t.Fatal("consolidated output has invalid checksums")
		}
	})
}
