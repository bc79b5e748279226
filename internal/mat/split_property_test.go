package mat

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/packet"
)

// Property-based consolidation tests over the same corpus shapes the
// fuzzer uses: a seeded generator draws random action programs, decodes
// them through decodeContribs (so every program the fuzzer can reach is
// reachable here, deterministically), and checks the algebraic
// properties a live reconfiguration relies on — in particular that
// consolidation composes across a chain split, since Reconfigure's
// epoch machinery re-consolidates flows against an arbitrary new
// partition of their NF sequence.

// propPrograms yields deterministic random fuzz-shaped programs.
func propPrograms(seed int64, n, maxLen int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		b := make([]byte, 1+rng.Intn(maxLen))
		rng.Read(b)
		out[i] = b
	}
	return out
}

// propPacket builds the canonical test packet.
func propPacket(t *testing.T) *packet.Packet {
	t.Helper()
	p, err := packet.Build(packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: 1111, DstPort: 2222, Proto: packet.ProtoTCP,
		TCPFlags: packet.TCPFlagACK, Seq: 7,
		Payload: []byte("split-composition"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPropSplitComposition: consolidating a whole chain is equivalent
// to consolidating a prefix, applying it, then consolidating the
// suffix and applying that — for every split point. This is the
// property that makes mid-chain reconfiguration safe: the Global MAT
// may be rebuilt from any partition of the recorded contributions
// without changing packet-observable behaviour.
func TestPropSplitComposition(t *testing.T) {
	checked := 0
	for pi, prog := range propPrograms(0x5eedc0de, 600, 40) {
		cs := decodeContribs(prog)
		if len(cs) < 2 {
			continue
		}
		whole, err := Consolidate(1, cs)
		if err != nil {
			if !errors.Is(err, ErrNotConsolidatable) {
				t.Fatalf("program %d: non-sentinel error: %v", pi, err)
			}
			continue
		}
		pWhole := propPacket(t)
		if _, err := ApplyNaive(pWhole.Clone(), cs); err != nil {
			// The program decaps a header the packet never carried;
			// the original path would have failed mid-chain, so the
			// sequence could never have been recorded.
			continue
		}
		aliveW, err := whole.ExecHeader(pWhole)
		if err != nil {
			t.Fatalf("program %d: whole rule failed: %v", pi, err)
		}
		for k := 1; k < len(cs); k++ {
			ruleA, errA := Consolidate(1, cs[:k])
			ruleB, errB := Consolidate(1, cs[k:])
			if errA != nil || errB != nil {
				// A split can orphan a decap against the packet's
				// ingress headers; that half legitimately refuses, and
				// the slow path covers the flow.
				if (errA != nil && !errors.Is(errA, ErrNotConsolidatable)) ||
					(errB != nil && !errors.Is(errB, ErrNotConsolidatable)) {
					t.Fatalf("program %d split %d: non-sentinel error: %v / %v", pi, k, errA, errB)
				}
				continue
			}
			pSeq := propPacket(t)
			aliveA, err := ruleA.ExecHeader(pSeq)
			if err != nil {
				t.Fatalf("program %d split %d: prefix rule failed: %v", pi, k, err)
			}
			aliveSeq := aliveA
			if aliveA {
				aliveSeq, err = ruleB.ExecHeader(pSeq)
				if err != nil {
					t.Fatalf("program %d split %d: suffix rule failed: %v", pi, k, err)
				}
			}
			if aliveW != aliveSeq {
				t.Fatalf("program %d split %d: verdict divergence: whole alive=%v, split alive=%v",
					pi, k, aliveW, aliveSeq)
			}
			if !aliveW {
				if !pSeq.Dropped() {
					t.Fatalf("program %d split %d: split path did not mark the packet dropped", pi, k)
				}
				continue
			}
			if !bytes.Equal(pWhole.Data(), pSeq.Data()) {
				t.Fatalf("program %d split %d: byte divergence:\nwhole: %x\nsplit: %x",
					pi, k, pWhole.Data(), pSeq.Data())
			}
			if !pSeq.VerifyChecksums() {
				t.Fatalf("program %d split %d: split output has invalid checksums", pi, k)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no split compositions checked; the generator was vacuous")
	}
}

// TestPropDropDominanceCorpus: appending a dropping NF to any corpus
// program makes the consolidated verdict drop, with no residual header
// work — over the full fuzz-shaped corpus rather than hand-balanced
// action lists.
func TestPropDropDominanceCorpus(t *testing.T) {
	checked := 0
	for pi, prog := range propPrograms(0xd20bd06e, 400, 40) {
		cs := decodeContribs(prog)
		if len(cs) == 0 {
			continue
		}
		cs = append(cs, Contribution{NF: "dropper", Rule: &LocalRule{
			Actions: []HeaderAction{Drop()},
		}})
		rule, err := Consolidate(1, cs)
		if err != nil {
			if !errors.Is(err, ErrNotConsolidatable) {
				t.Fatalf("program %d: non-sentinel error: %v", pi, err)
			}
			continue
		}
		if !rule.Drop {
			t.Fatalf("program %d: dropper appended but rule.Drop is false", pi)
		}
		if acts, _ := rule.HeaderActions(); len(acts) != 1 || acts[0].Kind != ActionDrop {
			t.Fatalf("program %d: dropped rule's program %v retains header work", pi, acts)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no drop programs checked; the generator was vacuous")
	}
}

// TestPropStackResidue: the consolidated rule's residual stack ops
// equal an independent (much simpler) simulation of the encap/decap
// stack over the whole program — ingress decaps in order, unmatched
// encaps bottom-to-top — and a mismatched pop is exactly the refusal
// condition.
func TestPropStackResidue(t *testing.T) {
	checked := 0
	for pi, prog := range propPrograms(0x57ac4e51, 500, 40) {
		cs := decodeContribs(prog)
		if len(cs) == 0 {
			continue
		}
		// Independent model: one linear walk over all actions.
		var model []packet.ExtraHeader
		var ingress []packet.HeaderType
		mismatch, dropped := false, false
	walk:
		for _, c := range cs {
			for _, a := range c.Rule.Actions {
				switch a.Kind {
				case ActionEncap:
					model = append(model, a.Header)
				case ActionDecap:
					if len(model) > 0 {
						if model[len(model)-1].Type != a.HeaderType {
							mismatch = true
							break walk
						}
						model = model[:len(model)-1]
					} else {
						ingress = append(ingress, a.HeaderType)
					}
				case ActionDrop:
					dropped = true
					break walk
				}
			}
		}

		rule, err := Consolidate(1, cs)
		if mismatch {
			if !errors.Is(err, ErrNotConsolidatable) {
				t.Fatalf("program %d: model found a mismatched pop but Consolidate returned %v", pi, err)
			}
			checked++
			continue
		}
		if err != nil {
			t.Fatalf("program %d: model accepts but Consolidate refused: %v", pi, err)
		}
		// The program's stack ops, disassembled: its decaps, then its
		// encaps.
		var want []HeaderAction
		if !dropped {
			for _, t := range ingress {
				want = append(want, Decap(t))
			}
			for _, h := range model {
				want = append(want, Encap(h))
			}
		}
		acts, ok := rule.HeaderActions()
		if !ok {
			t.Fatalf("program %d: %x does not disassemble", pi, rule.Prog)
		}
		var stack []HeaderAction
		for _, a := range acts {
			if a.Kind == ActionDecap || a.Kind == ActionEncap {
				stack = append(stack, a)
			}
		}
		if !slices.EqualFunc(stack, want, func(a, b HeaderAction) bool { return a.Equal(&b) }) {
			t.Fatalf("program %d: residual stack ops %v, model %v", pi, stack, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no stack programs checked; the generator was vacuous")
	}
}
