package cluster

import (
	"math/big"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

func TestPopulateCoversEverySlot(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7} {
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('a' + i))
		}
		table := populate(names, DefaultTableSize)
		if len(table) != DefaultTableSize {
			t.Fatalf("n=%d: table size %d", n, len(table))
		}
		counts := make([]int, n)
		for slot, owner := range table {
			if owner < 0 || int(owner) >= n {
				t.Fatalf("n=%d: slot %d owned by %d", n, slot, owner)
			}
			counts[owner]++
		}
		// Maglev's round-robin fill keeps ownership near-uniform.
		for i, c := range counts {
			if n > 1 && (c < DefaultTableSize/(2*n) || c > DefaultTableSize*2/n) {
				t.Errorf("n=%d: instance %d owns %d/%d slots", n, i, c, DefaultTableSize)
			}
		}
	}
}

func TestPopulateDeterministic(t *testing.T) {
	names := []string{"i0", "i1", "i2"}
	a := populate(names, DefaultTableSize)
	b := populate(names, DefaultTableSize)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("slot %d differs across identical populate calls", i)
		}
	}
}

// TestPopulateMinimalDisruption is the consistent-hashing property the
// rebalancer depends on: adding one instance remaps roughly 1/N of the
// slots and never moves a slot between two surviving instances.
func TestPopulateMinimalDisruption(t *testing.T) {
	names := []string{"i0", "i1", "i2"}
	before := populate(names, DefaultTableSize)
	after := populate(append(names, "i3"), DefaultTableSize)
	moved, toNew := 0, 0
	for i := range before {
		if before[i] != after[i] {
			moved++
			if after[i] == 3 {
				toNew++
			}
		}
	}
	// Maglev is not perfectly minimal: growing the fleet shifts the
	// round-robin interleave, so a handful of slots may trade hands
	// between survivors. The paper's measured disruption stays within
	// a few percent of the table; hold it there.
	if crossMoves := moved - toNew; crossMoves > DefaultTableSize*3/100 {
		t.Errorf("%d slots moved between surviving instances (total moved %d)", crossMoves, moved)
	}
	// Expect ~1/4 of slots to move to the new instance; allow slack.
	if moved < DefaultTableSize/8 || moved > DefaultTableSize/2 {
		t.Errorf("%d/%d slots moved on +1 instance; expected ~%d", moved, DefaultTableSize, DefaultTableSize/4)
	}
}

// TestTableSizeIsPrime holds the steering table to a prime size: the
// Maglev permutation's skip must be coprime with it to reach every
// slot.
func TestTableSizeIsPrime(t *testing.T) {
	if !big.NewInt(DefaultTableSize).ProbablyPrime(0) {
		t.Errorf("DefaultTableSize %d is not prime", DefaultTableSize)
	}
}

// TestHashKeyMatchesHashTuple checks the steering hash over the packed
// two-word flow key agrees with the flow table's 5-tuple hash — the
// invariant that keeps cluster steering aligned with home-FID
// allocation (a mismatch would scatter a flow's FID probing across
// instances).
func TestHashKeyMatchesHashTuple(t *testing.T) {
	tuples := []packet.FiveTuple{
		{SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{192, 0, 2, 9}, SrcPort: 1234, DstPort: 80, Proto: 6},
		{SrcIP: [4]byte{172, 16, 5, 200}, DstIP: [4]byte{8, 8, 8, 8}, SrcPort: 53211, DstPort: 53, Proto: 17},
		{SrcIP: [4]byte{0, 0, 0, 0}, DstIP: [4]byte{255, 255, 255, 255}, SrcPort: 0, DstPort: 65535, Proto: 255},
	}
	for _, tu := range tuples {
		hi := uint64(tu.SrcIP[0])<<56 | uint64(tu.SrcIP[1])<<48 | uint64(tu.SrcIP[2])<<40 | uint64(tu.SrcIP[3])<<32 |
			uint64(tu.DstIP[0])<<24 | uint64(tu.DstIP[1])<<16 | uint64(tu.DstIP[2])<<8 | uint64(tu.DstIP[3])
		lo := uint64(tu.SrcPort)<<24 | uint64(tu.DstPort)<<8 | uint64(tu.Proto)
		if got, want := flow.HashKey(hi, lo), flow.HashTuple(tu); got != want {
			t.Errorf("HashKey(%v) = %v, HashTuple = %v", tu, got, want)
		}
	}
}
