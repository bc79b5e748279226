// Package cluster runs N engine instances behind a consistent-hash
// flow steerer, with elastic scale-up/scale-down that live-migrates
// every reassigned flow (flow entry, its NFs' per-flow state,
// consolidated rule, ladder reset) to its new owner with zero packet
// loss and no verdict divergence.
//
// The chain NFs are shared across instances, exactly like a multi-chain
// topology shares named NFs: cross-flow NF state (NAT port pool and
// cursor, backend health, quotas) is one per fleet and sees every packet
// once in arrival order. Nothing about a single flow lives in an NF: its
// NAT translation, connection pin, counters and cached decisions are
// words on its flow record in the owning instance's flow table, and they
// move with it in the migration record.
// Steering is by the flow's home FID — the same FNV fold the flow table
// hashes 5-tuples with — so all tuples sharing a home slot land on one
// instance and that instance's table disambiguates them by probing,
// keeping FID assignment consistent with what a single engine would
// allocate.
package cluster

import (
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/nf/maglev"
)

// DefaultTableSize is the steering-table size — the same small prime
// the Maglev NF defaults to (the real Maglev paper uses 65537; a
// smaller prime keeps rebalance cost and test time down while still
// spreading slots near-uniformly).
const DefaultTableSize = 653

// populate builds a consistent-hash steering table over the instance
// names using the Maglev §3.4 algorithm (the same permutation scheme as
// internal/nf/maglev, over engine instances instead of backends): each
// instance derives an (offset, skip) permutation of the prime-sized
// table from two hashes of its name, and a round-robin walk hands every
// slot to the next instance preferring it. Adding or removing one
// instance therefore remaps only ~1/N of the slots — the flows the
// rebalance must migrate — and leaves every other flow's owner alone.
func populate(names []string, size int) []int32 {
	table := make([]int32, size)
	for i := range table {
		table[i] = 0
	}
	if len(names) <= 1 {
		return table
	}
	type perm struct {
		offset, skip uint64
		next         uint64
		idx          int32
	}
	perms := make([]perm, len(names))
	for i, name := range names {
		perms[i] = perm{
			offset: maglev.HashName(name, 0x9e37) % uint64(size),
			skip:   maglev.HashName(name, 0x85eb)%uint64(size-1) + 1,
			idx:    int32(i),
		}
	}
	filled := 0
	for i := range table {
		table[i] = -1
	}
	for filled < size {
		for p := range perms {
			pm := &perms[p]
			var c uint64
			for {
				c = (pm.offset + pm.next*pm.skip) % uint64(size)
				pm.next++
				if table[c] == -1 {
					break
				}
			}
			table[c] = pm.idx
			filled++
			if filled == size {
				break
			}
		}
	}
	return table
}

// slotOf maps a home FID to its steering slot.
func slotOf(home flow.FID, tableLen int) int {
	return int(uint32(home) % uint32(tableLen))
}
