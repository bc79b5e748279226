package flow

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fastpathnfv/speedybox/internal/packet"
)

// twinKeys returns n distinct keys that share one tuple-index key word
// (see TestFlowTableHammer: a hi equal to the seed word mixes every lo
// to the same word), all in one shard.
func twinKeys(n int) [][2]uint64 {
	var keys [][2]uint64
	for lo := uint64(packet.ProtoUDP); len(keys) < n; lo += 1 << 8 {
		if HashKey(keySeed[0], lo)&shardMask == 5 {
			keys = append(keys, [2]uint64{keySeed[0], lo})
		}
	}
	return keys
}

// TestAcquireKeysMatchesAcquireKey: the staged lookup returns, key for
// key, what the one-key probe returns, over random vectors of tracked
// keys, absent keys, keys whose home slot is a tombstone and keys that
// share a tag with other tracked keys, with flows inserted and removed
// between vectors — growing, compacting and emptying slot arrays — and
// one probe slice reused throughout, never reset.
func TestAcquireKeysMatchesAcquireKey(t *testing.T) {
	tbl := NewTable()
	rng := rand.New(rand.NewSource(1))
	var keys [][2]uint64
	for i := 0; i < 600; i++ {
		ft := packet.FiveTuple{SrcIP: packet.IP4(10, 0, byte(i>>8), byte(i)), DstIP: packet.IP4(10, 1, 0, 1),
			SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoUDP}
		hi, lo := ft.Key()
		keys = append(keys, [2]uint64{hi, lo})
	}
	keys = append(keys, twinKeys(24)...)
	keys = append(keys, sameHomeKeys(t, 0x3a5c0, 40)...)
	tracked := make([]bool, len(keys))
	var probes []KeyProbe
	found, absent := 0, 0
	for round := 0; round < 400; round++ {
		// Churn between vectors: a burst of inserts or of removals, so
		// arrays grow, fill with tombstones, compact and empty.
		ins := round%40 < 25
		for n := rng.Intn(60); n > 0; n-- {
			i := rng.Intn(len(keys))
			switch {
			case ins && !tracked[i]:
				if _, _, err := tbl.InsertKey(keys[i][0], keys[i][1]); err != nil {
					t.Fatal(err)
				}
				tracked[i] = true
			case !ins && tracked[i]:
				h, _ := tbl.AcquireKey(keys[i][0], keys[i][1])
				tbl.Remove(h.FID())
				tracked[i] = false
			}
		}
		probes = probes[:0]
		for n := 1 + rng.Intn(48); n > 0; n-- {
			k := keys[rng.Intn(len(keys))]
			probes = append(probes, KeyProbe{Hi: k[0], Lo: k[1]})
		}
		tbl.AcquireKeys(probes)
		for i := range probes {
			p := &probes[i]
			got, gotOK := p.Handle()
			want, wantOK := tbl.AcquireKey(p.Hi, p.Lo)
			if got != want || gotOK != wantOK {
				t.Fatalf("round %d key %x/%x: staged (%v, %v), AcquireKey (%v, %v)", round, p.Hi, p.Lo, got.e, gotOK, want.e, wantOK)
			}
			if gotOK {
				found++
			} else {
				absent++
			}
		}
	}
	if found == 0 || absent == 0 || tbl.Rebuilds() < 2*ShardCount {
		t.Errorf("%d found, %d absent, %d arrays published: the vectors did not cover both outcomes and rebuilds", found, absent, tbl.Rebuilds())
	}
}

// TestAcquireKeysHammer runs one worker staging vectors against another
// inserting and removing flows in the same shards, under -race. Resident
// keys are never removed: every staged lookup must find them. A handle is
// always for the key asked. A churn key whose writer's seqlock word did
// not move across the lookup must be found exactly when it is tracked.
func TestAcquireKeysHammer(t *testing.T) {
	tbl := NewTable()
	keys := append(sameHomeKeys(t, 0x1b2e0, 256), twinKeys(32)...)
	const resident = 64
	for _, k := range keys[:resident] {
		if _, _, err := tbl.InsertKey(k[0], k[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys[256 : 256+8] { // twin residents
		if _, _, err := tbl.InsertKey(k[0], k[1]); err != nil {
			t.Fatal(err)
		}
	}
	isResident := func(i int) bool { return i < resident || (i >= 256 && i < 256+8) }
	// seq[i]: version<<2 | tracked<<1 | busy, written by the churn writer.
	seq := make([]atomic.Uint64, len(keys))
	var stop atomic.Bool
	var wg sync.WaitGroup
	var cycles atomic.Uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(3))
		for !stop.Load() {
			i := rng.Intn(len(keys))
			if isResident(i) {
				continue
			}
			s := seq[i].Load()
			seq[i].Store((s + 4) | 1)
			if s&2 == 0 {
				if _, _, err := tbl.InsertKey(keys[i][0], keys[i][1]); err != nil {
					t.Error(err)
				}
				seq[i].Store((s + 4) | 2)
			} else {
				h, _ := tbl.AcquireKey(keys[i][0], keys[i][1])
				tbl.Remove(h.FID())
				seq[i].Store((s + 4) &^ 2)
			}
			cycles.Add(1)
		}
	}()
	var lost, wrongKey, wrongOwned, owned atomic.Uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(4))
		probes := make([]KeyProbe, 32)
		idx := make([]int, 32)
		before := make([]uint64, 32)
		for !stop.Load() {
			for j := range probes {
				idx[j] = rng.Intn(len(keys))
				before[j] = seq[idx[j]].Load()
				probes[j].Hi, probes[j].Lo = keys[idx[j]][0], keys[idx[j]][1]
			}
			tbl.AcquireKeys(probes)
			for j := range probes {
				h, ok := probes[j].Handle()
				if ok && (h.e.hi != probes[j].Hi || h.e.lo != probes[j].Lo) {
					wrongKey.Add(1)
				}
				i := idx[j]
				if isResident(i) {
					if !ok {
						lost.Add(1)
					}
				} else if s := before[j]; s&1 == 0 && seq[i].Load() == s {
					owned.Add(1)
					if ok != (s&2 != 0) {
						wrongOwned.Add(1)
					}
				}
			}
		}
	}()
	for start := time.Now(); ; {
		time.Sleep(50 * time.Millisecond)
		if d := time.Since(start); d >= 3*time.Second || (d >= 300*time.Millisecond && owned.Load() > 0 && tbl.Rebuilds() >= 8) {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if lost.Load() != 0 || wrongKey.Load() != 0 || wrongOwned.Load() != 0 {
		t.Errorf("%d residents lost, %d handles for another key, %d unraced lookups disagreeing with the writer",
			lost.Load(), wrongKey.Load(), wrongOwned.Load())
	}
	t.Logf("%d writer cycles, %d owned checks, %d arrays published", cycles.Load(), owned.Load(), tbl.Rebuilds())
	if cycles.Load() == 0 || owned.Load() == 0 {
		t.Error("hammer did not race the writer")
	}
}
