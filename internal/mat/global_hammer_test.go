package mat

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fastpathnfv/speedybox/internal/flow"
)

// TestGlobalRaceHammer drives the lock-free readers against every
// mutating path at once — Install, Remove, MarkStale, AdvanceEpoch,
// SweepEpoch, and the growth and compaction that publish a fresh slot
// array under the readers' feet — and checks what a reader may rely
// on. Run it under -race to exercise the store order (slot stores
// before the generation bump; rule before a live key, dead key before
// a dropped rule).
//
// Two FID ranges. The chaos range is written by everyone at once, so
// only writer-independent invariants hold there: a hit is a rule for
// the probed FID, LookupLive serves no rule of another epoch while the
// epoch stood still, ForEach yields no nil. The owned range has one
// writer per FID, cycling Install / replace / MarkStale / reinstall /
// Remove over more FIDs per shard than a shard's tombstone budget. It
// brackets every operation in a per-FID seqlock word and tags every
// rule it installs with the word's version, so a reader can tell what
// the last completed operation on a FID left, and has two independent
// witnesses that its lookups raced none:
//
//   - the seqlock: the word read before and after the lookups is the
//     same and not busy;
//   - the generation, which is the contract core's flow contexts live
//     by: the word read after the lookups is not busy and Gen() read
//     before and after them agrees. The operation the word names is complete, so
//     its bump has happened; the generation did not move, so the bump
//     came before the first Gen() read; and the slot stores come before
//     the bump, so the lookups saw them. (Any later operation would
//     have turned the word busy before it touched the slot.) This is
//     the witness that fails when a writer bumps before it stores.
//
// Under either, a lookup must return exactly what that operation left
// — a live hit is the very rule it installed, never a stale-marked or
// removed one — except that the epoch sweep, which may stale-mark an
// owned rule at any time, can make the table staler than the word says.
func TestGlobalRaceHammer(t *testing.T) {
	g := NewGlobal()
	const (
		chaos = 256  // 8 per shard
		owned = 4096 // 128 per shard, in arrays of 16-32 slots
		total = chaos + owned
		// Seqlock word: version<<2 | stale<<1 | present; odd version =
		// an operation is in flight.
		present = 1
		stale   = 2
	)
	var (
		stop   atomic.Bool
		wg     sync.WaitGroup
		shadow [owned]atomic.Uint64
		cursor [2]atomic.Uint32 // the owned index each owned writer is operating on
	)

	// Chaos writers: disjoint FID ranges for Install/Remove so rule
	// pointers have a single writer, plus one stale-marker over the
	// whole chaos range and one epoch driver over the whole table.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			lo, hi := w*chaos/2, (w+1)*chaos/2
			for !stop.Load() {
				fid := flow.FID(lo + rng.Intn(hi-lo))
				if rng.Intn(3) < 2 {
					g.Install(&GlobalRule{FID: fid, Epoch: g.Epoch()})
				} else {
					g.Remove(fid)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for !stop.Load() {
			g.MarkStale(flow.FID(rng.Intn(chaos)))
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			g.SweepEpoch(g.AdvanceEpoch())
			// Paced, so rules live long enough for LookupLive to hit.
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Owned writers: each walks its half of the owned range with a
	// window of resident rules behind it, so every shard keeps keying
	// fresh slots and burying old ones — arrays are compacted and
	// published the whole time readers probe them.
	var cycles atomic.Uint64
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(10 + w)))
			const span, window = owned / 2, 64
			// op runs do between a busy and a completed seqlock word; tag
			// is the completed word's version.
			op := func(i int, state uint64, do func(fid flow.FID, tag int)) {
				sh := &shadow[i]
				cursor[w].Store(uint32(i))
				ver := sh.Load()>>2 + 1
				sh.Store(ver << 2) // odd: busy
				do(flow.FID(chaos+i), int(ver+1))
				sh.Store((ver+1)<<2 | state)
			}
			install := func(fid flow.FID, tag int) {
				g.Install(&GlobalRule{FID: fid, Epoch: g.Epoch(), SourceNFs: tag})
			}
			markStale := func(fid flow.FID, _ int) { g.MarkStale(fid) }
			remove := func(fid flow.FID, _ int) { g.Remove(fid) }
			for n := 0; !stop.Load(); n++ {
				i := w*span + n%span
				op(i, present, install)
				switch rng.Intn(4) {
				case 0:
					op(i, present|stale, markStale)
					if rng.Intn(2) == 0 {
						op(i, present, install) // replace over stale
					}
				case 1:
					op(i, present, install) // replace over live
				}
				if n >= window {
					op(w*span+(n-window)%span, 0, remove)
				}
				cycles.Add(1)
			}
		}(w)
	}

	// Readers. The failure counters are sticky; t.Errorf is not called
	// from the racing goroutines to keep the hot loops allocation-free.
	var (
		badFID, badEpoch, badOwned, badGen, badEach atomic.Uint64
		hits, ownedLive, seqChecks                  atomic.Uint64
		genHeld, genOnly, genMoves                  atomic.Uint64
	)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			lastGen := g.Gen()
			for !stop.Load() {
				fid := flow.FID(rng.Intn(total))
				if rng.Intn(2) == 0 {
					// Chase an owned writer: probe the FID it is on now.
					fid = flow.FID(chaos + cursor[rng.Intn(len(cursor))].Load())
				}
				var sh *atomic.Uint64
				var s1 uint64
				if fid >= chaos {
					sh = &shadow[fid-chaos]
					s1 = sh.Load()
				}
				g1, e1 := g.Gen(), g.Epoch()
				if g1 != lastGen {
					genMoves.Add(1)
					lastGen = g1
				}
				rule, ok := g.Lookup(fid)
				live, okLive := g.LookupLive(fid)
				isStale := g.IsStale(fid)
				if ok {
					hits.Add(1)
					if rule.FID != fid {
						badFID.Add(1)
					}
				}
				if okLive && (live.FID != fid || (g.Epoch() == e1 && live.Epoch != e1)) {
					badEpoch.Add(1)
				}
				if sh != nil {
					// Lookups that began inside an operation wait, briefly,
					// for it to complete: past its generation bump, only
					// the generation can vouch for them.
					s2 := sh.Load()
					for spin := 0; s2>>2&1 != 0 && spin < 256; spin++ {
						s2 = sh.Load()
					}
					bySeq, byGen := s2 == s1, g.Gen() == g1
					if byGen {
						genHeld.Add(1)
					}
					if s2>>2&1 == 0 && (bySeq || byGen) {
						wantPresent, wantStale := s2&present != 0, s2&stale != 0
						if ok != wantPresent || (wantStale && !isStale) || (isStale && !wantPresent) ||
							(okLive && (!wantPresent || wantStale || live.SourceNFs != int(s2>>2))) {
							if bySeq {
								badOwned.Add(1)
							} else {
								badGen.Add(1)
							}
						}
						if bySeq {
							seqChecks.Add(1)
						} else {
							genOnly.Add(1)
						}
						if okLive {
							ownedLive.Add(1)
						}
					}
				}
				if rng.Intn(256) == 0 {
					n := 0
					g.ForEach(func(rule *GlobalRule) {
						if rule == nil || rule.FID >= total {
							badEach.Add(1)
						}
						n++
					})
					if n > total || g.Len() > total || g.StaleLen() > total || g.DeadSlots() < 0 {
						badEach.Add(1)
					}
				}
			}
		}(r)
	}

	// Drive for a wall-clock window (not an iteration count): the point
	// is scheduler interleaving, and a fast machine would finish a counted
	// loop before the reader goroutines ever run. The window stretches, up
	// to 2 s, on a host that ran readers and writers mostly in turns: the
	// generation witness needs lookups that began inside an operation.
	before := g.Publishes()
	for start := time.Now(); ; {
		time.Sleep(50 * time.Millisecond)
		if d := time.Since(start); d >= 2*time.Second || (d >= 250*time.Millisecond && genOnly.Load() >= 64) {
			break
		}
	}
	stop.Store(true)
	wg.Wait()

	for _, c := range []struct {
		n    *atomic.Uint64
		what string
	}{
		{&badFID, "lookups returned a rule for the wrong FID"},
		{&badEpoch, "LookupLive hits were of another epoch while the epoch stood still"},
		{&badOwned, "unraced lookups disagreed with the last completed operation"},
		{&badGen, "lookups within an unchanged generation disagreed with the last completed operation"},
		{&badEach, "ForEach/Len inconsistencies"},
	} {
		if n := c.n.Load(); n != 0 {
			t.Errorf("%d %s", n, c.what)
		}
	}
	published := g.Publishes() - before
	t.Logf("%d hits; owned checks: %d by seqlock, %d by generation alone (%d live); generation held across %d probes, moved between %d; %d owned cycles, %d arrays published",
		hits.Load(), seqChecks.Load(), genOnly.Load(), ownedLive.Load(), genHeld.Load(), genMoves.Load(), cycles.Load(), published)
	if hits.Load() == 0 || seqChecks.Load() == 0 || ownedLive.Load() == 0 {
		t.Error("hammer did not exercise the read side")
	}
	if genHeld.Load() == 0 || genMoves.Load() == 0 {
		t.Errorf("generation held across %d probes and moved between %d: the bracket is vacuous",
			genHeld.Load(), genMoves.Load())
	}
	// Every owned cycle buries a slot; a shard's budget is a few dozen.
	if published < 32 {
		t.Errorf("%d owned cycles published only %d arrays: compaction was not raced", cycles.Load(), published)
	}
}

// modelRule is what the map model remembers of one installed rule.
type modelRule struct {
	stale   bool
	epoch   uint64
	version uint64
}

// globalModel pairs a Global with a plain map model. Every operation
// is applied to both and its result compared; check compares the
// observables. The generation must move on every mutation — including
// no-op Remove and MarkStale, which the contract bumps so workers'
// cached rule pointers revalidate — and never regress.
type globalModel struct {
	t       *testing.T
	g       *Global
	rules   map[flow.FID]*modelRule
	stale   int
	epoch   uint64
	lastGen uint64
	seed    int64
	step    int
}

func newGlobalModel(t *testing.T, seed int64) *globalModel {
	g := NewGlobal()
	return &globalModel{t: t, g: g, rules: make(map[flow.FID]*modelRule), lastGen: g.Gen(), seed: seed}
}

func (m *globalModel) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("seed %d step %d: "+format, append([]any{m.seed, m.step}, args...)...)
}

// bumped checks the generation after an operation.
func (m *globalModel) bumped(mutated bool) {
	m.t.Helper()
	gen := m.g.Gen()
	if gen < m.lastGen || (mutated && gen == m.lastGen) {
		m.fatalf("generation %d -> %d (mutated=%v)", m.lastGen, gen, mutated)
	}
	m.lastGen = gen
}

func (m *globalModel) install(r *GlobalRule) {
	m.t.Helper()
	r.Epoch = m.epoch
	old, want := m.rules[r.FID]
	if got := m.g.Install(r); got != want {
		m.fatalf("Install(%v) replaced = %v, model %v", r.FID, got, want)
	}
	nr := &modelRule{epoch: m.epoch}
	if want {
		nr.version = old.version + 1
		if old.stale {
			m.stale--
		}
	}
	m.rules[r.FID] = nr
	m.bumped(true)
}

func (m *globalModel) remove(fid flow.FID) {
	m.t.Helper()
	old, want := m.rules[fid]
	if got := m.g.Remove(fid); got != want {
		m.fatalf("Remove(%v) = %v, model %v", fid, got, want)
	}
	if want && old.stale {
		m.stale--
	}
	delete(m.rules, fid)
	m.bumped(true)
}

func (m *globalModel) markStale(fid flow.FID) {
	m.t.Helper()
	// MarkStale reports presence, not "newly marked": an already-stale
	// rule still returns true.
	r, want := m.rules[fid]
	if got := m.g.MarkStale(fid); got != want {
		m.fatalf("MarkStale(%v) = %v, model %v", fid, got, want)
	}
	if want && !r.stale {
		r.stale = true
		m.stale++
	}
	m.bumped(true)
}

func (m *globalModel) advanceEpoch() {
	m.t.Helper()
	m.epoch = m.g.AdvanceEpoch()
	m.bumped(true)
}

// sweep returns how many rules it marked.
func (m *globalModel) sweep() int {
	m.t.Helper()
	want := 0
	for _, r := range m.rules {
		if !r.stale && r.epoch != m.epoch {
			r.stale = true
			want++
		}
	}
	m.stale += want
	if got := m.g.SweepEpoch(m.epoch); got != want {
		m.fatalf("SweepEpoch = %d, model %d", got, want)
	}
	// A sweep that marks nothing touches nothing — caches stay valid,
	// so no generation bump is required.
	m.bumped(want > 0)
	return want
}

// check compares every observable of the probed FIDs and the sizes.
func (m *globalModel) check(probes ...flow.FID) {
	m.t.Helper()
	for _, fid := range probes {
		r, want := m.rules[fid]
		rule, got := m.g.Lookup(fid)
		if got != want {
			m.fatalf("Lookup(%v) = %v, model %v", fid, got, want)
		}
		if got && (rule.FID != fid || rule.Version != r.version) {
			m.fatalf("Lookup(%v) rule fid=%v version=%d, model version=%d", fid, rule.FID, rule.Version, r.version)
		}
		if gotStale := m.g.IsStale(fid); gotStale != (want && r.stale) {
			m.fatalf("IsStale(%v) = %v", fid, gotStale)
		}
		wantLive := want && !r.stale && r.epoch == m.epoch
		if _, gotLive := m.g.LookupLive(fid); gotLive != wantLive {
			m.fatalf("LookupLive(%v) = %v, model %v", fid, gotLive, wantLive)
		}
	}
	if m.g.Len() != len(m.rules) || m.g.StaleLen() != m.stale {
		m.fatalf("Len %d StaleLen %d, model %d %d", m.g.Len(), m.g.StaleLen(), len(m.rules), m.stale)
	}
}

// TestGlobalModelProperty drives a seeded random operation sequence
// over all 32 shards against the map model, comparing every observable
// after every step: presence, staleness, liveness, sizes, and
// generation monotonicity.
func TestGlobalModelProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newGlobalModel(t, seed)
		const fids = 96
		for m.step = 0; m.step < 4000; m.step++ {
			fid := flow.FID(rng.Intn(fids))
			switch op := rng.Intn(10); {
			case op < 4:
				m.install(&GlobalRule{FID: fid})
			case op < 6: // maybe a no-op
				m.remove(fid)
			case op < 8: // maybe a no-op
				m.markStale(fid)
			case op < 9:
				m.advanceEpoch()
			default:
				m.sweep()
			}
			m.check(fid, flow.FID(rng.Intn(fids)))
		}
	}
}

// TestGlobalModelOneShard is the model test where the in-place table
// does its work: one shard holding over a thousand rules, installs
// drawn from 32 768 FIDs so slots keep being keyed and buried. It must
// see growth, tombstones piling up, a tombstone revived by its own
// FID, a replace over a stale mark, an in-place epoch sweep and
// compaction, all op-for-op equal to the map model; every published
// array is sized to the rules it holds; and the table drains back to
// the shared empty array.
func TestGlobalModelOneShard(t *testing.T) {
	const (
		shard    = 7
		universe = 1 << (flow.FIDBits - shardBits)
		target   = 1280
		steps    = 60000
	)
	rng := rand.New(rand.NewSource(1))
	m := newGlobalModel(t, 1)
	s := &m.g.shards[shard]
	anyFID := func() flow.FID { return flow.FID(rng.Intn(universe))<<shardBits | shard }
	// resident mirrors the model's key set for O(1) random picks;
	// buried is a ring of recently removed FIDs.
	var resident, buried []flow.FID
	where := make(map[flow.FID]int)
	pickResident := func() flow.FID {
		if len(resident) == 0 {
			return anyFID()
		}
		return resident[rng.Intn(len(resident))]
	}
	install := func(fid flow.FID) {
		if _, ok := m.rules[fid]; !ok {
			where[fid] = len(resident)
			resident = append(resident, fid)
		}
		m.install(&GlobalRule{FID: fid})
	}
	remove := func(fid flow.FID) {
		if i, ok := where[fid]; ok {
			last := resident[len(resident)-1]
			resident[i], where[last] = last, i
			resident = resident[:len(resident)-1]
			delete(where, fid)
			buried = append(buried, fid)
		}
		m.remove(fid)
	}

	// sized checks a just-published array against the rules it holds.
	sized := func() int {
		slots := len(s.table.Load().slots)
		if slots > max(8, 4*(len(m.rules)+1)) || m.g.DeadSlots() != 0 {
			m.fatalf("published %d slots with %d tombstones for %d rules", slots, m.g.DeadSlots(), len(m.rules))
		}
		return slots
	}

	var grown, compacted, revived, overStale, swept, maxDead, peak int
	for m.step = 0; m.step < steps; m.step++ {
		pubs, slots := m.g.Publishes(), len(s.table.Load().slots)
		var fid flow.FID
		grow := len(m.rules) < target
		switch op := rng.Intn(100); {
		case op < 25 || (op < 45 && grow): // install, mostly a FID never seen
			fid = anyFID()
			install(fid)
		case op < 45 || (op < 65 && !grow):
			fid = pickResident()
			remove(fid)
		case op < 70: // a recently removed FID comes back
			if len(buried) == 0 {
				continue
			}
			fid = buried[rng.Intn(len(buried))]
			if _, state := s.table.Load().find(fid); state == slotDead {
				revived++
			}
			install(fid)
		case op < 80: // reconsolidation, often over a stale mark
			fid = pickResident()
			if m.g.IsStale(fid) {
				overStale++
			}
			install(fid)
		case op < 92:
			fid = pickResident()
			m.markStale(fid)
		case op < 93:
			m.advanceEpoch()
		case op < 94:
			if m.sweep() > 0 {
				swept++
			}
		default: // no-ops on an absent FID
			fid = anyFID()
			if rng.Intn(2) == 0 {
				remove(fid)
			} else {
				m.markStale(fid)
			}
		}
		if len(buried) > 256 {
			buried = buried[len(buried)-128:]
		}
		m.check(fid, anyFID(), pickResident())

		peak = max(peak, len(m.rules))
		maxDead = max(maxDead, m.g.DeadSlots())
		if m.g.Publishes() != pubs {
			if sized() > slots {
				grown++
			} else {
				compacted++
			}
		}
	}
	t.Logf("peak %d rules, %d growths, %d compactions, %d revives, %d replaces over stale, %d sweeps, %d max tombstones",
		peak, grown, compacted, revived, overStale, swept, maxDead)
	if peak < 1024 || grown < 8 || compacted == 0 || revived == 0 || overStale == 0 || swept == 0 || maxDead < 256 {
		t.Error("the run did not reach the code it is for")
	}

	// A burst, then teardown of everything: the array must follow the
	// population down, and the last Remove hands the array back.
	for len(m.rules) < 4*target {
		install(anyFID())
	}
	burst := len(s.table.Load().slots)
	for len(resident) > 0 {
		m.step++
		remove(resident[len(resident)-1])
		install(anyFID()) // churn, so compaction has a reason to run
		pubs := m.g.Publishes()
		remove(resident[len(resident)-1])
		if m.g.Publishes() != pubs {
			sized()
		}
	}
	m.check(anyFID())
	if s.table.Load() != emptyRuleTable || m.g.DeadSlots() != 0 || burst < 8192 {
		t.Errorf("drained shard: %d slots, %d tombstones (burst reached %d slots)",
			len(s.table.Load().slots), m.g.DeadSlots(), burst)
	}
}

// TestGlobalChurnAllocation bounds what steady flow churn allocates:
// beside 1 024 resident rules in one shard, an install+remove pair of a
// preallocated rule allocates nothing itself, and the compaction it
// eventually forces amortises to at most 64 bytes a pair — a 16-byte
// slot array sized at no more than half load, rebuilt at 3/4, costs
// 16*size bytes per size/4 tombstones at worst.
func TestGlobalChurnAllocation(t *testing.T) {
	const (
		shard    = 3
		resident = 1024
		pairs    = 50000
	)
	fidAt := func(i int) flow.FID { return flow.FID(i)<<shardBits | shard }
	rules := make([]GlobalRule, resident+4096)
	for i := range rules {
		rules[i].FID = fidAt(i)
	}
	g := NewGlobal()
	for i := 0; i < resident; i++ {
		g.Install(&rules[i])
	}
	churn := rules[resident:]
	var before, after runtime.MemStats
	pubs := g.Publishes()
	runtime.ReadMemStats(&before)
	for i := 0; i < pairs; i++ {
		r := &churn[i%len(churn)]
		g.Install(r)
		g.Remove(r.FID)
	}
	runtime.ReadMemStats(&after)
	perPair := float64(after.TotalAlloc-before.TotalAlloc) / pairs
	t.Logf("%.1f bytes/pair, %d arrays published over %d pairs", perPair, g.Publishes()-pubs, pairs)
	if perPair > 64 {
		t.Errorf("install+remove allocates %.1f bytes a pair, want <= 64", perPair)
	}
	if g.Publishes() == pubs {
		t.Error("no compaction in the measured region")
	}
	if g.Len() != resident {
		t.Errorf("Len = %d, want %d", g.Len(), resident)
	}
}
