package mat

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// flowAt is the entry the hammers restore at a FID: any tuple will do,
// as long as no two FIDs share one.
func flowAt(fid flow.FID) flow.Entry {
	return flow.Entry{FID: fid, State: flow.StateEstablished, Tuple: packet.FiveTuple{
		SrcIP: packet.IP4(10, byte(fid>>16), byte(fid>>8), byte(fid)), DstIP: packet.IP4(10, 255, 0, 1),
		SrcPort: 4000, DstPort: 80, Proto: packet.ProtoUDP}}
}

// journalModel is a Journal that keeps, per audited FID, what the
// mutations it was told of add up to: present<<63 | stale<<62 | version.
// The table calls it inside the Edit that applied the mutation, so each
// callback must find the model where the previous one on that FID left
// it — an install replaces exactly when a rule is present and carries
// exactly its version plus one, a removal or a stale mark finds a rule —
// and at rest the model must be the table. A version carried from a read
// made outside the Edit, or a callback made after it, breaks one or the
// other. It audits the FIDs whose rules only ever leave through Remove,
// the one way the journal is told of: not those a flow is unlinked from
// with its rule still on.
type journalModel struct {
	words   []atomic.Uint64
	audited func(flow.FID) bool
	bad     atomic.Uint64
}

const (
	jPresent = 1 << 63
	jStale   = 1 << 62
)

func (j *journalModel) RuleInstalled(r *GlobalRule, replaced bool) {
	if !j.audited(r.FID) {
		return
	}
	w := &j.words[r.FID]
	old := w.Load()
	if replaced != (old&jPresent != 0) || (replaced && r.Version != old&^(jPresent|jStale)+1) {
		j.bad.Add(1)
	}
	w.Store(jPresent | r.Version)
}

func (j *journalModel) RuleRemoved(fid flow.FID) {
	if j.audited(fid) && j.words[fid].Swap(0)&jPresent == 0 {
		j.bad.Add(1)
	}
}

func (j *journalModel) RuleStaled(fid flow.FID) {
	if !j.audited(fid) {
		return
	}
	w := &j.words[fid]
	old := w.Load()
	if old&jPresent == 0 {
		j.bad.Add(1)
	}
	w.Store(old | jStale)
}

func (j *journalModel) EpochAdvanced(uint64) {}

// TestGlobalRaceHammer drives the lock-free readers of the rule word
// against everything that writes it — Install, replace with version
// carry, Remove, MarkStale, AdvanceEpoch and SweepEpoch — and against
// the flow table's own writers on the same FIDs: insert, remove and
// RestoreEntry, which take the word's entry away under the readers'
// feet. Run it under -race for the store order (rule before the cleared
// stale flag, buried slots before the emptied words).
//
// Two FID ranges. The contended range is written by everyone at once,
// so only writer-independent invariants hold there: a hit is a rule of
// the probed FID, LookupLive serves no rule of another epoch while the
// epoch stood still, ForEach yields no nil. A quarter of its FIDs also
// have their flow restored and removed under the racing rule writers; on
// the rest — some flows' FIDs, some no flow's — the journal, which hears
// every mutation inside the Edit that applied it, must be able to replay
// them per FID to exactly the state the table is left in (journalModel).
// The owned range has one writer a
// FID, cycling insert / Install / replace / MarkStale / reinstall /
// Remove or unlink. It brackets every operation in a per-FID seqlock
// word and tags every rule with the word's version, so a reader whose
// lookups the word did not move under knows what they must return: the
// very rule the last completed operation left, never a stale-marked,
// removed or unlinked one — except that the epoch sweep, which may
// stale-mark an owned rule at any time, can make the table staler than
// the word says. And the writer itself checks, each time it unlinks an
// entry that holds a rule, that the Handle it acquired before reads
// nothing after.
func TestGlobalRaceHammer(t *testing.T) {
	const (
		contended = 64
		owned     = 4096
		total     = contended + owned
		// Seqlock word: version<<2 | stale<<1 | present; odd version =
		// an operation is in flight.
		present = 1
		stale   = 2
	)
	flows := flow.NewTable()
	g := NewGlobal(flows)
	// Contended FIDs, by residue: 0 a flow that comes and goes, 1 a flow
	// that stays, 2 and 3 no flow's.
	churned := func(fid flow.FID) bool { return fid < contended && fid%4 == 0 }
	for fid := flow.FID(1); fid < contended; fid += 4 {
		flows.RestoreEntry(flowAt(fid))
	}
	journal := &journalModel{words: make([]atomic.Uint64, contended),
		audited: func(fid flow.FID) bool { return fid < contended && !churned(fid) }}
	g.SetJournal(journal)
	var (
		stop   atomic.Bool
		wg     sync.WaitGroup
		shadow [owned]atomic.Uint64
		cursor [2]atomic.Uint32 // the owned index each owned writer is operating on
	)

	// Contended writers: both race over the whole range, and over the
	// churned FIDs' flows; a stale-marker and an epoch driver beside them.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for !stop.Load() {
				fid := flow.FID(rng.Intn(contended))
				switch rng.Intn(8) {
				case 0, 1, 2, 3:
					g.Install(&GlobalRule{FID: fid, Epoch: g.Epoch()})
				case 4, 5:
					g.Remove(fid)
				case 6:
					if churned(fid) {
						flows.RestoreEntry(flowAt(fid))
					}
				default:
					if churned(fid) {
						flows.Remove(fid)
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for !stop.Load() {
			g.MarkStale(flow.FID(rng.Intn(contended)))
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
	// window of resident flows behind it, so every shard keeps keying
	// fresh slots and burying old ones — both indexes are compacted and
	// published the whole time readers probe them.
	var cycles, unlinked, leaked atomic.Uint64
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
				do(flow.FID(contended+i), int(ver+1))
				sh.Store((ver+1)<<2 | state)
			}
			install := func(fid flow.FID, tag int) {
				g.Install(&GlobalRule{FID: fid, Epoch: g.Epoch(), FixedCycles: uint64(tag)})
			}
			track := func(fid flow.FID, _ int) { flows.RestoreEntry(flowAt(fid)) }
			markStale := func(fid flow.FID, _ int) { g.MarkStale(fid) }
			remove := func(fid flow.FID, _ int) { g.Remove(fid) }
			// unlink takes the flow away with its rule still on it.
			unlink := func(fid flow.FID, _ int) {
				h, _ := flows.AcquireFID(fid)
				flows.Remove(fid)
				unlinked.Add(1)
				if _, ok := g.LookupLive(fid); ok || h.Rule() != nil || g.Live(h) != nil {
					leaked.Add(1)
				}
			}
			for n := 0; !stop.Load(); n++ {
				i := w*span + n%span
				if rng.Intn(4) > 0 {
					op(i, 0, track) // three in four rules sit on a flow's entry
				}
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
					old := w*span + (n-window)%span
					if _, tracked := flows.LookupFID(flow.FID(contended + old)); tracked && rng.Intn(2) == 0 {
						op(old, 0, unlink)
					} else {
						op(old, 0, remove)
						flows.Remove(flow.FID(contended + old))
					}
				}
				cycles.Add(1)
			}
		}(w)
	}

	// Readers. The failure counters are sticky; t.Errorf is not called
	// from the racing goroutines to keep the hot loops allocation-free.
	var (
		badFID, badEpoch, badOwned, badEach atomic.Uint64
		hits, ownedLive, seqChecks          atomic.Uint64
	)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			for !stop.Load() {
				fid := flow.FID(rng.Intn(total))
				if rng.Intn(2) == 0 {
					// Chase an owned writer: probe the FID it is on now.
					fid = flow.FID(contended + cursor[rng.Intn(len(cursor))].Load())
				}
				var sh *atomic.Uint64
				var s1 uint64
				if fid >= contended {
					sh = &shadow[fid-contended]
					s1 = sh.Load()
				}
				e1 := g.Epoch()
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
				// Raced or not: a rule no younger than a word that says
				// stale or absent was stale-marked or removed before the
				// lookup began, for good — every install is a fresh rule.
				if okLive && sh != nil && s1>>2&1 == 0 && s1&(present|stale) != present && live.FixedCycles <= s1>>2 {
					badOwned.Add(1)
				}
				if sh != nil && sh.Load() == s1 && s1>>2&1 == 0 {
					wantPresent, wantStale := s1&present != 0, s1&stale != 0
					if ok != wantPresent || (wantStale && !isStale) || (isStale && !wantPresent) ||
						(okLive && (!wantPresent || wantStale || live.FixedCycles != s1>>2)) {
						badOwned.Add(1)
					}
					seqChecks.Add(1)
					if okLive {
						ownedLive.Add(1)
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
					if n > total || g.Len() > total || g.StaleLen() > total {
						badEach.Add(1)
					}
				}
			}
		}(r)
	}

	// Drive for a wall-clock window (not an iteration count): the point
	// is scheduler interleaving, and a fast machine would finish a counted
	// loop before the reader goroutines ever run. The window stretches, up
	// to 2 s, on a host (or under a race detector) that got little done.
	before := flows.Rebuilds()
	for start := time.Now(); ; {
		time.Sleep(50 * time.Millisecond)
		if d := time.Since(start); d >= 2*time.Second || (d >= 400*time.Millisecond && cycles.Load() >= 200000) {
			break
		}
	}
	stop.Store(true)
	wg.Wait()

	// At rest the journal's replay is the table, audited FID for FID —
	// but for the sweep, which stale-marks without journaling.
	mismatched := 0
	for fid := flow.FID(0); fid < contended; fid++ {
		w := journal.words[fid].Load()
		r, ok := g.Lookup(fid)
		if journal.audited(fid) && (ok != (w&jPresent != 0) ||
			(ok && (r.Version != w&^(jPresent|jStale) || (w&jStale != 0 && !g.IsStale(fid))))) {
			mismatched++
		}
	}
	for _, c := range []struct {
		n    uint64
		what string
	}{
		{badFID.Load(), "lookups returned a rule for the wrong FID"},
		{badEpoch.Load(), "LookupLive hits were of another epoch while the epoch stood still"},
		{badOwned.Load(), "unraced lookups disagreed with the last completed operation"},
		{badEach.Load(), "ForEach/Len inconsistencies"},
		{leaked.Load(), "rules were readable after their entry was unlinked"},
		{journal.bad.Load(), "journal callbacks did not follow from the previous one on their FID"},
		{uint64(mismatched), "contended FIDs ended in a state the journal's replay does not"},
	} {
		if c.n != 0 {
			t.Errorf("%d %s", c.n, c.what)
		}
	}
	published := flows.Rebuilds() - before
	t.Logf("%d hits; %d owned checks by seqlock (%d live); %d owned cycles, %d unlinks with the rule on, %d arrays published",
		hits.Load(), seqChecks.Load(), ownedLive.Load(), cycles.Load(), unlinked.Load(), published)
	if hits.Load() == 0 || seqChecks.Load() == 0 || ownedLive.Load() == 0 || unlinked.Load() == 0 {
		t.Error("hammer did not exercise the read side")
	}
	// Every owned cycle buries a slot or two; a shard's budget is a few dozen.
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

// globalModel pairs a Global, and the flow table under it, with a plain
// map model. Every operation is applied to both and its result compared;
// check compares the observables.
type globalModel struct {
	t     *testing.T
	flows *flow.Table
	g     *Global
	rules map[flow.FID]*modelRule
	// tracked is the FIDs a flow holds; a rule elsewhere is on a detached
	// entry.
	tracked  map[flow.FID]bool
	detached int
	stale    int
	epoch    uint64
	seed     int64
	step     int
}

func newGlobalModel(t *testing.T, seed int64) *globalModel {
	flows := flow.NewTable()
	return &globalModel{t: t, flows: flows, g: NewGlobal(flows), seed: seed,
		rules: make(map[flow.FID]*modelRule), tracked: make(map[flow.FID]bool)}
}

func (m *globalModel) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("seed %d step %d: "+format, append([]any{m.seed, m.step}, args...)...)
}

func (m *globalModel) install(r *GlobalRule) {
	m.t.Helper()
	r.Epoch = m.epoch
	old, want := m.rules[r.FID]
	if got := m.g.Install(r); got != want {
		m.fatalf("Install(%v) replaced = %v, model %v", r.FID, got, want)
	}
	nr := &modelRule{epoch: m.epoch}
	switch {
	case want:
		nr.version = old.version + 1
		if old.stale {
			m.stale--
		}
	case !m.tracked[r.FID]:
		m.detached++
	}
	m.rules[r.FID] = nr
}

// forget drops the model's rule for a FID.
func (m *globalModel) forget(fid flow.FID) {
	if old, ok := m.rules[fid]; ok {
		if old.stale {
			m.stale--
		}
		if !m.tracked[fid] {
			m.detached--
		}
	}
	delete(m.rules, fid)
}

func (m *globalModel) remove(fid flow.FID) {
	m.t.Helper()
	_, want := m.rules[fid]
	if got := m.g.Remove(fid); got != want {
		m.fatalf("Remove(%v) = %v, model %v", fid, got, want)
	}
	m.forget(fid)
}

// track puts a flow at the FID: over a flow or a detached entry already
// there, whose rule goes with it.
func (m *globalModel) track(fid flow.FID) {
	m.flows.RestoreEntry(flowAt(fid))
	m.forget(fid)
	m.tracked[fid] = true
}

// untrack removes the FID's flow, and its rule with it.
func (m *globalModel) untrack(fid flow.FID) {
	m.t.Helper()
	if got := m.flows.Remove(fid); got != m.tracked[fid] {
		m.fatalf("flows.Remove(%v) = %v, model %v", fid, got, m.tracked[fid])
	}
	if m.tracked[fid] {
		m.forget(fid)
		delete(m.tracked, fid)
	}
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
}

func (m *globalModel) advanceEpoch() { m.epoch = m.g.AdvanceEpoch() }

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
		if _, gotFlow := m.flows.LookupFID(fid); gotFlow != m.tracked[fid] {
			m.fatalf("LookupFID(%v) = %v, model %v", fid, gotFlow, m.tracked[fid])
		}
	}
	c := m.flows.Counts()
	if c.Rules != len(m.rules) || c.Stale != m.stale || c.Flows != len(m.tracked) || c.Detached != m.detached {
		m.fatalf("%+v; model %d rules, %d stale, %d flows, %d detached", c, len(m.rules), m.stale, len(m.tracked), m.detached)
	}
}

// TestGlobalModelProperty drives a seeded random operation sequence
// over all 32 shards against the map model — rule operations on FIDs
// flows hold and on FIDs they do not, and the flows coming and going
// under them — comparing every observable after every step: presence,
// staleness, liveness, versions, and the sizes on both tables.
func TestGlobalModelProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newGlobalModel(t, seed)
		const fids = 96
		for m.step = 0; m.step < 4000; m.step++ {
			fid := flow.FID(rng.Intn(fids))
			switch op := rng.Intn(13); {
			case op < 4:
				m.install(&GlobalRule{FID: fid})
			case op < 6: // maybe a no-op
				m.remove(fid)
			case op < 8: // maybe a no-op
				m.markStale(fid)
			case op < 9:
				m.advanceEpoch()
			case op < 10:
				m.sweep()
			case op < 12: // maybe over a flow, or a detached entry and its rule
				m.track(fid)
			default: // maybe a no-op
				m.untrack(fid)
			}
			m.check(fid, flow.FID(rng.Intn(fids)))
		}
	}
}

// TestGlobalModelOneShard is the model test at size: one shard holding
// over a thousand rules, half of them on detached entries, with installs
// drawn from 32 768 FIDs, so the shard's FID index keeps keying slots
// for detached entries and burying them. It must see the index grow,
// tombstones pile up and be compacted away, a removed FID come back, a
// replace over a stale mark and an epoch sweep, all op-for-op equal to
// the map model; and the table drains back to nothing.
func TestGlobalModelOneShard(t *testing.T) {
	const (
		shard    = 7
		universe = (flow.MaxFID + 1) / flow.ShardCount
		target   = 1280
		steps    = 60000
	)
	rng := rand.New(rand.NewSource(1))
	m := newGlobalModel(t, 1)
	anyFID := func() flow.FID { return flow.FID(rng.Intn(universe))*flow.ShardCount + shard }
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
			if rng.Intn(2) == 0 && !m.tracked[fid] {
				m.track(fid)
			}
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
		if m.tracked[fid] && rng.Intn(2) == 0 {
			m.untrack(fid) // the rule goes with its entry
			return
		}
		m.remove(fid)
		m.untrack(fid)
	}

	var revived, overStale, swept, maxDead, peak int
	rebuilds := m.flows.Rebuilds()
	for m.step = 0; m.step < steps; m.step++ {
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
			if _, ok := m.rules[fid]; !ok {
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
		maxDead = max(maxDead, m.flows.DeadSlots())
	}
	rebuilds = m.flows.Rebuilds() - rebuilds
	t.Logf("peak %d rules, %d arrays published, %d revives, %d replaces over stale, %d sweeps, %d max tombstones",
		peak, rebuilds, revived, overStale, swept, maxDead)
	if peak < 1024 || rebuilds < 16 || revived == 0 || overStale == 0 || swept == 0 || maxDead < 256 {
		t.Error("the run did not reach the code it is for")
	}

	// Teardown of everything: the last Remove hands the arrays back.
	for len(resident) > 0 {
		m.step++
		remove(resident[len(resident)-1])
	}
	m.check(anyFID())
	if c := m.flows.Counts(); c != (flow.Counts{}) {
		t.Errorf("drained table: %+v", c)
	}
}

// TestGlobalChurnAllocation bounds what steady flow churn allocates
// beside 1 024 resident rules in one shard. Where it happens — on FIDs
// flows hold — an install+remove pair of a preallocated rule is two
// stores into an entry that exists and allocates nothing. Under FIDs no
// flow holds a pair makes and unlinks a detached entry: its 64 bytes,
// and next to nothing for the FID index, where the entry re-keys the
// tombstone its last incarnation left.
func TestGlobalChurnAllocation(t *testing.T) {
	const (
		shard    = 3
		resident = 1024
		pairs    = 50000
	)
	rules := make([]GlobalRule, resident+4096)
	flows := flow.NewTable()
	for i := range rules {
		rules[i].FID = flow.FID(i)*flow.ShardCount + shard
		if i < resident+2048 {
			flows.RestoreEntry(flowAt(rules[i].FID))
		}
	}
	g := NewGlobal(flows)
	for i := 0; i < resident; i++ {
		g.Install(&rules[i])
	}
	for _, tc := range []struct {
		what  string
		churn []GlobalRule
		bound float64
	}{
		{"on flows' entries", rules[resident : resident+2048], 1},
		{"on detached entries", rules[resident+2048:], 96},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < pairs; i++ {
			r := &tc.churn[i%len(tc.churn)]
			g.Install(r)
			g.Remove(r.FID)
		}
		runtime.ReadMemStats(&after)
		perPair := float64(after.TotalAlloc-before.TotalAlloc) / pairs
		t.Logf("%s: %.1f bytes/pair", tc.what, perPair)
		if perPair > tc.bound {
			t.Errorf("%s: install+remove allocates %.1f bytes a pair, want <= %v", tc.what, perPair, tc.bound)
		}
	}
	if c := flows.Counts(); c.Rules != resident || c.Detached != 0 {
		t.Errorf("%+v, want the %d resident rules and nothing detached", c, resident)
	}
}
