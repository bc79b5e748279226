// Package maglev implements the Maglev software load balancer NF
// (paper §VI-C). Google's Maglev is closed source, so — exactly as the
// SpeedyBox authors did — the NF follows the consistent hashing
// algorithm of Section 3.4 of the Maglev paper (Eisenbud et al., NSDI
// 2016): per-backend permutations generated from two hashes populate a
// prime-sized lookup table, giving near-uniform balance and minimal
// disruption when the backend set changes. Connection tracking pins
// established flows to their backend; when a backend fails, a
// SpeedyBox event reroutes each affected flow and rewrites its
// modify(DIP, DPort) header action at runtime (paper Observation 2 and
// §V-A's failover example).
package maglev

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

// Backend is one load-balanced destination server.
type Backend struct {
	Name string
	IP   [4]byte
	Port uint16
}

// Config configures the load balancer.
type Config struct {
	// Name is the NF instance name.
	Name string
	// Backends is the server pool.
	Backends []Backend
	// TableSize is the lookup table size M; it must be a prime
	// larger than the backend count. The Maglev paper uses 65537; a
	// smaller prime keeps tests fast. Defaults to 653.
	TableSize int
	// RewritePort also rewrites the destination port to the backend's.
	RewritePort bool
}

// Maglev is the load balancer NF. A flow's connection tracking is two
// words of per-flow state on its flow record: the pin — the backend
// index plus one, zero while the flow has none — and the hash of the
// flow's 5-tuple it was picked by, which a failover re-picks by. What
// the balancer keeps itself is what flows share: backend health, the
// lookup table built from it and the reroute count.
type Maglev struct {
	name        string
	rewritePort bool
	m           int
	flows       core.FlowStates
	// backends and down never change length after New. down[i] is 1
	// while backend i has failed (written under mu): the word a flow's
	// failover condition reads for the backend it is pinned to, with no
	// lock.
	backends []Backend
	down     []atomic.Uint64

	mu       sync.Mutex
	table    []int // M entries, each a backend index (-1 when no healthy backend)
	rerouted uint64
}

// New builds a Maglev instance and populates its lookup table.
func New(cfg Config) (*Maglev, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("maglev: empty name")
	}
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("maglev: no backends")
	}
	m := cfg.TableSize
	if m == 0 {
		m = 653
	}
	if m <= len(cfg.Backends) {
		return nil, fmt.Errorf("maglev: table size %d must exceed backend count %d", m, len(cfg.Backends))
	}
	if !isPrime(m) {
		return nil, fmt.Errorf("maglev: table size %d must be prime", m)
	}
	lb := &Maglev{
		name:        cfg.Name,
		rewritePort: cfg.RewritePort,
		m:           m,
		backends:    append([]Backend(nil), cfg.Backends...),
		down:        make([]atomic.Uint64, len(cfg.Backends)),
	}
	lb.flows.Words = 2
	// Connection tracking is a state function, so the fast path is
	// charged the conn-table touch the original path pays: data, no adds
	// and a lookup's price.
	lb.flows.Funcs = []sfunc.Func{{Name: "conntrack", Class: sfunc.ClassIgnore, Price: cost.ConnTrackLookup}}
	// The failover event (§V-A): when the flow's backend fails, replace
	// the modify values with a freshly selected backend's.
	lb.flows.Events = []event.Event{{Word: lb.pinDown, AtLeast: 1, Update: lb.failover}}
	lb.populateLocked()
	return lb, nil
}

var _ core.NF = (*Maglev)(nil)

// Name implements core.NF.
func (lb *Maglev) Name() string { return lb.name }

var _ core.Stateful = (*Maglev)(nil)

// FlowStates implements core.Stateful.
func (lb *Maglev) FlowStates() *core.FlowStates { return &lb.flows }

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// HashName exposes the permutation hash (FNV-64a over a two-byte seed
// prefix then the name). The cluster steerer derives its per-instance
// permutations with it, exactly as the balancer derives per-backend
// ones.
func HashName(s string, seed uint32) uint64 { return hashString(s, seed) }

func hashString(s string, seed uint32) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte{byte(seed), byte(seed >> 8)})
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// populateLocked rebuilds the lookup table from the healthy backends
// using the Section 3.4 algorithm. Callers hold lb.mu.
func (lb *Maglev) populateLocked() {
	table := make([]int, lb.m)
	for i := range table {
		table[i] = -1
	}
	type perm struct {
		offset, skip uint64
		next         uint64
		idx          int
	}
	var perms []perm
	for i, b := range lb.backends {
		if lb.down[i].Load() != 0 {
			continue
		}
		perms = append(perms, perm{
			offset: hashString(b.Name, 0x9e37) % uint64(lb.m),
			skip:   hashString(b.Name, 0x85eb)%uint64(lb.m-1) + 1,
			idx:    i,
		})
	}
	lb.table = table
	if len(perms) == 0 {
		return
	}
	filled := 0
	for filled < lb.m {
		for p := range perms {
			pm := &perms[p]
			// Walk this backend's permutation to its next empty slot.
			var c uint64
			for {
				c = (pm.offset + pm.next*pm.skip) % uint64(lb.m)
				pm.next++
				if table[c] == -1 {
					break
				}
			}
			table[c] = pm.idx
			filled++
			if filled == lb.m {
				break
			}
		}
	}
}

// FailBackend marks a backend unhealthy and rebuilds the table. Flows
// pinned to it are rerouted by their registered events as their next
// packets arrive.
func (lb *Maglev) FailBackend(i int) error {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if i < 0 || i >= len(lb.backends) {
		return fmt.Errorf("maglev: backend %d out of range", i)
	}
	if lb.down[i].Swap(1) == 0 {
		lb.populateLocked()
	}
	return nil
}

// RestoreBackend marks a backend healthy again and rebuilds the table.
func (lb *Maglev) RestoreBackend(i int) error {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if i < 0 || i >= len(lb.backends) {
		return fmt.Errorf("maglev: backend %d out of range", i)
	}
	if lb.down[i].Swap(0) != 0 {
		lb.populateLocked()
	}
	return nil
}

// maglevState is the gob image of the balancer's cross-flow state. The
// lookup table is deterministic given the healthy set (populateLocked
// reruns the Section 3.4 algorithm over the construction-time backend
// names), so only health and the reroute counter are saved; the pins
// travel on the flow records.
type maglevState struct {
	Healthy  []bool
	Rerouted uint64
}

var _ core.Snapshotter = (*Maglev)(nil)

// SnapshotState implements core.Snapshotter.
func (lb *Maglev) SnapshotState() ([]byte, error) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	st := maglevState{Healthy: make([]bool, len(lb.down)), Rerouted: lb.rerouted}
	for i := range lb.down {
		st.Healthy[i] = lb.down[i].Load() == 0
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("maglev: snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState implements core.Snapshotter, replacing backend health —
// in the down flags the flows' guards already read — and the reroute
// counter, then rebuilding the lookup table from the restored healthy
// set.
func (lb *Maglev) RestoreState(data []byte) error {
	var st maglevState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("maglev: restore: %w", err)
	}
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if len(st.Healthy) != len(lb.backends) {
		return fmt.Errorf("maglev: restore: %d backends in snapshot, %d configured",
			len(st.Healthy), len(lb.backends))
	}
	for i, ok := range st.Healthy {
		if ok {
			lb.down[i].Store(0)
		} else {
			lb.down[i].Store(1)
		}
	}
	lb.rerouted = st.Rerouted
	lb.populateLocked()
	return nil
}

// Table returns a copy of the lookup table (tests inspect balance).
func (lb *Maglev) Table() []int {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return append([]int(nil), lb.table...)
}

// Rerouted returns how many flow reroutes the failover path performed.
func (lb *Maglev) Rerouted() uint64 {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.rerouted
}

// BackendOf returns the backend a live flow is pinned to.
func (lb *Maglev) BackendOf(fid flow.FID) (Backend, bool) {
	st := lb.flows.Of(fid)
	if st == nil {
		return Backend{}, false
	}
	i := lb.pin(st)
	if i < 0 {
		return Backend{}, false
	}
	return lb.backends[i], true
}

// pin reads the flow's pinned backend index, -1 if it has none (or its
// state, come from a balancer configured otherwise, names no backend of
// this one). The backend list never changes after New.
func (lb *Maglev) pin(st core.State) int {
	if i := int(st[0].Load()) - 1; i < len(lb.backends) {
		return i
	}
	return -1
}

func (lb *Maglev) hashTuple(ft packet.FiveTuple) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(ft.SrcIP[:])
	_, _ = h.Write(ft.DstIP[:])
	_, _ = h.Write([]byte{byte(ft.SrcPort >> 8), byte(ft.SrcPort), byte(ft.DstPort >> 8), byte(ft.DstPort), ft.Proto})
	return h.Sum64()
}

// assign picks (or reuses) the backend for a flow, pinning it and the
// tuple hash in the flow's state. It returns the backend index or -1
// when no healthy backend exists.
func (lb *Maglev) assign(st core.State, ft packet.FiveTuple) (idx int, backend Backend, isNew bool) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if i := lb.pin(st); i >= 0 && lb.down[i].Load() == 0 {
		return i, lb.backends[i], false
	}
	h := lb.hashTuple(ft)
	i := lb.table[h%uint64(lb.m)]
	st[0].Store(uint64(i + 1))
	st[1].Store(h)
	if i >= 0 {
		backend = lb.backends[i]
	}
	return i, backend, true
}

// pinDown is the word of the failover event's condition: the down flag
// of the backend the flow is pinned to. It is resolved wherever the
// flow's guards are built — every consolidation, so again once a
// failover has moved the pin — and read by the fast path with no lock.
func (lb *Maglev) pinDown(st core.State) *atomic.Uint64 {
	if i := lb.pin(st); i >= 0 {
		return &lb.down[i]
	}
	return &unpinned
}

// unpinned is the word a flow with no backend is guarded by. It is never
// set: such a flow has no backend to fail.
var unpinned atomic.Uint64

// reroute re-picks a healthy backend for the flow via the rebuilt
// table, by the tuple hash it was first picked by, and returns it.
func (lb *Maglev) reroute(st core.State) (Backend, bool) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	i := lb.table[st[1].Load()%uint64(lb.m)]
	st[0].Store(uint64(i + 1))
	if i < 0 {
		return Backend{}, false
	}
	lb.rerouted++
	return lb.backends[i], true
}

// failover is the event's update: it reroutes the flow and rewrites the
// modify values of its recorded span for the new backend, or sheds the
// flow when no backend is healthy.
func (lb *Maglev) failover(st core.State, r *mat.LocalRule) {
	nb, ok := lb.reroute(st)
	if !ok {
		event.Drop(st, r)
		return
	}
	for i, a := range r.Actions {
		if a.Kind != mat.ActionModify {
			continue
		}
		switch a.Field {
		case packet.FieldDstIP:
			r.Actions[i] = mat.Modify(packet.FieldDstIP, nb.IP[:])
		case packet.FieldDstPort:
			if lb.rewritePort {
				r.Actions[i] = mat.Modify(packet.FieldDstPort, packet.PutUint16(nb.Port))
			}
		}
	}
}

// Process implements core.NF: assign a backend, rewrite the
// destination, and run the connection-tracking state function; on the
// initial packet, record the modify actions, the state function and the
// failover event.
func (lb *Maglev) Process(ctx *core.Ctx, pkt *packet.Packet) (core.Verdict, error) {
	ctx.Charge(ctx.Model.Parse + ctx.Model.Classify)
	ft, err := pkt.FiveTuple()
	if err != nil {
		return 0, fmt.Errorf("maglev %s: %w", lb.name, err)
	}
	idx, backend, isNew := lb.assign(ctx.FlowState(&lb.flows), ft)
	if err := ctx.Run(&lb.flows, 0, pkt); err != nil {
		return 0, err
	}
	if isNew {
		ctx.Charge(ctx.Model.MaglevTableLookup + ctx.Model.ConnTrackInsert)
	}
	if idx < 0 {
		// No healthy backend: shed the flow.
		return core.VerdictDrop, ctx.AddHeaderAction(pkt, mat.Drop())
	}
	if err := ctx.AddModify(pkt, packet.FieldDstIP, backend.IP[:]); err != nil {
		return 0, err
	}
	if lb.rewritePort {
		if err := ctx.AddModify(pkt, packet.FieldDstPort, packet.PutUint16(backend.Port)); err != nil {
			return 0, err
		}
	}
	if err := ctx.AddStateFunc(0); err != nil {
		return 0, err
	}
	return core.VerdictForward, ctx.RegisterEvent(0)
}
