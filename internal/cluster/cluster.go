package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/fastpathnfv/speedybox/internal/bess"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/errcode"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// Typed sentinel errors, wrapped into every failure the cluster's
// control-plane operations return.
var (
	// ErrBadConfig reports an invalid cluster configuration.
	ErrBadConfig = errcode.Sentinel("cluster.config_invalid", "cluster: invalid configuration")
	// ErrUnknownInstance reports an operation naming no live instance.
	ErrUnknownInstance = errcode.Sentinel("cluster.unknown_instance", "cluster: no such instance")
	// ErrLastInstance reports an attempt to remove the only instance.
	ErrLastInstance = errcode.Sentinel("cluster.last_instance", "cluster: cannot remove the last instance")
	// ErrBadScale reports a scale target outside [1, DefaultTableSize-1).
	ErrBadScale = errcode.Sentinel("cluster.scale_invalid", "cluster: invalid instance count")
	// ErrMigrationAborted reports a rebalance that hit an injected
	// migration abort and rolled back completely: the steering table,
	// every flow's owner and every engine's epoch are exactly as before.
	ErrMigrationAborted = errcode.Sentinel("cluster.migration_aborted", "cluster: migration aborted, rebalance rolled back")
)

// Config configures a Cluster.
type Config struct {
	// Chain is the service chain. The NF instances are shared by every
	// engine instance — NF-internal per-flow state is keyed by FID and
	// never migrates — exactly as a multi-chain topology shares NFs.
	Chain []core.NF
	// Options is the per-engine configuration (baseline vs SpeedyBox,
	// faults, admission). Faults, when set, also drives migration
	// aborts (fault.KindMigrationAbort).
	Options core.Options
	// Instances is the initial instance count (default 1), fewer than
	// the steering table's DefaultTableSize slots.
	Instances int
	// Hub, when set, receives cluster gauges/counters plus each
	// instance engine's metrics under a {chain="<instance>"} label.
	Hub *telemetry.Hub
	// Durable attaches an in-memory WAL writer to every instance so
	// CrashInstance can restore from checkpoint + journal suffix.
	Durable bool
}

// instance is one engine behind the steerer. Its RWMutex is the
// migration drain gate: the data path holds the read side for exactly
// one Process/ProcessBatch call, so a rebalancer taking the write side
// observes a packet boundary — every in-flight packet has fully
// drained, every batch worker's folded bookkeeping is flushed.
type instance struct {
	name string
	plat *bess.Platform
	walW *wal.Writer
	mu   sync.RWMutex
}

func (in *instance) engine() *core.Engine { return in.plat.Engine() }

// view is the steerer's immutable routing snapshot: the instance set
// and the consistent-hash table over it. The data path loads it once
// per routing decision; rebalancing publishes a fresh view only after
// every reassigned flow has moved, under every instance's write lock.
type view struct {
	insts []*instance
	table []int32
}

// route maps a packet to its owning instance index. Unparseable
// packets go to instance 0, deterministically.
func (v *view) route(pkt *packet.Packet) int {
	if len(v.insts) == 1 {
		return 0
	}
	if !pkt.Parsed() {
		if pkt.Parse() != nil {
			return 0
		}
	}
	hi, lo, ok := pkt.FlowKey()
	if !ok {
		return 0
	}
	return int(v.table[slotOf(flow.HashKey(hi, lo), len(v.table))])
}

// owner returns the instance owning a home FID under this view.
func (v *view) owner(home flow.FID) *instance {
	return v.insts[v.table[slotOf(home, len(v.table))]]
}

// Cluster is N engine instances behind a consistent-hash flow steerer
// with live flow-state migration on scale-up/scale-down.
type Cluster struct {
	cfg Config

	// mu serializes control-plane operations (scale, reconfigure,
	// crash-restore); the data path never takes it.
	mu     sync.Mutex
	cur    atomic.Pointer[view]
	nextID int
	// plans records applied reconfigurations so instances built later
	// (scale-out, crash replacement) replay them to the same chain
	// composition and epoch as the fleet.
	plans []core.ChainPlan

	// retired banks the engine counters of removed and crash-replaced
	// instances so Stats() stays monotonic across scale-in — a
	// Prometheus counter must never decrease because an instance
	// drained.
	retiredMu sync.Mutex
	retired   core.Stats

	migrations atomic.Uint64 // flows moved between instances
	ruleMoves  atomic.Uint64 // live rules that traveled with them
	demotions  atomic.Uint64 // migrated flows demoted to re-recording
	aborts     atomic.Uint64 // rebalances rolled back by an injected abort
	rebalances atomic.Uint64 // completed rebalances

	// TamperMigration is a test-only hook mutating a decoded migration
	// record before adoption, so the cluster oracle's teeth test can
	// prove a corrupted migration is detected as a divergence.
	TamperMigration func(*wal.MigrationRecord)
}

// New builds a cluster of cfg.Instances engines over the shared chain.
func New(cfg Config) (*Cluster, error) {
	if cfg.Instances == 0 {
		cfg.Instances = 1
	}
	if cfg.Instances < 1 || cfg.Instances >= DefaultTableSize {
		return nil, fmt.Errorf("%w: %d instances, want [1, %d)", ErrBadConfig, cfg.Instances, DefaultTableSize)
	}
	c := &Cluster{cfg: cfg}
	insts := make([]*instance, cfg.Instances)
	for i := range insts {
		in, err := c.newInstance(fmt.Sprintf("i%d", i), nil)
		if err != nil {
			return nil, err
		}
		insts[i] = in
	}
	c.nextID = len(insts)
	c.cur.Store(&view{insts: insts, table: populate(names(insts), DefaultTableSize)})
	if cfg.Hub != nil {
		reg := cfg.Hub.Registry
		reg.GaugeFunc("speedybox_cluster_instances",
			"Live engine instances behind the flow steerer",
			func() float64 { return float64(c.Len()) })
		reg.CounterFunc("speedybox_cluster_migrations_total",
			"Flows live-migrated between instances",
			c.migrations.Load)
		reg.CounterFunc("speedybox_cluster_migration_rules_total",
			"Consolidated rules that traveled with a migrating flow",
			c.ruleMoves.Load)
		reg.CounterFunc("speedybox_cluster_migration_demotions_total",
			"Migrated flows demoted to re-recording on the new owner",
			c.demotions.Load)
		reg.CounterFunc("speedybox_cluster_migration_aborts_total",
			"Rebalances rolled back by an injected migration abort",
			c.aborts.Load)
		reg.CounterFunc("speedybox_cluster_rebalances_total",
			"Completed instance-set rebalances",
			c.rebalances.Load)
	}
	return c, nil
}

// newInstance builds the named instance: a platform over the shared
// chain, every applied reconfiguration replayed so it joins at the
// fleet's chain composition and epoch, then restore, when non-nil, and
// only then the instance's WAL, so replayed installs are not journaled.
// Caller holds c.mu (or is New).
func (c *Cluster) newInstance(name string, restore func(*core.Engine) error) (*instance, error) {
	opts := c.cfg.Options
	if c.cfg.Hub != nil {
		opts.Telemetry = c.cfg.Hub
		if opts.ChainLabel == "" {
			opts.ChainLabel = name
		} else {
			opts.ChainLabel += "." + name
		}
	}
	plat, err := bess.New(bess.Config{Chain: c.cfg.Chain, Options: opts})
	if err != nil {
		return nil, fmt.Errorf("cluster: instance %s: %w", name, err)
	}
	in := &instance{name: name, plat: plat}
	if len(c.plans) > 0 {
		err = c.replay([]*instance{in}, c.plans)
	}
	if err == nil && restore != nil {
		err = restore(plat.Engine())
	}
	if err != nil {
		_ = plat.Close()
		return nil, err
	}
	if c.cfg.Durable {
		in.walW = wal.NewWriter(wal.Options{})
		plat.Engine().AttachWAL(in.walW)
	}
	return in, nil
}

// replay applies plans the fleet already committed to insts with the
// reconfiguration-abort injector suppressed: an instance must not be
// able to refuse them.
func (c *Cluster) replay(insts []*instance, plans []core.ChainPlan) error {
	inj := c.cfg.Options.Faults
	saved := inj.Rate(fault.KindReconfigAbort)
	inj.SetRate(fault.KindReconfigAbort, 0)
	defer inj.SetRate(fault.KindReconfigAbort, saved)
	for _, in := range insts {
		for _, plan := range plans {
			if err := in.plat.Reconfigure(plan); err != nil {
				return fmt.Errorf("cluster: instance %s diverged on committed plan: %w", in.name, err)
			}
		}
	}
	return nil
}

func names(insts []*instance) []string {
	out := make([]string, len(insts))
	for i, in := range insts {
		out[i] = in.name
	}
	return out
}

// Len returns the live instance count.
func (c *Cluster) Len() int { return len(c.cur.Load().insts) }

// Names returns the live instance names in steering order.
func (c *Cluster) Names() []string { return names(c.cur.Load().insts) }

// Model returns the shared cost model.
func (c *Cluster) Model() *cost.Model { return c.cur.Load().insts[0].plat.Model() }

// Telemetry returns the cluster's hub (nil when configured without one).
func (c *Cluster) Telemetry() *telemetry.Hub { return c.cfg.Hub }

// Engine returns the i-th live instance's engine (tests, status).
func (c *Cluster) Engine(i int) *core.Engine {
	v := c.cur.Load()
	return v.insts[i].engine()
}

// Migrations returns how many flows have moved between instances.
func (c *Cluster) Migrations() uint64 { return c.migrations.Load() }

// Aborts returns how many rebalances rolled back on an injected abort.
func (c *Cluster) Aborts() uint64 { return c.aborts.Load() }

// Rebalances returns how many rebalances completed.
func (c *Cluster) Rebalances() uint64 { return c.rebalances.Load() }

// Process steers one packet to its owning instance and runs it. If a
// rebalance races the routing decision, the packet waits at the
// instance's drain gate and re-routes against the new view — it is
// buffered, never dropped, and never processed by a stale owner.
func (c *Cluster) Process(pkt *packet.Packet) (platform.Measurement, error) {
	for {
		v := c.cur.Load()
		in := v.insts[v.route(pkt)]
		in.mu.RLock()
		if c.cur.Load() != v {
			// A rebalance published a new view after we routed: our
			// owner decision may be stale, so re-route. (The rebalance
			// held every instance's write lock, so it cannot have
			// overlapped a packet we were already processing.)
			in.mu.RUnlock()
			continue
		}
		m, err := in.plat.Process(pkt)
		in.mu.RUnlock()
		return m, err
	}
}

// ProcessRuns feeds pkts through the cluster in arrival order
// (platform.Drain), splitting the stream into maximal same-instance
// runs of at most batchSize (0 picks the default vector size) and
// draining each through the owner's ProcessBatch behind the same gate
// Process uses: route under a view, take the instance's drain gate,
// re-check the view, and route again if a rebalance published a new one
// in between. fold, when non-nil, runs after each sub-run while its
// measurements are still valid (they point into b, which the next run
// reuses). One Batch serves every instance: a handle it holds lives for
// one vector, staged and looked up in the flow table of the engine that
// runs it, so none is ever served by another instance's engine.
func (c *Cluster) ProcessRuns(pkts []*packet.Packet, batchSize int, b *platform.Batch, fold func(off int, ms []platform.Measurement) error) error {
	// v is the view runs are routed under. It is refreshed only when the
	// gate check finds it stale, so every run that is processed was routed
	// under the view current while its instance's gate was held.
	v := c.cur.Load()
	return platform.Drain(pkts, batchSize,
		func(pkt *packet.Packet) int { return v.route(pkt) },
		func(idx int, run []*packet.Packet) ([]platform.Measurement, error) {
			in := v.insts[idx]
			in.mu.RLock()
			if cur := c.cur.Load(); cur != v {
				in.mu.RUnlock()
				v = cur
				return nil, platform.ErrReroute
			}
			ms, err := in.plat.ProcessBatch(run, b)
			in.mu.RUnlock()
			if err != nil {
				return nil, fmt.Errorf("cluster: instance %s: %w", in.name, err)
			}
			return ms, nil
		}, fold)
}

// RunBatch is platform.RunBatch over the cluster. The serial runner
// draws its own Batch; b is not used.
func (c *Cluster) RunBatch(pkts []*packet.Packet, batchSize int, _ *platform.Batch) (*platform.RunResult, error) {
	return platform.RunBatch(c, pkts, batchSize, nil)
}

// Run is a workers-way platform.MultiQueue over the cluster in vectors
// of batchSize (<= 1 is a vector of one). Its RSS partition is by home
// FID, which is stable across rebalances, so a flow always has a single
// writer.
func (c *Cluster) Run(pkts []*packet.Packet, workers, batchSize int) (*platform.RunResult, error) {
	mq, err := platform.NewMultiQueue(c, max(workers, 1))
	if err != nil {
		return nil, err
	}
	mq.SetBatchSize(batchSize)
	return mq.Run(pkts)
}

// Stats folds every live instance's engine counters plus the banked
// counters of every instance retired by scale-in or crash-replace.
func (c *Cluster) Stats() core.Stats {
	c.retiredMu.Lock()
	s := c.retired
	c.retiredMu.Unlock()
	for _, in := range c.cur.Load().insts {
		s.Add(in.engine().Stats())
	}
	return s
}

// retire folds a departing instance's counters into the retired bank
// and closes its platform.
func (c *Cluster) retire(in *instance) error {
	c.retiredMu.Lock()
	c.retired.Add(in.engine().Stats())
	c.retiredMu.Unlock()
	return in.plat.Close()
}

// InstanceStatus is one instance's status-rollup row.
type InstanceStatus struct {
	Name     string     `json:"name"`
	Flows    int        `json:"flows"`
	Epoch    uint64     `json:"epoch"`
	Degraded int        `json:"degraded_flows"`
	Stats    core.Stats `json:"stats"`
}

// Instances returns a per-instance status rollup in steering order.
func (c *Cluster) Instances() []InstanceStatus {
	v := c.cur.Load()
	out := make([]InstanceStatus, len(v.insts))
	for i, in := range v.insts {
		eng := in.engine()
		out[i] = InstanceStatus{
			Name:     in.name,
			Flows:    eng.FlowLen(),
			Epoch:    eng.Epoch(),
			Degraded: eng.DegradedFlows(),
			Stats:    eng.Stats(),
		}
	}
	return out
}

// addLocked brings up one new instance and migrates every flow the
// new steering table reassigns to it. On an injected migration abort
// the whole operation rolls back: moved flows return to their owners,
// the new instance is discarded, the old view stays published. Caller
// holds c.mu.
func (c *Cluster) addLocked() error {
	old := c.cur.Load()
	if len(old.insts)+1 >= DefaultTableSize {
		return fmt.Errorf("%w: %d instances would reach table size %d", ErrBadScale, len(old.insts)+1, DefaultTableSize)
	}
	in, err := c.newInstance(fmt.Sprintf("i%d", c.nextID), nil)
	if err != nil {
		return err
	}
	c.nextID++
	newInsts := append(append([]*instance(nil), old.insts...), in)
	if err := c.rebalance(old, newInsts); err != nil {
		_ = in.plat.Close()
		return err
	}
	return nil
}

// removeLocked drains the newest instance — every one of its flows
// migrates to the owner the shrunken steering table assigns — and
// retires it. On an injected abort the instance stays, fully owning
// every flow it had. Caller holds c.mu.
func (c *Cluster) removeLocked() error {
	old := c.cur.Load()
	if len(old.insts) == 1 {
		return ErrLastInstance
	}
	last := len(old.insts) - 1
	removed := old.insts[last]
	if err := c.rebalance(old, append([]*instance(nil), old.insts[:last]...)); err != nil {
		return err
	}
	return c.retire(removed)
}

// ScaleTo adds or removes instances one rebalance at a time until the
// cluster has n (removals drain the newest instance first). It stops
// at the first error — an injected abort leaves the cluster at
// whatever consistent size it had reached.
func (c *Cluster) ScaleTo(n int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 1 || n+1 >= DefaultTableSize {
		return fmt.Errorf("%w: %d", ErrBadScale, n)
	}
	for {
		cur := len(c.cur.Load().insts)
		switch {
		case cur < n:
			if err := c.addLocked(); err != nil {
				return err
			}
		case cur > n:
			if err := c.removeLocked(); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

// move is one flow's recorded migration, kept for rollback.
type move struct {
	fid      flow.FID
	from, to *instance
}

// rebalance migrates every flow whose owner changes between old's
// instance set and newInsts, then publishes the new view. Caller holds
// c.mu. The whole transfer happens under every involved instance's
// write lock: in-flight packets drain at their packet boundary, new
// arrivals block at the gates, and no packet is ever processed against
// a half-moved flow — zero drops, zero divergence.
//
// Each migration is transactional: the flow's engine-side state is
// extracted from the old owner, serialized through the migration wire
// record (the same bytes a cross-host transfer would ship), and
// installed on the new owner with one epoch-stamped rule Install under
// the shard lock. An injected fault.KindMigrationAbort rolls the
// entire rebalance back — already-moved flows migrate home in reverse
// order — and leaves the old view published, no orphan state on any
// new owner, and every epoch untouched.
func (c *Cluster) rebalance(old *view, newInsts []*instance) error {
	nv := &view{insts: newInsts, table: populate(names(newInsts), DefaultTableSize)}

	// Write-lock the union of old and new instance sets, in a stable
	// order. Workers only ever hold one read lock at a time, so any
	// consistent order is deadlock-free.
	locked := append(append([]*instance(nil), old.insts...), newInsts...)
	seen := make(map[*instance]bool, len(locked))
	gates := locked[:0]
	for _, in := range locked {
		if !seen[in] {
			seen[in] = true
			gates = append(gates, in)
		}
	}
	for _, in := range gates {
		in.mu.Lock()
	}
	defer func() {
		for _, in := range gates {
			in.mu.Unlock()
		}
	}()

	inj := c.cfg.Options.Faults
	var moved []move
	var failure error
scan:
	for _, from := range old.insts {
		eng := from.engine()
		for _, entry := range eng.FlowEntries() {
			to := nv.owner(flow.HashTuple(entry.Tuple))
			if to == from {
				continue
			}
			// The abort decision point: one consultation per flow that
			// must move, in deterministic (instance, FID) order.
			if inj.Should(fault.KindMigrationAbort, entry.FID) {
				failure = ErrMigrationAborted
				break scan
			}
			if err := c.migrate(entry.FID, from, to); err != nil {
				failure = err
				break scan
			}
			moved = append(moved, move{fid: entry.FID, from: from, to: to})
		}
	}
	if failure != nil {
		// Roll back in reverse: each moved flow migrates home through
		// the same transactional path. Nothing was processed since the
		// gates are still held, so the records are bit-identical to
		// what extraction produced.
		for i := len(moved) - 1; i >= 0; i-- {
			m := moved[i]
			if err := c.migrate(m.fid, m.to, m.from); err != nil {
				return fmt.Errorf("cluster: rollback of %v: %w", m.fid, err)
			}
		}
		c.aborts.Add(1)
		return failure
	}
	c.cur.Store(nv)
	c.rebalances.Add(1)
	c.migrations.Add(uint64(len(moved)))
	return nil
}

// migrate moves one flow between instances through the serialized
// migration record. Caller holds both instances' write locks.
func (c *Cluster) migrate(fid flow.FID, from, to *instance) error {
	mf, ok := from.engine().ExtractFlow(fid)
	if !ok {
		return nil
	}
	// Round-trip through the wire encoding: the new owner adopts
	// exactly the bytes a cross-host transfer would deliver.
	decoded, err := wal.DecodeMigration(wal.EncodeMigration([]wal.MigrationRecord{mf}))
	if err != nil {
		// The record never left this process, so the flow is restored
		// onto its old owner untouched.
		from.engine().AdoptFlow(mf)
		return err
	}
	d := &decoded[0]
	if c.TamperMigration != nil {
		c.TamperMigration(d)
	}
	to.engine().AdoptFlow(*d)
	if d.Rule != nil {
		c.ruleMoves.Add(1)
	} else if mf.Rule == nil {
		c.demotions.Add(1)
	}
	return nil
}

// Reconfigure applies one chain plan to every instance, each at a
// packet boundary its engine holds. The first instance decides
// cluster-wide success with the abort injector live; once it commits,
// the remaining instances apply the same plan with aborts suppressed —
// the fleet either all moves to the new chain and epoch or none of it
// does.
func (c *Cluster) Reconfigure(plan core.ChainPlan) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.cur.Load()
	if err := v.insts[0].plat.Reconfigure(plan); err != nil {
		return err
	}
	if len(v.insts) > 1 {
		if err := c.replay(v.insts[1:], []core.ChainPlan{plan}); err != nil {
			return err
		}
	}
	c.plans = append(c.plans, plan)
	return nil
}

// CrashInstance kills the i-th instance and replaces it with a fresh
// engine restored from a checkpoint taken at the crash boundary plus
// its durable WAL suffix (when Durable). The shared chain NFs survive
// the crash, so the checkpoint's blobs of their cross-flow state are
// deliberately dropped; the flows' own NF state is the engine's, and
// comes back with the flow entries. The steering
// table is unchanged: the replacement inherits the crashed instance's
// name and slot assignments.
func (c *Cluster) CrashInstance(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.cur.Load()
	if i < 0 || i >= len(v.insts) {
		return fmt.Errorf("%w: index %d", ErrUnknownInstance, i)
	}
	in := v.insts[i]
	in.mu.Lock()
	defer in.mu.Unlock()

	cp, err := in.engine().Checkpoint()
	if err != nil {
		return fmt.Errorf("cluster: crash checkpoint %s: %w", in.name, err)
	}
	blob := cp.Encode()
	var walBytes []byte
	if in.walW != nil {
		walBytes = append([]byte(nil), in.walW.DurableBytes()...)
	}

	restored, err := wal.DecodeCheckpoint(blob)
	if err != nil {
		return fmt.Errorf("cluster: crash restore %s: %w", in.name, err)
	}
	restored.NFState = nil // shared NFs survived with their cross-flow state
	fresh, err := c.newInstance(in.name, func(e *core.Engine) error { return e.Restore(restored, walBytes) })
	if err != nil {
		return fmt.Errorf("cluster: crash restore %s: %w", in.name, err)
	}
	insts := append([]*instance(nil), v.insts...)
	insts[i] = fresh
	c.cur.Store(&view{insts: insts, table: v.table})
	return c.retire(in)
}

// AdviseInstances is the autoscaling hint: given the current instance
// count, bounds, and observed per-worker queue depths (the PR-2
// speedybox_mq_queue_depth gauges), it suggests a target count — one
// more instance when the mean depth is above high, one fewer when
// below low, otherwise cur. It is a pure function so operators and
// tests can reason about it; the daemon exposes the suggestion, it
// never acts on it unilaterally.
func AdviseInstances(cur, min, max int, depths []int, low, high float64) int {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	if len(depths) == 0 {
		return clamp(cur, min, max)
	}
	total := 0
	for _, d := range depths {
		total += d
	}
	mean := float64(total) / float64(len(depths))
	switch {
	case mean > high:
		return clamp(cur+1, min, max)
	case mean < low:
		return clamp(cur-1, min, max)
	default:
		return clamp(cur, min, max)
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Close releases every live instance (closing a platform cannot fail).
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, in := range c.cur.Load().insts {
		_ = in.plat.Close()
	}
	return nil
}
