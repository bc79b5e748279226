package harness

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/fastpathnfv/speedybox/internal/cluster"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
)

// The cluster row (OracleConfig.Cluster): every scale step live-migrates
// the reassigned flows — flow entry, consolidated rule, ladder reset —
// through the serialized migration record, and no packet anywhere near
// a cutover may be dropped, reordered onto a stale owner, or processed
// differently than the static single-engine reference processed it.

// clusterScaleTargets is the per-schedule scaling walk: out, further
// out, back in — exercising add-migration, spread-migration and
// drain-migration in one trace.
var clusterScaleTargets = [...]int{2, 4, 3}

// clusterSystem is the cluster adapter: one chain row on a fleet of
// engines sharing the chain's NF instances.
type clusterSystem struct {
	oc *oracleChain
	cl *cluster.Cluster
	pb *platform.Batch
	// crashed counts crashes so far; victims rotate round-robin.
	crashed int
}

func newClusterSystem(build func() ([]core.NF, error), cfg OracleConfig, opts core.Options) (system, error) {
	nfs, err := build()
	if err != nil {
		return nil, err
	}
	if cfg.Rates == nil {
		// The abort injector is consulted once per *flow that must
		// move*, so the schedule-default 8% rate would abort nearly
		// every multi-flow rebalance and the oracle would never watch
		// a migration commit. A low per-flow rate makes most
		// rebalances land while still rolling a healthy minority back.
		opts.Faults.SetRate(fault.KindMigrationAbort, 0.02)
	}
	cl, err := cluster.New(cluster.Config{
		Chain:     nfs,
		Options:   opts,
		Instances: 1,
		Durable:   cfg.Crashes > 0,
	})
	if err != nil {
		return nil, err
	}
	cl.TamperMigration = cfg.TamperMigration
	return &clusterSystem{oc: observeChain(nfs), cl: cl, pb: platform.NewBatch(cfg.Batch)}, nil
}

func (s *clusterSystem) run(pkts []*packet.Packet, batch int, fold func(off, chain int, ms []platform.Measurement)) error {
	return s.cl.ProcessRuns(pkts, batch, s.pb, func(off int, ms []platform.Measurement) error {
		fold(off, 0, ms)
		return nil
	})
}

// events schedules the scale walk at seeded offsets inside the middle
// 80% of the trace.
func (s *clusterSystem) events(seed int64, n int) []oracleEvent {
	offsets := midTraceOffsets(rand.New(rand.NewSource(seed^0x5ca1e)), len(clusterScaleTargets), n)
	events := make([]oracleEvent, len(offsets))
	for i, at := range offsets {
		target := clusterScaleTargets[i]
		events[i] = oracleEvent{at, func() error {
			// An aborted rebalance rolled back whole: the cluster stays
			// at a consistent intermediate size and the packet stream
			// must not be able to tell.
			if err := s.cl.ScaleTo(target); err != nil && !errors.Is(err, cluster.ErrMigrationAborted) {
				return fmt.Errorf("scale to %d: %w", target, err)
			}
			return nil
		}}
	}
	return events
}

// reconfigure applies the plan cluster-wide. Instance 0 decides before
// the rest apply, so an aborted plan left every instance untouched.
func (s *clusterSystem) reconfigure(plan core.ChainPlan) error { return s.cl.Reconfigure(plan) }

// crash kills one instance and restores it from its checkpoint and WAL.
// The cluster records applied plans itself, and banks the crashed
// engine's counters inside cl.Stats().
func (s *clusterSystem) crash([]reconfigEvent) error {
	idx := s.crashed % s.cl.Len()
	s.crashed++
	if err := s.cl.CrashInstance(idx); err != nil {
		return fmt.Errorf("crash instance %d: %w", idx, err)
	}
	return nil
}

func (s *clusterSystem) chain() *oracleChain { return s.oc }

func (s *clusterSystem) engines() []*core.Engine {
	engs := make([]*core.Engine, s.cl.Len())
	for i := range engs {
		engs[i] = s.cl.Engine(i)
	}
	return engs
}

func (s *clusterSystem) finish(res *OracleResult) {
	res.bank(s.cl.Stats())
	res.Migrations += s.cl.Migrations()
	res.MigrationAborts += s.cl.Aborts()
	res.Rebalances += s.cl.Rebalances()
	// Close releases the instances' platforms; BESS holds nothing that
	// can fail to close.
	_ = s.cl.Close()
}
