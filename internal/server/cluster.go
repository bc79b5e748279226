package server

import (
	"fmt"
	"net/http"

	"github.com/fastpathnfv/speedybox/internal/cluster"
)

// Autoscale advice thresholds over the mean per-worker queue depth of
// the last pump window. Between them the suggestion is "stay"; the
// daemon only ever reports the suggestion (via /v1/status), it never
// resizes the fleet on its own.
const (
	scaleDownDepth = 64
	scaleUpDepth   = 1024
)

// clusterScaleRequest asks the fleet to resize to a target instance
// count; the rebalances run live against flowing traffic.
type clusterScaleRequest struct {
	Instances int `json:"instances"`
}

// clusterScaleResponse reports the fleet after the resize, in the same
// shape the /v1/status cluster section uses.
type clusterScaleResponse struct {
	Instances  []cluster.InstanceStatus `json:"instances"`
	Migrations uint64                   `json:"migrations_total"`
	Rebalances uint64                   `json:"rebalances_total"`
	Aborts     uint64                   `json:"migration_aborts_total"`
}

// handleClusterScale resizes the engine fleet one rebalance at a time.
// The pump is deliberately NOT paused: live migration under traffic is
// the operation's contract — packets racing a rebalance buffer at the
// instances' drain gates and re-route, so the resize drops nothing.
func (d *Daemon) handleClusterScale(w http.ResponseWriter, r *http.Request) {
	var req clusterScaleRequest
	d.admin(w, r, &req, func() (any, error) {
		if req.Instances == 0 {
			return nil, fmt.Errorf("%w: scale needs a target instance count", ErrBadRequest)
		}
		if d.cl == nil {
			return nil, fmt.Errorf("%w: start with -instances > 1", ErrNotClustered)
		}
		if err := d.cl.ScaleTo(req.Instances); err != nil {
			return nil, err
		}
		return clusterScaleResponse{
			Instances:  d.cl.Instances(),
			Migrations: d.cl.Migrations(),
			Rebalances: d.cl.Rebalances(),
			Aborts:     d.cl.Aborts(),
		}, nil
	})
}

// statusCluster is the /v1/status cluster section: the per-instance
// rollup plus fleet counters and the autoscaling suggestion.
type statusCluster struct {
	Instances          []cluster.InstanceStatus `json:"instances"`
	Migrations         uint64                   `json:"migrations_total"`
	Rebalances         uint64                   `json:"rebalances_total"`
	MigrationAborts    uint64                   `json:"migration_aborts_total"`
	SuggestedInstances int                      `json:"suggested_instances"`
}

// clusterStatus assembles the cluster section (nil when not clustered);
// the autoscaling suggestion reads the workers' queue-depth gauges.
func (d *Daemon) clusterStatus(workers []statusWorker) *statusCluster {
	if d.cl == nil {
		return nil
	}
	depths := make([]int, len(workers))
	for i, w := range workers {
		depths[i] = int(w.QueueDepth)
	}
	return &statusCluster{
		Instances:       d.cl.Instances(),
		Migrations:      d.cl.Migrations(),
		Rebalances:      d.cl.Rebalances(),
		MigrationAborts: d.cl.Aborts(),
		SuggestedInstances: cluster.AdviseInstances(
			d.cl.Len(), 1, d.cfg.MaxInstances,
			depths, scaleDownDepth, scaleUpDepth),
	}
}
