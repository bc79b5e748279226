package server

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/fastpathnfv/speedybox/internal/chainspec"
	"github.com/fastpathnfv/speedybox/internal/errcode"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
)

// maxBodyBytes bounds admin request bodies. Plans are a few hundred
// bytes; inline checkpoint restores dominate, and a megabyte covers
// any table this model holds.
const maxBodyBytes = 8 << 20

// handler assembles the admin mux: the /v1 control API plus the
// observability endpoints on the same listener.
func (d *Daemon) handler() http.Handler {
	mux := http.NewServeMux()
	obs := telemetry.Handler(d.hub)
	mux.Handle("/metrics", obs)
	mux.Handle("/statusz", obs)
	mux.Handle("/debug/pprof/", obs)
	mux.HandleFunc("/v1/plan", d.handlePlan)
	mux.HandleFunc("/v1/topo", d.handleTopo)
	mux.HandleFunc("/v1/checkpoint", d.handleCheckpoint)
	mux.HandleFunc("/v1/restore", d.handleRestore)
	mux.HandleFunc("/v1/cluster/scale", d.handleClusterScale)
	mux.HandleFunc("/v1/drain", d.handleDrain)
	mux.HandleFunc("/v1/undrain", d.handleUndrain)
	mux.HandleFunc("/v1/status", d.handleStatus)
	mux.HandleFunc("/v1/errors", d.handleErrors)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, fmt.Errorf("%w: %s", ErrNotFound, r.URL.Path))
	})
	return mux
}

// readBody drains a size-capped request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, fmt.Errorf("%w: limit %d bytes", ErrBodyTooLarge, mbe.Limit)
		}
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	return body, nil
}

// admin is every /v1 mutation's one request path: POST only; when req
// is non-nil the capped body is decoded into it (a *[]byte takes it
// raw; an empty body decodes nothing); then, under adminMu and once
// guard passes, fn runs and its result or error is rendered.
func (d *Daemon) admin(w http.ResponseWriter, r *http.Request, req any, fn func() (any, error)) {
	if r.Method != http.MethodPost {
		writeError(w, fmt.Errorf("%w: %s %s", ErrMethodNotAllowed, r.Method, r.URL.Path))
		return
	}
	if req != nil {
		body, err := readBody(w, r)
		if err != nil {
			writeError(w, err)
			return
		}
		if raw, ok := req.(*[]byte); ok {
			*raw = body
		} else if len(body) > 0 {
			if err := json.Unmarshal(body, req); err != nil {
				writeError(w, fmt.Errorf("%w: %w", ErrBadRequest, err))
				return
			}
		}
	}
	d.adminMu.Lock()
	defer d.adminMu.Unlock()
	err := d.guard()
	var resp any
	if err == nil {
		resp, err = fn()
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, resp)
}

func get(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		writeError(w, fmt.Errorf("%w: %s %s", ErrMethodNotAllowed, r.Method, r.URL.Path))
		return false
	}
	return true
}

// planResponse reports a completed live reconfiguration.
type planResponse struct {
	Epoch uint64   `json:"epoch"`
	Chain []string `json:"chain"`
}

// handlePlan applies a chainspec.ChainPlan document to the running
// chain via the platform's live-reconfiguration path. Traffic keeps
// flowing: Engine.Reconfigure waits out the vectors in flight, holds the
// next off while it swaps the chain, and retires the old chain's rules by
// their epoch, so the pump is not gated. The engine validates the plan.
func (d *Daemon) handlePlan(w http.ResponseWriter, r *http.Request) {
	var body []byte
	d.admin(w, r, &body, func() (any, error) {
		plan, err := chainspec.ParsePlan(body)
		if err != nil {
			return nil, err
		}
		compiled, err := plan.Compile()
		if err != nil {
			return nil, err
		}
		if d.cl != nil {
			// Cluster mode: the plan commits fleet-wide or not at all.
			err = d.cl.Reconfigure(compiled)
		} else {
			err = d.plat.Reconfigure(compiled)
		}
		if err != nil {
			return nil, err
		}
		eng := d.Engine()
		return planResponse{Epoch: eng.Epoch(), Chain: eng.ChainNames()}, nil
	})
}

// checkpointRequest selects the checkpoint destination: a file path
// (default Config.CheckpointPath) and/or the encoded bytes inline.
type checkpointRequest struct {
	Path   string `json:"path,omitempty"`
	Inline bool   `json:"inline,omitempty"`
}

type checkpointResponse struct {
	Epoch  uint64 `json:"epoch"`
	WALSeq uint64 `json:"wal_seq"`
	Bytes  int    `json:"bytes"`
	Path   string `json:"path,omitempty"`
	// Checkpoint is the base64-encoded snapshot when inline was
	// requested — what POST /v1/restore accepts back.
	Checkpoint string `json:"checkpoint,omitempty"`
	// WAL is the base64-encoded durable journal when inline was
	// requested, replayable past the checkpoint on restore.
	WAL string `json:"wal,omitempty"`
}

// handleCheckpoint snapshots the engine. Engine.Checkpoint takes its own
// packet boundary, so the pump keeps running.
func (d *Daemon) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	var req checkpointRequest
	d.admin(w, r, &req, func() (any, error) {
		if d.cl != nil {
			return nil, fmt.Errorf("%w: per-instance checkpoints are internal to the cluster", ErrClusterMode)
		}
		path := req.Path
		if path == "" {
			path = d.cfg.CheckpointPath
		}
		cp, data, err := d.checkpoint(path)
		if err != nil {
			return nil, err
		}
		resp := checkpointResponse{
			Epoch:  cp.Epoch,
			WALSeq: cp.WALSeq,
			Bytes:  len(data),
			Path:   path,
		}
		// With no destination anywhere the bytes must travel inline, or
		// the snapshot would be unreachable.
		if req.Inline || path == "" {
			resp.Checkpoint = base64.StdEncoding.EncodeToString(data)
			resp.WAL = base64.StdEncoding.EncodeToString(d.walW.DurableBytes())
		}
		return resp, nil
	})
}

// restoreRequest carries the snapshot to load: inline base64 fields
// (as returned by an inline checkpoint) or file paths.
type restoreRequest struct {
	Checkpoint     string `json:"checkpoint,omitempty"`
	WAL            string `json:"wal,omitempty"`
	CheckpointPath string `json:"checkpoint_path,omitempty"`
	WALPath        string `json:"wal_path,omitempty"`
}

type restoreResponse struct {
	Epoch uint64   `json:"epoch"`
	Flows int      `json:"flows"`
	Rules int      `json:"rules"`
	Chain []string `json:"chain"`
}

// handleRestore loads a checkpoint (plus optional journal suffix) into
// the engine. Engine.Restore's precondition is a fresh engine, so the
// daemon must carry no traffic (Starting or Draining) and its engine
// must never have classified a packet or tracked a flow: a restore
// into a served engine would merge two flow tables.
func (d *Daemon) handleRestore(w http.ResponseWriter, r *http.Request) {
	var req restoreRequest
	d.admin(w, r, &req, func() (any, error) {
		if d.cl != nil {
			return nil, fmt.Errorf("%w: crash-restore is internal to the cluster", ErrClusterMode)
		}
		if st := d.State(); st != Starting && st != Draining {
			return nil, fmt.Errorf("%w: restore while %s (drain first)", ErrBadState, st)
		}
		eng := d.plat.Engine()
		if pkts, flows := eng.Stats().Packets, eng.FlowLen(); pkts > 0 || flows > 0 {
			return nil, fmt.Errorf("%w: restore into an engine that has classified %d packets and tracks %d flows (restore needs a fresh engine)",
				ErrBadState, pkts, flows)
		}
		var cpData, walData []byte
		var err error
		switch {
		case req.Checkpoint != "":
			if cpData, err = base64.StdEncoding.DecodeString(req.Checkpoint); err != nil {
				return nil, fmt.Errorf("%w: checkpoint: %w", ErrBadRequest, err)
			}
			if walData, err = base64.StdEncoding.DecodeString(req.WAL); err != nil {
				return nil, fmt.Errorf("%w: wal: %w", ErrBadRequest, err)
			}
		case req.CheckpointPath != "":
			if cpData, walData, err = readFiles(req.CheckpointPath, req.WALPath); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: restore needs a checkpoint or checkpoint_path", ErrBadRequest)
		}
		cp, err := d.restore(cpData, walData)
		if err != nil {
			return nil, err
		}
		return restoreResponse{
			Epoch: eng.Epoch(),
			Flows: len(cp.Flows),
			Rules: len(cp.Rules),
			Chain: eng.ChainNames(),
		}, nil
	})
}

type stateResponse struct {
	State string `json:"state"`
}

// handleDrain gates the pump at a packet boundary and enters Draining.
// Idempotent from Draining.
func (d *Daemon) handleDrain(w http.ResponseWriter, r *http.Request) {
	d.admin(w, r, nil, func() (any, error) {
		switch d.State() {
		case Serving:
			if d.pump != nil {
				d.pump.pause()
			}
			d.state.Store(int32(Draining))
		case Draining:
			// already drained
		default:
			return nil, fmt.Errorf("%w: drain while %s", ErrBadState, d.State())
		}
		return stateResponse{State: d.State().String()}, nil
	})
}

// handleUndrain reopens the pump gate and returns to Serving.
// Idempotent from Serving.
func (d *Daemon) handleUndrain(w http.ResponseWriter, r *http.Request) {
	d.admin(w, r, nil, func() (any, error) {
		switch d.State() {
		case Draining:
			d.state.Store(int32(Serving))
			if d.pump != nil {
				d.pump.resume()
			}
		case Serving:
			// already serving
		default:
			return nil, fmt.Errorf("%w: undrain while %s", ErrBadState, d.State())
		}
		return stateResponse{State: d.State().String()}, nil
	})
}

type statusStats struct {
	Packets           uint64 `json:"packets"`
	FastPath          uint64 `json:"fast_path"`
	SlowPath          uint64 `json:"slow_path"`
	Dropped           uint64 `json:"dropped"`
	Consolidations    uint64 `json:"consolidations"`
	EventsFired       uint64 `json:"events_fired"`
	SlowPathFallbacks uint64 `json:"slow_path_fallbacks"`
	DegradedPackets   uint64 `json:"degraded_packets"`
	FaultRecoveries   uint64 `json:"fault_recoveries"`
}

type statusWAL struct {
	DurableBytes int    `json:"durable_bytes"`
	Size         int    `json:"size"`
	Seq          uint64 `json:"seq"`
	Syncs        uint64 `json:"syncs"`
}

type statusCheckpoint struct {
	// AgeSeconds is -1 before the first checkpoint.
	AgeSeconds float64 `json:"age_seconds"`
	LastUnix   int64   `json:"last_unix,omitempty"`
}

type statusWorker struct {
	Worker     int     `json:"worker"`
	QueueDepth float64 `json:"queue_depth"`
	Packets    uint64  `json:"packets"`
}

type statusPump struct {
	Enabled bool   `json:"enabled"`
	Paused  bool   `json:"paused"`
	Windows uint64 `json:"windows"`
	Packets uint64 `json:"packets"`
	Drops   uint64 `json:"drops"`
	Error   string `json:"error,omitempty"`
}

type statusResponse struct {
	State         string           `json:"state"`
	Platform      string           `json:"platform"`
	UptimeSeconds float64          `json:"uptime_seconds"`
	Epoch         uint64           `json:"epoch"`
	Chain         []string         `json:"chain"`
	DegradedFlows int              `json:"degraded_flows"`
	Stats         statusStats      `json:"stats"`
	WAL           statusWAL        `json:"wal"`
	Checkpoint    statusCheckpoint `json:"checkpoint"`
	Workers       []statusWorker   `json:"workers"`
	Pump          statusPump       `json:"pump"`
	// Cluster is the per-instance rollup, fleet counters and autoscale
	// suggestion; present only in cluster mode.
	Cluster *statusCluster `json:"cluster,omitempty"`
}

// handleStatus reports the daemon's full control-plane view: lifecycle
// state, chain and epoch, engine counters, WAL durability position,
// checkpoint age and the per-worker queue gauges. In cluster mode the
// stats aggregate the whole fleet (including retired instances, so
// counters stay monotonic across scale-in) and a cluster section adds
// the per-instance rollup.
func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	if !get(w, r) {
		return
	}
	eng := d.Engine()
	st := eng.Stats()
	degraded := eng.DegradedFlows()
	snap := d.hub.Registry.Snapshot()
	var workers []statusWorker
	for i := 0; i < d.mq.Workers(); i++ {
		workers = append(workers, statusWorker{
			Worker:     i,
			QueueDepth: snap.Gauges[fmt.Sprintf(`speedybox_mq_queue_depth{worker="%d"}`, i)],
			Packets:    snap.Counters[fmt.Sprintf(`speedybox_mq_worker_packets_total{worker="%d"}`, i)],
		})
	}
	clStatus := d.clusterStatus(workers)
	if clStatus != nil {
		st = d.cl.Stats()
		degraded = 0
		for _, in := range clStatus.Instances {
			degraded += in.Degraded
		}
	}
	resp := statusResponse{
		State:         d.State().String(),
		Platform:      d.PlatformName(),
		UptimeSeconds: time.Since(d.started).Seconds(),
		Epoch:         eng.Epoch(),
		Chain:         eng.ChainNames(),
		DegradedFlows: degraded,
		Workers:       workers,
		Cluster:       clStatus,
		Stats: statusStats{
			Packets:           st.Packets,
			FastPath:          st.FastPath,
			SlowPath:          st.SlowPath,
			Dropped:           st.Dropped,
			Consolidations:    st.Consolidations,
			EventsFired:       st.EventsFired,
			SlowPathFallbacks: st.SlowPathFallbacks,
			DegradedPackets:   st.DegradedPackets,
			FaultRecoveries:   st.FaultRecoveries,
		},
		WAL: statusWAL{
			DurableBytes: d.walW.DurableLen(),
			Size:         d.walW.Size(),
			Seq:          d.walW.Seq(),
			Syncs:        d.walW.Syncs(),
		},
		Checkpoint: statusCheckpoint{AgeSeconds: -1},
	}
	if last := eng.LastCheckpoint(); !last.IsZero() {
		resp.Checkpoint.AgeSeconds = time.Since(last).Seconds()
		resp.Checkpoint.LastUnix = last.Unix()
	}
	if p := d.pump; p != nil {
		resp.Pump = statusPump{
			Enabled: true,
			Paused:  p.paused(),
			Windows: p.windows.Load(),
			Packets: p.packets.Load(),
			Drops:   p.drops.Load(),
		}
		if err := p.err(); err != nil {
			resp.Pump.Error = err.Error()
		}
	}
	writeJSON(w, resp)
}

type errorsResponse struct {
	Codes []errcode.Registration `json:"codes"`
}

// handleErrors serves the machine-readable error-code registry so
// clients can enumerate every code the API may return.
func (d *Daemon) handleErrors(w http.ResponseWriter, r *http.Request) {
	if !get(w, r) {
		return
	}
	writeJSON(w, errorsResponse{Codes: errcode.All()})
}
