// Package server is the SpeedyBox control plane: a long-running daemon
// owning one engine and its execution platform, exposing an HTTP/JSON
// admin API for live chain reconfiguration (PR "plan"), durability
// (checkpoint/restore over the WAL subsystem) and lifecycle control
// (drain/undrain), alongside the observability endpoints (/metrics,
// /statusz, /debug/pprof) on the same listener.
//
// Lifecycle is a one-way state machine with a single reversible edge:
//
//	Starting ──Start──▶ Serving ◀──undrain──┐
//	    │                  │ drain          │
//	    │                  ▼                │
//	    │               Draining ───────────┘
//	    │                  │ Shutdown
//	    └──────────────────▼
//	                    Stopped
//
// Admin operations serialize on one mutex; the data path never takes
// it. The engine holds its own packet boundary for a plan or a
// checkpoint. Draining closes the traffic pump's window gate: a restore,
// which needs a fresh engine, runs only with no traffic. Every API failure is
// rendered as {"code","message"} where code is a registered
// errcode.Code, so clients assert machine-readable codes, never
// message strings.
package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fastpathnfv/speedybox/internal/bess"
	"github.com/fastpathnfv/speedybox/internal/chainspec"
	"github.com/fastpathnfv/speedybox/internal/cluster"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/errcode"
	"github.com/fastpathnfv/speedybox/internal/onvm"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
	"github.com/fastpathnfv/speedybox/internal/topo"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// State is the daemon's lifecycle position.
type State int32

const (
	// Starting: constructed, admin API up, no traffic flowing. The only
	// state that accepts a boot-time restore besides Draining.
	Starting State = iota
	// Serving: traffic pump running, all admin operations accepted.
	Serving
	// Draining: pump gated between windows; restore accepted, plans
	// and checkpoints too, undrain returns to Serving.
	Draining
	// Stopped: shutdown complete; every admin operation fails with
	// server.stopped.
	Stopped
)

// String names the state for /v1/status and logs.
func (s State) String() string {
	switch s {
	case Starting:
		return "starting"
	case Serving:
		return "serving"
	case Draining:
		return "draining"
	case Stopped:
		return "stopped"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// DefaultSpecJSON is the boot chain when no spec is configured: the
// paper's Chain 1 (MazuNAT → Maglev → Monitor → IPFilter) on the BESS
// model, with the NAT's internal prefix matching the trace generator's
// default source range so the built-in pump drops nothing.
const DefaultSpecJSON = `{
  "name": "chain1",
  "platform": "bess",
  "nfs": [
    {"type": "mazunat", "name": "mazunat",
     "internal_prefix": "10.0.0.0/8", "external_ip": "198.51.100.1"},
    {"type": "maglev", "name": "maglev", "backends": [
      {"name": "backend-a", "ip": "192.168.1.10", "port": 8080},
      {"name": "backend-b", "ip": "192.168.1.11", "port": 8080},
      {"name": "backend-c", "ip": "192.168.1.12", "port": 8080}
    ]},
    {"type": "monitor", "name": "monitor"},
    {"type": "ipfilter", "name": "ipfilter"}
  ]
}`

// Config configures a Daemon. The zero value is runnable: default
// chain, ephemeral port, in-memory WAL, pump on.
type Config struct {
	// Addr is the admin listen address ("127.0.0.1:0" default, which
	// makes tests race-free; Addr() reports the bound port).
	Addr string
	// SpecJSON is the boot chain spec (chainspec.Spec document); empty
	// selects DefaultSpecJSON.
	SpecJSON []byte
	// Workers is the multi-queue worker count (default 4).
	Workers int
	// BatchSize is the per-worker vector size (default
	// core.DefaultBatchSize).
	BatchSize int
	// Baseline disables SpeedyBox (original chain, no fast path).
	Baseline bool
	// WALGroupCommit is the records-per-sync batch (0 = WAL default).
	WALGroupCommit int
	// WALPath, when set, streams the durable WAL byte stream into that
	// file so the journal survives the process.
	WALPath string
	// CheckpointPath, when set, is the default target for POST
	// /v1/checkpoint and receives a final checkpoint during Shutdown.
	CheckpointPath string
	// RestoreFrom, when set, is a checkpoint file restored into the
	// fresh engine before traffic starts.
	RestoreFrom string
	// RestoreWAL, when set, is a journal file whose suffix past the
	// checkpoint's sequence is replayed after RestoreFrom.
	RestoreWAL string
	// Instances, when > 1, runs a fleet of that many engine instances
	// behind the consistent-hash flow steerer instead of a single
	// platform. POST /v1/cluster/scale resizes the fleet live;
	// /v1/status gains a per-instance rollup. Cluster mode requires the
	// bess platform and excludes WALPath/CheckpointPath/RestoreFrom
	// (per-instance durability is internal to the cluster).
	Instances int
	// MaxInstances bounds the autoscaling suggestion in /v1/status
	// (default 8). It does not bound POST /v1/cluster/scale, which the
	// cluster caps at its steering-table size.
	MaxInstances int
	// Pump configures the built-in traffic source.
	Pump PumpConfig
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if len(c.SpecJSON) == 0 {
		c.SpecJSON = []byte(DefaultSpecJSON)
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.BatchSize == 0 {
		c.BatchSize = core.DefaultBatchSize
	}
	if c.Instances == 0 {
		c.Instances = 1
	}
	if c.MaxInstances == 0 {
		c.MaxInstances = 8
	}
	return c
}

// Daemon is one engine + platform — or, in cluster mode, a fleet of
// engine instances behind the flow steerer — under an HTTP/JSON
// control plane.
type Daemon struct {
	cfg  Config
	hub  *telemetry.Hub
	plat *platform.Platform // nil in cluster mode
	// cl is the engine fleet in cluster mode (Config.Instances > 1).
	cl *cluster.Cluster
	// mq drives plat or cl: the pump's sink in both modes.
	mq   *platform.MultiQueue
	walW *wal.Writer // nil in cluster mode, whose durability is per instance
	walF *os.File    // WALPath sink, nil for in-memory logs

	// adminMu serializes every admin mutation (plan, checkpoint,
	// restore, drain, undrain, shutdown). The data path never takes it;
	// the engine's packet-boundary fence handles data-plane safety.
	adminMu sync.Mutex
	state   atomic.Int32
	pump    *pump
	started time.Time
	// stagedTopo is the last topology accepted by POST /v1/topo
	// (validated and dry-run built, awaiting deployment).
	stagedTopo *topo.Spec

	ln  net.Listener
	srv *http.Server
}

// New builds the daemon: chain from spec, platform, WAL, optional
// boot-time restore, multi-queue dispatcher, pump, and the admin
// listener (already serving when New returns, in state Starting).
func New(cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	spec, err := chainspec.Parse(cfg.SpecJSON)
	if err != nil {
		return nil, err
	}
	chain, err := spec.Build()
	if err != nil {
		return nil, err
	}

	hub := telemetry.NewHub()
	opts := core.DefaultOptions()
	if cfg.Baseline {
		opts = core.BaselineOptions()
	}
	opts.Telemetry = hub

	d := &Daemon{cfg: cfg, hub: hub, started: time.Now()}
	var fleet platform.Fleet
	if cfg.Instances > 1 {
		if spec.Platform == "onvm" {
			return nil, fmt.Errorf("%w: cluster mode requires the bess platform", cluster.ErrBadConfig)
		}
		if cfg.WALPath != "" || cfg.CheckpointPath != "" || cfg.RestoreFrom != "" {
			return nil, fmt.Errorf("%w: file durability options apply to single-instance mode", ErrClusterMode)
		}
		d.cl, err = cluster.New(cluster.Config{
			Chain: chain, Options: opts,
			Instances: cfg.Instances, Hub: hub, Durable: true,
		})
		if err != nil {
			return nil, err
		}
		fleet = d.cl
	} else {
		switch spec.Platform {
		case "onvm":
			d.plat, err = onvm.New(onvm.Config{Chain: chain, Options: opts})
		default:
			d.plat, err = bess.New(bess.Config{Chain: chain, Options: opts})
		}
		if err != nil {
			return nil, err
		}
		eng := d.plat.Engine()

		// Restore precedes WAL attachment: replayed installs must not be
		// re-journaled into the fresh log, whose first records should be
		// post-boot mutations anchored by the next checkpoint.
		if cfg.RestoreFrom != "" {
			cpData, walData, err := readFiles(cfg.RestoreFrom, cfg.RestoreWAL)
			if err == nil {
				_, err = d.restore(cpData, walData)
			}
			if err != nil {
				d.plat.Close()
				return nil, err
			}
		}

		walOpts := wal.Options{GroupCommit: cfg.WALGroupCommit}
		if cfg.WALPath != "" {
			f, err := os.Create(cfg.WALPath)
			if err != nil {
				d.plat.Close()
				return nil, fmt.Errorf("%w: %w", ErrCheckpointIO, err)
			}
			d.walF = f
			walOpts.Sink = f
		}
		d.walW = wal.NewWriter(walOpts)
		eng.AttachWAL(d.walW)
		fleet = d.plat
	}

	d.mq, err = platform.NewMultiQueue(fleet, cfg.Workers)
	if err != nil {
		d.closeFiles()
		d.closePlatform()
		return nil, err
	}
	d.mq.SetBatchSize(cfg.BatchSize)
	if !cfg.Pump.Disable {
		d.pump, err = newPump(d.mq, cfg.Pump)
		if err != nil {
			d.closeFiles()
			d.closePlatform()
			return nil, err
		}
	}

	hub.Registry.GaugeFunc("speedybox_daemon_state",
		"Daemon lifecycle state (0=starting 1=serving 2=draining 3=stopped)",
		func() float64 { return float64(d.state.Load()) })
	hub.Registry.GaugeFunc("speedybox_daemon_uptime_seconds",
		"Seconds since the daemon was constructed",
		func() float64 { return time.Since(d.started).Seconds() })

	d.ln, err = net.Listen("tcp", cfg.Addr)
	if err != nil {
		d.closeFiles()
		d.closePlatform()
		return nil, fmt.Errorf("server: listen %s: %w", cfg.Addr, err)
	}
	d.srv = &http.Server{Handler: d.handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = d.srv.Serve(d.ln) }()
	return d, nil
}

// Addr returns the bound admin address (usable with Addr ":0").
func (d *Daemon) Addr() string { return d.ln.Addr().String() }

// URL returns the admin base URL.
func (d *Daemon) URL() string { return "http://" + d.Addr() }

// State returns the current lifecycle state.
func (d *Daemon) State() State { return State(d.state.Load()) }

// Engine exposes the daemon's engine — instance 0's in cluster mode
// (tests and embedders).
func (d *Daemon) Engine() *core.Engine {
	if d.cl != nil {
		return d.cl.Engine(0)
	}
	return d.plat.Engine()
}

// Platform exposes the daemon's execution platform (nil in cluster
// mode; use Cluster).
func (d *Daemon) Platform() *platform.Platform { return d.plat }

// Cluster exposes the engine fleet (nil when not clustered).
func (d *Daemon) Cluster() *cluster.Cluster { return d.cl }

// PlatformName names the execution platform, annotated with the live
// fleet size in cluster mode.
func (d *Daemon) PlatformName() string {
	if d.cl != nil {
		return fmt.Sprintf("bess[%d]", d.cl.Len())
	}
	return d.plat.Name()
}

// closePlatform releases whichever data plane the daemon owns.
func (d *Daemon) closePlatform() error {
	if d.cl != nil {
		return d.cl.Close()
	}
	return d.plat.Close()
}

// Hub exposes the daemon's telemetry hub.
func (d *Daemon) Hub() *telemetry.Hub { return d.hub }

// Start transitions Starting → Serving and opens the traffic pump.
func (d *Daemon) Start() error {
	d.adminMu.Lock()
	defer d.adminMu.Unlock()
	if State(d.state.Load()) != Starting {
		return fmt.Errorf("%w: Start from %s", ErrBadState, d.State())
	}
	d.state.Store(int32(Serving))
	if d.pump != nil {
		d.pump.start()
	}
	return nil
}

// Run starts the daemon and blocks until ctx is cancelled (typically
// by a signal), then shuts down gracefully: drain, final checkpoint,
// close. This is cmd/speedyboxd's main loop.
func (d *Daemon) Run(ctx context.Context) error {
	if err := d.Start(); err != nil {
		return err
	}
	<-ctx.Done()
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.Shutdown(sctx)
}

// Shutdown drains traffic, takes a final checkpoint (when
// CheckpointPath is configured), syncs and closes the WAL sink, stops
// the admin server and releases the platform. Idempotent.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.adminMu.Lock()
	defer d.adminMu.Unlock()
	if State(d.state.Load()) == Stopped {
		return nil
	}
	if d.pump != nil {
		d.pump.stop()
	}
	d.state.Store(int32(Draining))

	var firstErr error
	if d.cfg.CheckpointPath != "" {
		if _, _, err := d.checkpoint(d.cfg.CheckpointPath); err != nil {
			firstErr = err
		}
	}
	d.walW.Sync()
	if err := d.closeFiles(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := d.srv.Shutdown(ctx); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := d.closePlatform(); err != nil && firstErr == nil {
		firstErr = err
	}
	d.state.Store(int32(Stopped))
	return firstErr
}

// checkpoint snapshots the engine and encodes it once, writing the
// bytes to path when one is set. Callers hold adminMu.
func (d *Daemon) checkpoint(path string) (*wal.Checkpoint, []byte, error) {
	cp, err := d.plat.Engine().Checkpoint()
	if err != nil {
		return nil, nil, err
	}
	data := cp.Encode()
	if path != "" {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return nil, nil, fmt.Errorf("%w: %w", ErrCheckpointIO, err)
		}
	}
	return cp, data, nil
}

// restore decodes a checkpoint and loads it, with the journal's
// records past it, into the engine, which must be fresh.
func (d *Daemon) restore(cpData, walData []byte) (*wal.Checkpoint, error) {
	cp, err := wal.DecodeCheckpoint(cpData)
	if err != nil {
		return nil, err
	}
	return cp, d.plat.Engine().Restore(cp, walData)
}

// readFiles reads a checkpoint file and, when walPath is set, a
// journal file.
func readFiles(cpPath, walPath string) (cpData, walData []byte, err error) {
	cpData, err = os.ReadFile(cpPath)
	if err == nil && walPath != "" {
		walData, err = os.ReadFile(walPath)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrCheckpointIO, err)
	}
	return cpData, walData, nil
}

func (d *Daemon) closeFiles() error {
	if d.walF == nil {
		return nil
	}
	f := d.walF
	d.walF = nil
	if err := f.Close(); err != nil {
		return fmt.Errorf("%w: %w", ErrCheckpointIO, err)
	}
	return nil
}

// guard rejects admin mutations once shutdown has completed.
func (d *Daemon) guard() error {
	if State(d.state.Load()) == Stopped {
		return ErrStopped
	}
	return nil
}

// Codes returns the full registered error-code catalog — the payload
// behind GET /v1/errors.
func Codes() []errcode.Registration { return errcode.All() }
