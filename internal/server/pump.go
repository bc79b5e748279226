package server

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/trace"
)

// PumpConfig controls the daemon's built-in traffic source: a
// deterministic synthesized trace replayed window after window through
// the multi-queue dispatcher. The pump stands in for a NIC in this
// modeled platform — it is what makes "drain" meaningful and what the
// e2e tests reconfigure under.
type PumpConfig struct {
	// Disable turns the pump off; the daemon then only moves packets a
	// test or embedder pushes through the platform itself.
	Disable bool
	// Flows is the per-window flow count (0 = 200).
	Flows int
	// Seed fixes the synthesized trace (0 = 1).
	Seed int64
	// Gap is an idle pause between windows; 0 replays back to back.
	Gap time.Duration
	// MaxWindows stops the pump after that many windows (0 = unbounded).
	MaxWindows int
}

func (c PumpConfig) withDefaults() PumpConfig {
	if c.Flows == 0 {
		c.Flows = 200
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// pump replays a fixed trace in windows through the multi-queue
// dispatcher over the daemon's platform or cluster. MultiQueue.Run
// returns only after every packet has drained, with a result that
// counts the window's completed packets even alongside an error.
// Between windows the pump observes a gate: pause() blocks until the
// current window has fully drained — every worker joined inside
// MultiQueue.Run — which is what drain waits for. The same trace replays
// every window (Packets materializes fresh buffers), so flow state
// reaches a deterministic steady rhythm: established flows ride the
// fast path until their FIN, then a SYN reuse re-records them.
type pump struct {
	sink *platform.MultiQueue
	tr   *trace.Trace
	cfg  PumpConfig

	mu      sync.Mutex
	cond    *sync.Cond
	pausing bool
	idle    bool // pump is parked between windows (gate or exit)
	stopped bool
	runErr  error

	windows atomic.Uint64
	packets atomic.Uint64
	drops   atomic.Uint64

	done chan struct{}
}

func newPump(sink *platform.MultiQueue, cfg PumpConfig) (*pump, error) {
	cfg = cfg.withDefaults()
	tr, err := trace.Generate(trace.Config{
		Seed:       cfg.Seed,
		Flows:      cfg.Flows,
		Interleave: true,
	})
	if err != nil {
		return nil, err
	}
	p := &pump{sink: sink, tr: tr, cfg: cfg, done: make(chan struct{})}
	p.cond = sync.NewCond(&p.mu)
	return p, nil
}

// start launches the replay loop.
func (p *pump) start() {
	go p.run()
}

func (p *pump) run() {
	defer close(p.done)
	for {
		p.mu.Lock()
		for p.pausing && !p.stopped {
			p.idle = true
			p.cond.Broadcast()
			p.cond.Wait()
		}
		if p.stopped || (p.cfg.MaxWindows > 0 && p.windows.Load() >= uint64(p.cfg.MaxWindows)) {
			p.idle = true
			p.cond.Broadcast()
			p.mu.Unlock()
			return
		}
		p.idle = false
		p.mu.Unlock()

		res, err := p.sink.Run(p.tr.Packets())
		p.packets.Add(uint64(res.Packets))
		p.drops.Add(uint64(res.Drops))
		p.windows.Add(1)
		if err != nil {
			p.mu.Lock()
			p.runErr = err
			p.stopped = true
			p.idle = true
			p.cond.Broadcast()
			p.mu.Unlock()
			return
		}
		if p.cfg.Gap > 0 {
			time.Sleep(p.cfg.Gap)
		}
	}
}

// pause gates the pump and blocks until the in-flight window (if any)
// has drained. After pause returns no packet is inside the platform
// until resume. Idempotent.
func (p *pump) pause() {
	p.mu.Lock()
	p.pausing = true
	for !p.idle {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// resume reopens the gate. Idempotent; a no-op once stopped.
func (p *pump) resume() {
	p.mu.Lock()
	p.pausing = false
	p.cond.Broadcast()
	p.mu.Unlock()
}

// stop terminates the loop and waits for it to park.
func (p *pump) stop() {
	p.mu.Lock()
	p.stopped = true
	p.cond.Broadcast()
	for !p.idle {
		p.cond.Wait()
	}
	p.mu.Unlock()
	<-p.done
}

// paused reports whether the gate is closed.
func (p *pump) paused() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pausing
}

// err returns the run loop's terminal error, if any.
func (p *pump) err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.runErr
}
