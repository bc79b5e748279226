package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"github.com/fastpathnfv/speedybox/internal/server"
)

// pollEvery is the /v1/status sampling period of the daemon workload.
const pollEvery = 100 * time.Millisecond

// status is the part of GET /v1/status the benchmark reads.
type status struct {
	Stats struct {
		Packets  uint64 `json:"packets"`
		FastPath uint64 `json:"fast_path"`
		SlowPath uint64 `json:"slow_path"`
		Dropped  uint64 `json:"dropped"`
	} `json:"stats"`
	WAL struct {
		Size int `json:"size"`
	} `json:"wal"`
	Workers []struct {
		Packets uint64 `json:"packets"`
	} `json:"workers"`
	Pump struct {
		Windows uint64 `json:"windows"`
		Packets uint64 `json:"packets"`
		Drops   uint64 `json:"drops"`
		Error   string `json:"error"`
	} `json:"pump"`
}

// daemon is a running in-process server.Daemon seen through its admin
// API only.
type daemon struct {
	d *server.Daemon
}

// heapWindows is the fixed amount of work after which the daemon's
// heap is read: ~1 M packets, ~3 s.
const heapWindows = 32

// startDaemon is the daemon workload's set-up: boot the shipped
// configuration and wait until the pump's first window — the one that
// records every flow — has drained. maxWindows, when not 0, stops the
// pump after that many windows.
func startDaemon(w *workload, seed int64, maxWindows int) (*daemon, error) {
	d, err := server.New(server.Config{
		Workers: workers,
		Pump:    server.PumpConfig{Flows: w.pass.Flows, Seed: seed, MaxWindows: maxWindows},
	})
	if err != nil {
		return nil, fmt.Errorf("boot daemon: %w", err)
	}
	dm := &daemon{d: d}
	if err := d.Start(); err != nil {
		dm.stop()
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	for {
		st, _, err := dm.status()
		if err != nil {
			dm.stop()
			return nil, err
		}
		if st.Pump.Windows > 0 || st.Pump.Error != "" {
			return dm, nil
		}
		time.Sleep(time.Millisecond)
	}
}

func (dm *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return dm.d.Shutdown(ctx)
}

// status fetches /v1/status and reports how long the request took.
func (dm *daemon) status() (status, time.Duration, error) {
	var st status
	start := time.Now()
	resp, err := http.Get(dm.d.URL() + "/v1/status")
	if err != nil {
		return st, 0, fmt.Errorf("daemon status: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, 0, fmt.Errorf("daemon status: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, 0, fmt.Errorf("daemon status: %w", err)
	}
	return st, time.Since(start), nil
}

// post issues an admin POST with an empty body.
func (dm *daemon) post(path string) error {
	resp, err := http.Post(dm.d.URL()+path, "application/json", nil)
	if err != nil {
		return fmt.Errorf("daemon %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("daemon %s: %s", path, resp.Status)
	}
	return nil
}

// observation is what watching the daemon for a while yields.
type observation struct {
	slices   []slice
	first    status
	last     status
	statusMs []float64
	elapsed  time.Duration
}

// observe samples /v1/status for the given time, cut into slices; one
// "pass" is one poll. The rate comes from stats.packets, which advances
// per vector; pump.packets counts the same packets but only steps once
// per ~30k-packet window, too coarse for a 100 ms sample. One sample is
// a poll interval's wall time over the packets the engine completed in
// it.
func (dm *daemon) observe(total time.Duration) (*observation, error) {
	ob := &observation{}
	prev, _, err := dm.status()
	if err != nil {
		return nil, err
	}
	ob.first = prev
	begin := time.Now()
	prevAt := begin
	ob.slices, err = measure(total, total/daemonSlices, func(s *slice) error {
		time.Sleep(pollEvery)
		st, took, err := dm.status()
		if err != nil {
			return err
		}
		now := time.Now()
		if n := int(st.Stats.Packets - prev.Stats.Packets); n > 0 {
			s.add(now.Sub(prevAt), n)
		}
		ob.statusMs = append(ob.statusMs, took.Seconds()*1e3)
		prev, prevAt = st, now
		return nil
	})
	if err != nil {
		return nil, err
	}
	ob.last, ob.elapsed = prev, time.Since(begin)
	return ob, nil
}

// settle closes the pump's gate so the counters stop moving, and
// returns the final status.
func (dm *daemon) settle() (status, error) {
	if err := dm.post("/v1/drain"); err != nil {
		return status{}, err
	}
	st, _, err := dm.status()
	return st, err
}

// verdict is the daemon's output check, made on settled counters: no
// packet dropped by chain or pump, no pump error, and every packet
// accounted to exactly one path. ops is the packets pumped since boot.
func (st status) verdict() tally {
	t := tally{ops: int(st.Pump.Packets)}
	if st.Pump.Error != "" {
		t.failed = t.ops
		return t
	}
	t.failed = int(st.Stats.Dropped + st.Pump.Drops)
	if paths := st.Stats.FastPath + st.Stats.SlowPath; paths != st.Stats.Packets {
		t.failed += abs(int(st.Stats.Packets) - int(paths))
	}
	if st.Pump.Packets != st.Stats.Packets {
		t.failed += abs(int(st.Stats.Packets) - int(st.Pump.Packets))
	}
	t.failed = min(t.failed, t.ops)
	return t
}

// runDaemon is the untraced run of the daemon workload.
func runDaemon(w *workload, seed int64, dur time.Duration) (readings, tally, error) {
	var (
		dm     *daemon
		setupS []float64
	)
	for moreSetups(setupS, dur) {
		if dm != nil {
			if err := dm.stop(); err != nil {
				return readings{}, tally{}, fmt.Errorf("stop daemon: %w", err)
			}
		}
		start := time.Now()
		var err error
		if dm, err = startDaemon(w, seed, 0); err != nil {
			return readings{}, tally{}, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	// Warm-up: the first windows after boot re-record every flow.
	time.Sleep(dur / 4)
	ob, err := dm.observe(dur)
	var final status
	if err == nil {
		final, err = dm.settle()
	}
	if stopErr := dm.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return readings{}, tally{}, err
	}
	out := fold(ob.slices).readings()
	out.set("setup_s", setupTime(setupS), len(setupS))
	t := final.verdict()

	heap, ht, err := daemonHeap(w, seed)
	if err != nil {
		return readings{}, tally{}, err
	}
	out.set("heap_mb", heap, 1)
	return out, tally{ops: t.ops + ht.ops, failed: t.failed + ht.failed}, nil
}

// daemonHeap is the daemon's heap_mb: the live heap of a fresh daemon
// whose pump has stopped after heapWindows windows. The timed daemon's
// heap at the end of its run would be a function of how fast it ran:
// the WAL log is never truncated, so a faster daemon holds a longer
// log, in a buffer that grows in steps of a quarter (37 or 43.5 MB was
// the whole spread of ten runs). Memory after a fixed amount of work
// repeats, and does not charge a speed-up as a leak.
func daemonHeap(w *workload, seed int64) (float64, tally, error) {
	dm, err := startDaemon(w, seed, heapWindows)
	if err != nil {
		return 0, tally{}, err
	}
	defer dm.stop()
	for {
		st, _, err := dm.status()
		if err != nil {
			return 0, tally{}, err
		}
		if st.Pump.Windows >= heapWindows || st.Pump.Error != "" {
			return heapMB(), st.verdict(), nil
		}
		time.Sleep(pollEvery)
	}
}
