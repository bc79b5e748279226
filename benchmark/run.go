package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"time"
)

// A run sets its workload up at least minSetups times, and again while
// the set-ups so far took less than a tenth of the run's length, up to
// maxSetups: cheap set-ups are the noisy ones. The last set-up is the one measured.
// setup_s is the best set-up, for the reason the timing metrics are
// a minimum: on 8 runs of ~230 hot set-ups each, the median moved
// 3.89-4.60 ms, the lower quartile 3.71-3.89, the minimum 3.38-3.49.
// warmPasses untimed passes follow the last set-up.
const (
	minSetups  = 3
	maxSetups  = 256
	setupShare = 10
	warmPasses = 8
)

// setupTime folds a run's set-up times into setup_s.
func setupTime(took []float64) float64 { return slices.Min(took) }

// moreSetups reports whether another set-up is due in a run of length
// dur.
func moreSetups(took []float64, dur time.Duration) bool {
	total := 0.0
	for _, s := range took {
		total += s
	}
	return len(took) < minSetups || (len(took) < maxSetups && total < dur.Seconds()/setupShare)
}

// readings are measured values by metric name, with the number of
// samples behind each; derived values and plain counts have none.
type readings struct {
	v map[string]float64
	n map[string]int
}

func newReadings() readings {
	return readings{v: make(map[string]float64), n: make(map[string]int)}
}

func (r readings) set(name string, v float64, n int) {
	r.v[name] = v
	if n > 0 {
		r.n[name] = n
	}
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a single-workload run ends with.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runWorkload runs one workload's timed run, or its traced run, which
// flushes its spans into outDir.
func runWorkload(w *workload, seed int64, dur time.Duration, traced bool, outDir string) (*result, error) {
	var (
		vals readings
		t    tally
		err  error
	)
	switch {
	case traced:
		vals, t, err = runTraced(w, seed, dur, outDir)
	case w.entry == entryDaemon:
		vals, t, err = runDaemon(w, seed, dur)
	default:
		vals, t, err = runTimed(w, seed, dur)
	}
	if err != nil {
		return nil, err
	}
	decl := endToEnd
	if traced {
		decl = perLayer
	}
	res := &result{Correct: t.failed == 0, Attempted: t.ops, Failed: t.failed, Metrics: make(map[string]value)}
	for _, m := range decl {
		v, ok := vals.v[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s was not measured", w.name, m.Name)
		}
		res.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
		fmt.Fprintf(os.Stderr, "%s %s %.6g %s (n=%s)\n", w.name, m.Name, v, m.Unit, samples(vals.n[m.Name]))
	}
	if len(vals.v) != len(decl) {
		return nil, fmt.Errorf("%s: %d metrics measured, %d declared", w.name, len(vals.v), len(decl))
	}
	return res, nil
}

// runTimed is the untraced run of a library workload: output check,
// set-ups, warm-up, then the timed passes.
func runTimed(w *workload, seed int64, dur time.Duration) (readings, tally, error) {
	var (
		checked tally
		expect  expectation
	)
	if w.entry == entryEngine {
		prime, pass, err := w.frames(seed)
		if err != nil {
			return readings{}, tally{}, err
		}
		if checked, expect, err = checkOutputs(w, prime, pass); err != nil {
			return readings{}, tally{}, err
		}
	}

	var (
		d      *driver
		setupS []float64
	)
	for moreSetups(setupS, dur) {
		if d != nil {
			d.t.close()
		}
		start := time.Now()
		var err error
		if d, err = setup(w, seed, workloadTarget(w, nil)); err != nil {
			return readings{}, tally{}, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer d.t.close()
	d.expect = expect
	d.tally = checked

	// heap_mb is read after fixed work, the set-up and warmPasses more
	// passes, not after the timed run: what a pass leaves behind (the
	// WAL log above all, which is never truncated) would make it a
	// function of how many passes the run held, and charge a speed-up
	// as a leak. Its forced collection also takes what the set-ups left
	// behind, so no cycle of theirs runs into the timed passes.
	for i := 0; i < warmPasses; i++ {
		if err := d.replay(d.pass, nil); err != nil {
			return readings{}, tally{}, err
		}
	}
	heap := heapMB()
	ss, err := measure(dur, dur, d.timedPass)
	if err != nil {
		return readings{}, tally{}, err
	}
	out := quietPass(ss, len(d.pass), d.unit).readings()
	out.set("heap_mb", heap, 1)
	out.set("setup_s", setupTime(setupS), len(setupS))
	return out, d.tally, nil
}

// samples renders a sample count; derived values and plain counts have
// none.
func samples(n int) string {
	if n == 0 {
		return "-"
	}
	return strconv.Itoa(n)
}
