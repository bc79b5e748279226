package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runOne runs one workload in this process and prints its result as
// the last line of standard output.
func runOne(name string, seed int64, dur time.Duration, traced bool, outDir string) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	res, err := runWorkload(w, seed, dur, traced, outDir)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// resultSet is what a run of every workload writes: where it ran, and
// each workload's timed and traced result.
type resultSet struct {
	Env     environment `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Runs    []run       `json:"runs"`
}

type run struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	Result   result `json:"result"`
}

// environment says what the numbers were measured on.
type environment struct {
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func currentEnvironment() environment {
	env := environment{NProc: runtime.NumCPU(), Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// runAll runs every workload, each in an OS process of its own with
// the default GOGC and GOMAXPROCS, so that no workload's heap or
// scheduler state leaks into the next one's numbers.
func runAll(seed int64, dur time.Duration, traced bool, outDir string) (*resultSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := &resultSet{Env: currentEnvironment(), Seed: seed, Seconds: dur.Seconds()}
	modes := []bool{false}
	if traced {
		modes = append(modes, true)
	}
	for i := range workloads {
		for _, tr := range modes {
			cmd := exec.Command(self,
				"-workload", workloads[i].name,
				"-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(dur.Seconds(), 'g', -1, 64),
				"-trace", strconv.Itoa(btoi(tr)),
				"-outdir", outDir)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("workload %s: %w", workloads[i].name, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			r := run{Workload: workloads[i].name, Traced: tr}
			if err := json.Unmarshal(lines[len(lines)-1], &r.Result); err != nil {
				return nil, fmt.Errorf("workload %s: result line: %w", workloads[i].name, err)
			}
			fmt.Fprintf(os.Stderr, "%s ops %d failed %d fail_ratio %g\n", r.Workload,
				r.Result.Attempted, r.Result.Failed, float64(r.Result.Failed)/float64(r.Result.Attempted))
			set.Runs = append(set.Runs, r)
		}
	}
	return set, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (s *resultSet) write(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// timed returns the workload's timed result.
func (s *resultSet) timed(workload string) (result, bool) {
	for _, r := range s.Runs {
		if r.Workload == workload && !r.Traced {
			return r.Result, true
		}
	}
	return result{}, false
}

// verdict places b against a for one metric: the relative change in
// the metric's worse direction, and whether it stays within the bound.
func (m metric) verdict(a, b float64) (delta float64, word string) {
	delta = (b - a) / a
	worse := delta
	if m.Better == higher {
		worse = -delta
	}
	switch {
	case worse > m.Bound:
		return delta, "worse"
	case worse < -m.Bound:
		return delta, "better"
	}
	return delta, "ok"
}

var errWorse = errors.New("at least one metric is worse than its bound allows")

// compareSets prints, per workload and end-to-end metric, both values,
// the relative change, the bound and the verdict. Only a gated
// workload's metric can fail the comparison; any failed operation in b
// is worse on every workload, whatever the timings say.
func compareSets(a, b *resultSet) error {
	var bad bool
	fmt.Printf("%-8s %-12s %14s %14s %9s %6s  %s\n", "workload", "metric", "a", "b", "delta", "bound", "verdict")
	for i := range workloads {
		name := workloads[i].name
		ra, okA := a.timed(name)
		rb, okB := b.timed(name)
		if !okA || !okB {
			fmt.Printf("%-8s missing from one of the sets\n", name)
			bad = true
			continue
		}
		for _, m := range endToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			delta, word := m.verdict(va, vb)
			if !workloads[i].gated {
				word += " (ungated)"
			}
			bad = bad || word == "worse"
			fmt.Printf("%-8s %-12s %14.6g %14.6g %+8.2f%% %5.0f%%  %s\n", name, m.Name, va, vb, delta*100, m.Bound*100, word)
		}
		word := "ok"
		if rb.Failed > ra.Failed {
			word, bad = "worse", true
		}
		fmt.Printf("%-8s %-12s %14d %14d %9s %6s  %s\n", name, "failed", ra.Failed, rb.Failed, "", "+0", word)
	}
	if bad {
		return errWorse
	}
	return nil
}

func compareFiles(pathA, pathB string) error {
	a, err := readResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return err
	}
	return compareSets(a, b)
}

// selfCheck runs every workload twice and holds the second set's gated
// workloads to the bounds against the first: two sets of runs of one
// commit must agree, or the bounds mean nothing.
func selfCheck(seed int64, dur time.Duration, outDir string) error {
	var sets [2]*resultSet
	for i := range sets {
		var err error
		if sets[i], err = runAll(seed, dur, false, outDir); err != nil {
			return err
		}
		if err := sets[i].write(filepath.Join(outDir, fmt.Sprintf("selfcheck-%d.json", i+1))); err != nil {
			return err
		}
	}
	return compareSets(sets[0], sets[1])
}
