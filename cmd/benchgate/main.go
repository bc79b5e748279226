// Command benchgate parses `go test -bench` output and enforces an
// allocation gate on one benchmark, so CI fails when a change regresses
// a zero-alloc property. Timing is not its business: wall-clock
// regressions are judged by the repository benchmark (benchmark/), on
// paired runs.
//
// Usage:
//
//	go test -bench 'FastPath' -benchmem . | benchgate \
//	    -gate BenchmarkFastPathBatch -max-allocs 1
//
// The named benchmark's allocs/op must not exceed the bound (the batch
// benchmarks count b.N in packets, so allocs/op reads as allocations per
// packet).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name string
	// Iters is b.N; the batch benchmarks advance it per packet.
	Iters int64
	// NsPerOp, BytesPerOp and AllocsPerOp mirror the standard
	// -benchmem columns; custom b.ReportMetric units land in Metrics.
	NsPerOp     float64
	BytesPerOp  float64
	AllocsPerOp float64
	Metrics     map[string]float64
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	inPath := fs.String("in", "-", "bench output to parse (- = stdin)")
	gate := fs.String("gate", "BenchmarkFastPathBatch", "benchmark whose allocs/op is gated")
	maxAllocs := fs.Float64("max-allocs", 1, "fail if the gated benchmark exceeds this many allocs/op")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *inPath != "-" {
		f, err := os.Open(*inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	results, err := parse(in)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	for _, r := range results {
		fmt.Fprintf(out, "%s\t%.1f ns/op\t%.2f allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
	}

	gated := find(results, *gate)
	if gated == nil {
		return fmt.Errorf("gated benchmark %s not in input", *gate)
	}
	if gated.AllocsPerOp > *maxAllocs {
		return fmt.Errorf("%s allocates %.2f/op, gate is %.2f", *gate, gated.AllocsPerOp, *maxAllocs)
	}
	return nil
}

// find returns the result whose name matches base (ignoring the -N
// GOMAXPROCS suffix `go test` appends), or nil.
func find(results []Result, name string) *Result {
	for i := range results {
		if results[i].Name == name {
			return &results[i]
		}
		if base, _, ok := strings.Cut(results[i].Name, "-"); ok && base == name {
			return &results[i]
		}
	}
	return nil
}

// parse extracts benchmark lines of the standard form
//
//	BenchmarkName-8   1000  123.4 ns/op  5 B/op  2 allocs/op  6.7 custom-unit
//
// from mixed `go test` output.
func parse(in io.Reader) ([]Result, error) {
	var results []Result
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "Benchmark...: some message"
		}
		r := Result{Name: fields[0], Iters: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q", r.Name, fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = val
			case "B/op":
				r.BytesPerOp = val
			case "allocs/op":
				r.AllocsPerOp = val
			default:
				if r.Metrics == nil {
					r.Metrics = make(map[string]float64)
				}
				r.Metrics[unit] = val
			}
		}
		results = append(results, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
