package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: github.com/fastpathnfv/speedybox
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFastPath-8      	 3411908	       368.7 ns/op	         2.712 pkts-Mpps	     160 B/op	       2 allocs/op
BenchmarkFastPathBatch-8 	 8298488	       146.6 ns/op	         6.821 pkts-Mpps	       0 B/op	       0 allocs/op
PASS
ok  	github.com/fastpathnfv/speedybox	3.023s
`

func TestParse(t *testing.T) {
	results, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("parsed %d results, want 2", len(results))
	}
	scalar := results[0]
	if scalar.Name != "BenchmarkFastPath-8" || scalar.Iters != 3411908 {
		t.Errorf("scalar = %+v", scalar)
	}
	if scalar.NsPerOp != 368.7 || scalar.BytesPerOp != 160 || scalar.AllocsPerOp != 2 {
		t.Errorf("scalar columns = %+v", scalar)
	}
	if scalar.Metrics["pkts-Mpps"] != 2.712 {
		t.Errorf("custom metric = %v", scalar.Metrics)
	}
}

func TestGatePasses(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-gate", "BenchmarkFastPathBatch", "-max-allocs", "1"}, strings.NewReader(sampleOutput), &sb)
	if err != nil {
		t.Fatalf("gate failed on passing input: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "BenchmarkFastPathBatch-8\t146.6 ns/op\t0.00 allocs/op") {
		t.Errorf("parsed results not echoed:\n%s", sb.String())
	}
}

func TestGateFailsOnAllocs(t *testing.T) {
	leaky := strings.ReplaceAll(sampleOutput, "0 allocs/op", "3 allocs/op")
	err := run([]string{"-max-allocs", "1"}, strings.NewReader(leaky), &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "allocates") {
		t.Fatalf("err = %v, want allocation-gate failure", err)
	}
}

func TestGateFailsOnMissingBenchmark(t *testing.T) {
	err := run([]string{"-gate", "BenchmarkNope"}, strings.NewReader(sampleOutput), &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "not in input") {
		t.Fatalf("err = %v, want missing-benchmark failure", err)
	}
}

func TestEmptyInputFails(t *testing.T) {
	err := run(nil, strings.NewReader("no benchmarks here\n"), &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "no benchmark lines") {
		t.Fatalf("err = %v, want empty-input failure", err)
	}
}
