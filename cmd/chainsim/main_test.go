package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	speedybox "github.com/fastpathnfv/speedybox"
)

// buildChain builds -chain names as run does: through their chainspec
// entries and Spec.Build.
func buildChain(names []string, snortRules string) ([]speedybox.NF, error) {
	spec, err := chainOf(names, snortRules)
	if err != nil {
		return nil, err
	}
	return spec.Build()
}

func TestBuildChainAllNames(t *testing.T) {
	names := []string{
		"nat", "maglev", "monitor", "ipfilter", "ipfilter-deny",
		"snort", "vpn-encap", "vpn-decap", "dos", "gateway", "ratelimiter", "synthetic",
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			chain, err := buildChain([]string{name}, "")
			if err != nil {
				t.Fatal(err)
			}
			if len(chain) != 1 || chain[0].Name() == "" {
				t.Errorf("chain = %v", chain)
			}
		})
	}
}

func TestBuildChainMultipleWithSpaces(t *testing.T) {
	chain, err := buildChain([]string{" nat", "monitor ", "ipfilter"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 3 {
		t.Fatalf("len = %d", len(chain))
	}
	// Instance names must be unique for the engine.
	seen := map[string]bool{}
	for _, nf := range chain {
		if seen[nf.Name()] {
			t.Errorf("duplicate NF name %q", nf.Name())
		}
		seen[nf.Name()] = true
	}
}

func TestBuildChainSameNFTwice(t *testing.T) {
	chain, err := buildChain([]string{"ipfilter", "ipfilter"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if chain[0].Name() == chain[1].Name() {
		t.Error("duplicate instance names for repeated NF")
	}
}

func TestBuildChainErrors(t *testing.T) {
	if _, err := buildChain([]string{"teleporter"}, ""); err == nil {
		t.Error("unknown NF accepted")
	}
	if _, err := buildChain(nil, ""); err == nil {
		t.Error("empty chain accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	if err := run([]string{"-chain", "monitor,ipfilter", "-flows", "10"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleVariant(t *testing.T) {
	if err := run([]string{"-chain", "monitor", "-flows", "5", "-compare=false", "-platform", "onvm"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsNegativeSizes(t *testing.T) {
	for _, args := range [][]string{
		{"-chain", "monitor", "-flows", "-5"},
		{"-chain", "monitor", "-flows", "5", "-batch", "-1"},
		{"-topo", filepath.Join("..", "..", "examples", "multitenant", "topo.json"), "-flows", "-5"},
	} {
		if err := run(args); err == nil {
			t.Errorf("chainsim %v accepted", args)
		}
	}
}

func TestRunUnknownPlatform(t *testing.T) {
	if err := run([]string{"-platform", "vector-packet-processor"}); err == nil {
		t.Error("unknown platform accepted")
	}
}

func TestRunMissingPcap(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope.pcap")
	if err := run([]string{"-pcap", missing}); err == nil {
		t.Error("missing pcap accepted")
	}
}

func TestRunWithSnortRulesFile(t *testing.T) {
	if err := run([]string{
		"-chain", "snort", "-flows", "10",
		"-snort-rules", filepath.Join("testdata", "sample.rules"),
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithBadSnortRulesFile(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.rules")
	if err := os.WriteFile(bad, []byte("not a rule at all (x)"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-chain", "snort", "-snort-rules", bad}); err == nil {
		t.Error("bad rules file accepted")
	}
	if err := run([]string{"-chain", "snort", "-snort-rules", filepath.Join(t.TempDir(), "missing.rules")}); err == nil {
		t.Error("missing rules file accepted")
	}
}

func TestRunWithConfigFile(t *testing.T) {
	if err := run([]string{"-config", filepath.Join("testdata", "chain.json"), "-flows", "10"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithBadConfigFile(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", bad}); err == nil {
		t.Error("bad config accepted")
	}
	if err := run([]string{"-config", filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Error("missing config accepted")
	}
}

func TestRunWithFaultInjection(t *testing.T) {
	if err := run([]string{
		"-chain", "monitor,ipfilter", "-flows", "30",
		"-fault-rate", "0.1", "-fault-seed", "7",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFaultInjectionSingleVariant(t *testing.T) {
	if err := run([]string{
		"-chain", "nat,monitor", "-flows", "20", "-compare=false",
		"-fault-rate", "0.25",
	}); err != nil {
		t.Fatal(err)
	}
}

// TestOutputGolden pins chainsim's stdout byte for byte: the trace,
// the chain and the cycle model are deterministic, so a refactor that
// changes a printed number or line changed behaviour. Topology runs
// at -workers > 1 interleave their chains' shared NFs in scheduler
// order and are not pinned. A deliberate change regenerates the file
// it moves from this directory, with the binary:
//
//	go run . -chain nat,maglev,monitor,ipfilter -flows 50 > testdata/chain1.golden
func TestOutputGolden(t *testing.T) {
	cases := map[string]string{
		"chain1":        "-chain nat,maglev,monitor,ipfilter -flows 50",
		"onvm-batch32":  "-chain ipfilter,snort,monitor -platform onvm -flows 50 -batch 32",
		"faults":        "-chain nat,monitor,ipfilter -flows 200 -fault-rate 0.1 -fault-seed 7",
		"config":        "-config testdata/chain.json -flows 20",
		"snort-rules":   "-chain snort,monitor -snort-rules testdata/sample.rules -dump-rules -flows 10",
		"every-nf":      "-chain vpn-encap,monitor,vpn-decap,dos,gateway,ratelimiter,synthetic,ipfilter-deny -flows 30 -workers 2 -batch 8",
		"cluster":       "-chain nat,monitor,ipfilter -flows 200 -instances 4 -workers 4",
		"topo-synflood": "-topo ../../examples/multitenant/topo.json -synflood 400 -fault-rate 0.01 -fault-seed 7 -workers 1",
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := captureStdout(func() error { return run(strings.Fields(args)) })
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("chainsim %s differs from testdata/%s.golden:\n--- got\n%s--- want\n%s", args, name, got, want)
			}
		})
	}
}

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns what it printed.
func captureStdout(fn func() error) ([]byte, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		out, _ := io.ReadAll(r)
		done <- out
	}()
	runErr := fn()
	os.Stdout = saved
	_ = w.Close()
	out := <-done
	_ = r.Close()
	return out, runErr
}
