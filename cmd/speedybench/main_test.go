package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenOutputs pins every experiment's text output at seed 1 to the
// bytes in testdata. A change that moves a number must regenerate the
// file it touches, with the built binary:
//
//	go run ./cmd/speedybench -exp fig4 -seed 1 > cmd/speedybench/testdata/fig4.golden
//
// The vector size changes no number: fig5, fig6, fig8 and table3 (the
// experiments with ONVM rows) at -batch 32 are held to their batch-1
// files.
func TestGoldenOutputs(t *testing.T) {
	type golden struct {
		file string
		args []string
	}
	cases := map[string]golden{
		"fig9a-cdf":      {"fig9a-cdf", []string{"-exp", "fig9a", "-seed", "1", "-cdf"}},
		"oracle":         {"oracle", []string{"-exp", "oracle", "-oracle-schedules", "20"}},
		"oracle-batch32": {"oracle-batch32", []string{"-exp", "oracle", "-oracle-schedules", "20", "-batch", "32"}},
		"oracle-topo":    {"oracle-topo", []string{"-exp", "oracle", "-oracle-schedules", "20", "-oracle-topo"}},
		"oracle-cluster": {"oracle-cluster", []string{"-exp", "oracle", "-oracle-schedules", "20", "-oracle-cluster"}},
	}
	for _, exp := range []string{"fig4", "table3", "fig5", "fig6", "fig7", "fig8", "fig9a", "fig9b",
		"equiv", "vpnx", "crossover", "mq", "reconfig", "restart"} {
		cases[exp] = golden{exp, []string{"-exp", exp, "-seed", "1"}}
	}
	for _, exp := range []string{"fig5", "fig6", "fig8", "table3"} {
		cases[exp+"-batch32"] = golden{exp, []string{"-exp", exp, "-seed", "1", "-batch", "32"}}
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.file+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(c.args, &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("speedybench %s differs from testdata/%s.golden:\n--- got\n%s--- want\n%s",
					strings.Join(c.args, " "), c.file, got.Bytes(), want)
			}
		})
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "table3", "-flows", "20"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table III") || !strings.Contains(out, "BESS w/ SBox") {
		t.Errorf("output missing expected rows:\n%s", out)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig99"}, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig6", "-flows", "20", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]struct {
		Rows []struct {
			Platform     string
			OriginalWork float64
			SBoxWork     float64
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	fig6, ok := parsed["fig6"]
	if !ok || len(fig6.Rows) != 2 {
		t.Fatalf("parsed = %+v", parsed)
	}
	for _, row := range fig6.Rows {
		if row.SBoxWork >= row.OriginalWork {
			t.Errorf("%s: SBox work %f >= original %f in JSON output", row.Platform, row.SBoxWork, row.OriginalWork)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &buf); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunCDFOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig9b", "-flows", "15", "-cdf"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "CDF series") || !strings.Contains(out, "# BESS") {
		t.Errorf("cdf output malformed:\n%.200s", out)
	}
	// A non-fig9 experiment with -cdf falls back to the normal table.
	buf.Reset()
	if err := run([]string{"-exp", "table3", "-flows", "15", "-cdf"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table III") {
		t.Error("fallback table missing")
	}
}

// TestRunOracleRefusesTopoCluster: the two oracle modes do not compose,
// and asking for both is an error, not a silent topology-only run.
func TestRunOracleRefusesTopoCluster(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-exp", "oracle", "-oracle-schedules", "1", "-oracle-topo", "-oracle-cluster"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "do not compose") {
		t.Errorf("-oracle-topo -oracle-cluster: err = %v, output:\n%s", err, buf.String())
	}
}
