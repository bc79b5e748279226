// Command benchmark is the repository's wall-clock benchmark: seven
// named workloads (four of them gated by BENCHMARK.json), each checked for chain-output equivalence before it
// is timed, end-to-end metrics with fixed regression bounds, and a
// traced run that attributes time to layers. See README.md.
//
//	bash benchmark/run.sh                          every workload, each in its own process
//	bash benchmark/run.sh -trace 1                 ... followed by its traced run
//	bash benchmark/run.sh -workload wide -seed 2   one workload, in this process
//	bash benchmark/run.sh -compare a.json b.json   two result files against the bounds
//	bash benchmark/run.sh -selfcheck               every workload twice, compared
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	var (
		name      = flag.String("workload", "", "run this workload in this process and end with its result as one JSON line (default: every workload, each in a process of its own)")
		seed      = flag.Int64("seed", 1, "workload seed; the program under test only ever sees the generated frames")
		seconds   = flag.Float64("seconds", defaultSeconds, "length of one timed run")
		traced    = flag.Int("trace", 0, "1 runs the traced per-layer run: instead of the timed run with -workload, after it otherwise")
		compare   = flag.Bool("compare", false, "compare the two result files given as arguments and exit 1 if any metric got worse")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and compare the two sets")
		outDir    = flag.String("outdir", "benchmark/out", "where results.json and the traced runs' spans go, relative to the current directory")
	)
	flag.Float64Var(seconds, "duration", defaultSeconds, "alias of -seconds")
	flag.Parse()
	dur := time.Duration(*seconds * float64(time.Second))

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1))
	case *selfcheck:
		err = selfCheck(*seed, dur, *outDir)
	case *name == "":
		var set *resultSet
		if set, err = runAll(*seed, dur, *traced != 0, *outDir); err == nil {
			err = set.write(filepath.Join(*outDir, "results.json"))
		}
	default:
		err = runOne(*name, *seed, dur, *traced != 0, *outDir)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
