// Command bench is this repository's benchmark: six named workloads over the
// engine and its serving stack, each measured end to end with tracing off
// and, in a separate traced run, layer by layer from outside. BENCHMARK.json
// at the repository root describes it; README.md in this directory explains
// every workload and metric.
//
//	bench -workload commit-wire -seed 1 -seconds 12 -trace 0   one run, JSON result on the last line
//	bench -seed 1                                              every workload, measured then traced
//	bench -agree -seed 1                                       two sets of one seed and one of the next, compared against the bounds
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all of them, measured then traced)")
		seed    = flag.Int64("seed", 1, "seed of the generated operation streams")
		seconds = flag.Float64("seconds", 12, "length of the measured window")
		trace   = flag.Int("trace", 0, "with -workload: 0 measures end to end with tracing off, 1 runs the traced ladder and layer probes")
		dir     = flag.String("dir", os.TempDir(), "where databases are built; its filesystem serves the fsyncs")
		out     = flag.String("out", "out", "where results.json and trace-<workload>.json are written")
		agree   = flag.Bool("agree", false, "run every workload three times (seed, seed, seed+1) and compare against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{
		seed: *seed, window: time.Duration(*seconds * float64(time.Second)), warm: 2 * time.Second,
		setupReps: 3, dir: *dir, out: *out, sc: fullScale,
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fatal(err)
	}
	env := stampEnvironment(cfg.dir)

	switch {
	case *agree:
		ok, err := runAgree(cfg, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *name != "":
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("no workload %q", *name))
		}
		run := w.runMeasured
		if *trace == 1 {
			run = w.runTraced
		}
		res, err := run(cfg)
		if err != nil {
			fatal(err)
		}
		res.print(os.Stdout)
		if err := writeResults(cfg, env, []*result{res}); err != nil {
			fatal(err)
		}
		fmt.Println(res.contractLine())
		if !res.Correct {
			os.Exit(1)
		}
	default:
		var all []*result
		correct := true
		for _, w := range workloads {
			for _, run := range []func(runConfig) (*result, error){w.runMeasured, w.runTraced} {
				res, err := run(cfg)
				if err != nil {
					fatal(fmt.Errorf("%s: %w", w.name, err))
				}
				res.print(os.Stdout)
				all = append(all, res)
				correct = correct && res.Correct
			}
		}
		if err := writeResults(cfg, env, all); err != nil {
			fatal(err)
		}
		if !correct {
			fmt.Println("\nFAILED: at least one workload returned a wrong or failed operation")
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
