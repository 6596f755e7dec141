package main

import (
	"fmt"
	"io"
)

// worseBy is how much worse got is than base, as a share of base, in the
// metric's own direction; negative when got is better.
func worseBy(d metricDecl, base, got float64) float64 {
	if base == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (base - got) / base
	}
	return (got - base) / base
}

// runAgree measures every workload three times with the same code — the
// seed, the seed again, and the next seed, which no tuning has looked at —
// and prints one row for each (workload, end-to-end metric) and later set:
// ok when it is no worse than the first set by more than the metric's
// bound, "outside bound" otherwise. A benchmark that cannot agree with
// itself cannot detect a regression of that size.
func runAgree(cfg runConfig, out io.Writer) (bool, error) {
	seeds := []int64{cfg.seed, cfg.seed, cfg.seed + 1}
	sets := make([]map[string]*result, len(seeds))
	for i, seed := range seeds {
		sets[i] = map[string]*result{}
		c := cfg
		c.seed = seed
		for _, w := range workloads {
			res, err := w.runMeasured(c)
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			fmt.Fprintf(out, "set %d seed %d %-16s", i+1, seed, w.name)
			for _, d := range endToEnd {
				fmt.Fprintf(out, "  %s %.4f", d.Name, res.Metrics[d.Name].Value)
			}
			fmt.Fprintf(out, "  failed %d/%d\n", res.Failed, res.Attempted)
			sets[i][w.name] = res
		}
	}
	ok := true
	fmt.Fprintf(out, "\n%-16s %-10s %4s %14s %14s %9s %7s  %s\n", "workload", "metric", "set", "first", "this", "worse_by", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			base := sets[0][w.name].Metrics[d.Name].Value
			for i := 1; i < len(sets); i++ {
				got := sets[i][w.name].Metrics[d.Name].Value
				by := worseBy(d, base, got)
				verdict := "ok"
				if by > d.Bound {
					verdict, ok = "outside bound", false
				}
				fmt.Fprintf(out, "%-16s %-10s %4d %14.4f %14.4f %8.2f%% %6.0f%%  %s\n", w.name, d.Name, i+1, base, got, 100*by, 100*d.Bound, verdict)
			}
		}
		for i := range sets {
			if r := sets[i][w.name]; !r.Correct {
				ok = false
				fmt.Fprintf(out, "%-16s set %d incorrect: %v\n", w.name, i+1, r.Problems)
			}
		}
	}
	return ok, nil
}
