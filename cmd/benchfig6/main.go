// Command benchfig6 regenerates Figure 6 of the paper ("The effect of
// insertions/updates on AS OF queries"): full-table-scan AS OF query latency
// against history depth, for the four insert/update mixes over 36,000
// transactions (0.5K*72, 1K*36, 2K*18, 4K*9).
//
// Usage:
//
//	benchfig6 [-scale 1.0] [-pagesize 8192] [-seed 1] [-reps 3] [-index chain|tsb]
package main

import (
	"flag"
	"fmt"
	"os"

	"immortaldb"
	"immortaldb/internal/repro"
)

func main() {
	scale := flag.Float64("scale", 1.0, "transaction count multiplier (1.0 = the paper's 36K)")
	pageSize := flag.Int("pagesize", 8192, "page size in bytes")
	seed := flag.Int64("seed", 1, "workload random seed")
	reps := flag.Int("reps", 3, "scan repetitions per point (average reported)")
	index := flag.String("index", "chain", "historical access path: chain (the paper's prototype) or tsb")
	flag.Parse()

	var mutate func(*immortaldb.Options)
	switch *index {
	case "chain":
	case "tsb":
		mutate = func(o *immortaldb.Options) { o.Ablation.HistoricalIndex = immortaldb.IndexTSB }
	default:
		fmt.Fprintln(os.Stderr, "benchfig6: -index must be chain or tsb")
		os.Exit(2)
	}

	rows, err := repro.RunFig6(
		repro.Options{Scale: *scale, PageSize: *pageSize, Seed: *seed},
		repro.Fig6Mixes, nil, *reps, mutate)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchfig6:", err)
		os.Exit(1)
	}

	fmt.Println("Figure 6 — The effect of insertions/updates on AS OF queries")
	fmt.Printf("(full-table-scan latency in ms; historical access path: %s)\n\n", *index)

	// Series per mix, like the paper's legend.
	fmt.Printf("%14s", "% of history")
	for _, m := range repro.Fig6Mixes {
		fmt.Printf(" %12s", repro.Fig6Label(m))
	}
	fmt.Println()
	byPct := map[int]map[string]repro.Fig6Row{}
	var pcts []int
	for _, r := range rows {
		if byPct[r.PctHistory] == nil {
			byPct[r.PctHistory] = map[string]repro.Fig6Row{}
			pcts = append(pcts, r.PctHistory)
		}
		byPct[r.PctHistory][repro.Fig6Label(r.Mix)] = r
	}
	for _, pct := range pcts {
		fmt.Printf("%13d%%", pct)
		for _, m := range repro.Fig6Mixes {
			fmt.Printf(" %12.3f", byPct[pct][repro.Fig6Label(m)].Millis)
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Printf("%14s", "rows returned")
	for _, m := range repro.Fig6Mixes {
		fmt.Printf(" %12d", byPct[pcts[0]][repro.Fig6Label(m)].Rows)
	}
	fmt.Println(" (at the most recent point)")
}
