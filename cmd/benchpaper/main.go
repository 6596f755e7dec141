// Command benchpaper prints the paper's evaluation (Section 5) and the
// design-choice ablations of DESIGN.md, each defined once in internal/repro:
//
//	fig5       — Figure 5: transaction overhead, plus the Section 5.1 summary (F5, T1)
//	fig6       — Figure 6: AS OF full-table scans against history depth (F6)
//	eager      — lazy vs eager timestamping (A1)
//	index      — history chain traversal vs TSB-tree index (A2)
//	gc         — PTT garbage collection on/off (A3)
//	threshold  — key-split utilization threshold sweep (A4)
//	snapshot   — snapshot vs serializable readers under a write stream (S1)
//	all        — everything, in the order above
//
// Usage:
//
//	benchpaper [-scale 1.0] [-pagesize 8192] [-seed 1] [-reps 3] [-index chain|tsb] experiment...
//
// -reps and -index apply to fig6 only. At -scale 1.0 the workloads are the
// paper's sizes (32,000 transactions for Figure 5, 36,000 for Figure 6).
package main

import (
	"flag"
	"fmt"
	"os"

	"immortaldb"
	"immortaldb/internal/repro"
)

var indexModes = map[string]immortaldb.IndexMode{"chain": immortaldb.IndexChain, "tsb": immortaldb.IndexTSB}

func main() {
	scale := flag.Float64("scale", 1.0, "transaction count multiplier (1.0 = the paper's sizes)")
	pageSize := flag.Int("pagesize", 8192, "page size in bytes")
	seed := flag.Int64("seed", 1, "workload random seed")
	reps := flag.Int("reps", 3, "fig6: scan repetitions per point (median reported)")
	idx := flag.String("index", "chain", "fig6: historical access path, chain (the paper's prototype) or tsb")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchpaper [flags] fig5|fig6|eager|index|gc|threshold|snapshot|all...")
		flag.PrintDefaults()
	}
	flag.Parse()
	if _, ok := indexModes[*idx]; !ok {
		fmt.Fprintln(os.Stderr, "benchpaper: -index must be chain or tsb")
		os.Exit(2)
	}

	o := repro.Options{Scale: *scale, PageSize: *pageSize, Seed: *seed}
	// The experiments in the order "all" runs them.
	experiments := []struct {
		name string
		run  func() error
	}{
		{"fig5", func() error { return fig5(o) }},
		{"fig6", func() error { return fig6(o, *reps, *idx) }},
		{"eager", func() error { return eager(o) }},
		{"index", func() error { return index(o) }},
		{"gc", func() error { return gc(o) }},
		{"threshold", func() error { return threshold(o) }},
		{"snapshot", func() error { return snapshot(o) }},
	}
	known := map[string]bool{"all": true}
	for _, e := range experiments {
		known[e.name] = true
	}
	want := map[string]bool{}
	for _, w := range flag.Args() {
		if !known[w] {
			fmt.Fprintf(os.Stderr, "benchpaper: unknown experiment %q\n", w)
			os.Exit(2)
		}
		want[w] = true
	}
	if len(want) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	prevFigure := false
	for _, e := range experiments {
		if !want["all"] && !want[e.name] {
			continue
		}
		if prevFigure {
			fmt.Println() // a figure's table has no trailing blank line; an ablation's has
		}
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchpaper: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		prevFigure = e.name == "fig5" || e.name == "fig6"
	}
}

func fig5(o repro.Options) error {
	res, err := repro.RunFig5(o)
	if err != nil {
		return err
	}
	fmt.Println("Figure 5 — Transaction overhead in Immortal DB")
	fmt.Println("(cumulative seconds; every transaction inserts/updates a single record)")
	fmt.Println()
	fmt.Printf("%12s %14s %14s %10s\n", "txns", "immortal(s)", "conventional(s)", "overhead")
	for _, r := range res.Rows {
		fmt.Printf("%12d %14.3f %14.3f %9.1f%%\n",
			r.Txns, r.ImmortalSec, r.ConventionalSec, r.OverheadPct)
	}
	fmt.Println()
	fmt.Println("Section 5.1 summary (highest-overhead case: one record per transaction)")
	fmt.Printf("  conventional per txn: %8.4f ms\n", res.ConvPerTxnMs)
	fmt.Printf("  immortal     per txn: %8.4f ms  (+%.4f ms)\n",
		res.ImmortalPerTxnMs, res.ImmortalPerTxnMs-res.ConvPerTxnMs)
	fmt.Printf("  overhead            : %8.1f %%   (paper: ~11%%)\n", res.OverheadPct)
	fmt.Println()
	fmt.Println("Lowest-overhead case (all records in ONE transaction; paper: indistinguishable)")
	fmt.Printf("  immortal    : %.3f s\n", res.BatchedImmortalSec)
	fmt.Printf("  conventional: %.3f s\n", res.BatchedConventionalSec)
	return nil
}

func fig6(o repro.Options, reps int, path string) error {
	rows, err := repro.RunFig6(o, repro.Fig6Mixes, nil, reps, indexModes[path])
	if err != nil {
		return err
	}
	fmt.Println("Figure 6 — The effect of insertions/updates on AS OF queries")
	fmt.Printf("(full-table-scan latency in ms; historical access path: %s)\n\n", path)

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
	return nil
}

func eager(o repro.Options) error {
	rows, err := repro.RunEagerVsLazy(o)
	if err != nil {
		return err
	}
	fmt.Println("A1 — Lazy vs eager timestamping (Section 2.2's rejected alternative)")
	fmt.Printf("%8s %10s %14s %12s %12s\n", "mode", "total(s)", "per-txn(us)", "log bytes", "PTT entries")
	for _, r := range rows {
		fmt.Printf("%8s %10.3f %14.2f %12d %12d\n",
			r.Mode, r.Seconds, r.PerTxnMicro, r.LogBytes, r.PTTEntries)
	}
	fmt.Println()
	return nil
}

func index(o repro.Options) error {
	rows, err := repro.RunChainVsTSB(o, nil)
	if err != nil {
		return err
	}
	fmt.Println("A2 — History page-chain traversal vs TSB-tree index (Section 5.2's prediction)")
	fmt.Printf("%6s %10s %12s %14s %12s\n", "mode", "% history", "scan (ms)", "point (us)", "chain hops")
	for _, r := range rows {
		fmt.Printf("%6s %9d%% %12.3f %14.2f %12d\n",
			r.Mode, r.PctHistory, r.ScanMillis, r.PointMicros, r.ChainHops)
	}
	fmt.Println()
	return nil
}

func gc(o repro.Options) error {
	rows, err := repro.RunPTTGC(o)
	if err != nil {
		return err
	}
	fmt.Println("A3 — Persistent timestamp table garbage collection")
	fmt.Printf("%6s %10s %12s\n", "GC", "txns", "PTT entries")
	for _, r := range rows {
		fmt.Printf("%6v %10d %12d\n", r.GC, r.Txns, r.PTTEntries)
	}
	fmt.Println()
	return nil
}

func threshold(o repro.Options) error {
	rows, err := repro.RunThreshold(o, nil)
	if err != nil {
		return err
	}
	fmt.Println("A4 — Key-split threshold T vs current-timeslice utilization (paper: ~T·ln2)")
	fmt.Printf("%6s %12s %12s %10s %10s\n", "T", "slice util", "T*ln2", "cur pages", "hist pages")
	for _, r := range rows {
		fmt.Printf("%6.2f %11.1f%% %11.1f%% %10d %10d\n",
			r.T, 100*r.SliceUtil, 100*r.Predicted, r.CurrentPages, r.HistPages)
	}
	fmt.Println()
	return nil
}

func snapshot(o repro.Options) error {
	rows, err := repro.RunSnapshotBench(o)
	if err != nil {
		return err
	}
	fmt.Println("S1 — Reader throughput under a concurrent writer stream")
	fmt.Printf("%14s %10s %12s\n", "reader", "reads", "reads/ms")
	for _, r := range rows {
		fmt.Printf("%14s %10d %12.1f\n", r.ReaderMode, r.ReadsDone, r.ReadsPerMs)
	}
	fmt.Println()
	return nil
}
