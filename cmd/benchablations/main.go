// Command benchablations runs the design-choice ablations of DESIGN.md:
//
//	eager      — lazy vs eager timestamping (A1)
//	index      — history chain traversal vs TSB-tree index (A2)
//	gc         — PTT garbage collection on/off (A3)
//	threshold  — key-split utilization threshold sweep (A4)
//	snapshot   — snapshot vs serializable readers under a write stream (S1)
//	all        — everything
//
// Usage:
//
//	benchablations [-scale 1.0] [-seed 1] [experiment...]
package main

import (
	"flag"
	"fmt"
	"os"

	"immortaldb/internal/repro"
)

func main() {
	scale := flag.Float64("scale", 1.0, "workload size multiplier")
	pageSize := flag.Int("pagesize", 8192, "page size in bytes")
	seed := flag.Int64("seed", 1, "workload random seed")
	flag.Parse()

	o := repro.Options{Scale: *scale, PageSize: *pageSize, Seed: *seed}
	which := flag.Args()
	if len(which) == 0 {
		which = []string{"all"}
	}
	run := map[string]bool{}
	for _, w := range which {
		run[w] = true
	}
	all := run["all"]

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchablations:", err)
		os.Exit(1)
	}

	if all || run["eager"] {
		rows, err := repro.RunEagerVsLazy(o)
		if err != nil {
			fail(err)
		}
		fmt.Println("A1 — Lazy vs eager timestamping (Section 2.2's rejected alternative)")
		fmt.Printf("%8s %10s %14s %12s %12s\n", "mode", "total(s)", "per-txn(us)", "log bytes", "PTT entries")
		for _, r := range rows {
			fmt.Printf("%8s %10.3f %14.2f %12d %12d\n",
				r.Mode, r.Seconds, r.PerTxnMicro, r.LogBytes, r.PTTEntries)
		}
		fmt.Println()
	}

	if all || run["index"] {
		rows, err := repro.RunChainVsTSB(o, nil)
		if err != nil {
			fail(err)
		}
		fmt.Println("A2 — History page-chain traversal vs TSB-tree index (Section 5.2's prediction)")
		fmt.Printf("%6s %10s %12s %14s %12s\n", "mode", "% history", "scan (ms)", "point (us)", "chain hops")
		for _, r := range rows {
			fmt.Printf("%6s %9d%% %12.3f %14.2f %12d\n",
				r.Mode, r.PctHistory, r.ScanMillis, r.PointMicros, r.ChainHops)
		}
		fmt.Println()
	}

	if all || run["gc"] {
		rows, err := repro.RunPTTGC(o)
		if err != nil {
			fail(err)
		}
		fmt.Println("A3 — Persistent timestamp table garbage collection")
		fmt.Printf("%6s %10s %12s\n", "GC", "txns", "PTT entries")
		for _, r := range rows {
			fmt.Printf("%6v %10d %12d\n", r.GC, r.Txns, r.PTTEntries)
		}
		fmt.Println()
	}

	if all || run["threshold"] {
		rows, err := repro.RunThreshold(o, nil)
		if err != nil {
			fail(err)
		}
		fmt.Println("A4 — Key-split threshold T vs current-timeslice utilization (paper: ~T·ln2)")
		fmt.Printf("%6s %12s %12s %10s %10s\n", "T", "slice util", "T*ln2", "cur pages", "hist pages")
		for _, r := range rows {
			fmt.Printf("%6.2f %11.1f%% %11.1f%% %10d %10d\n",
				r.T, 100*r.SliceUtil, 100*r.Predicted, r.CurrentPages, r.HistPages)
		}
		fmt.Println()
	}

	if all || run["snapshot"] {
		rows, err := repro.RunSnapshotBench(o)
		if err != nil {
			fail(err)
		}
		fmt.Println("S1 — Reader throughput under a concurrent writer stream")
		fmt.Printf("%14s %10s %12s\n", "reader", "reads", "reads/ms")
		for _, r := range rows {
			fmt.Printf("%14s %10d %12.1f\n", r.ReaderMode, r.ReadsDone, r.ReadsPerMs)
		}
		fmt.Println()
	}
}
