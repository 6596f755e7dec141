package repro

import (
	"testing"
)

// tiny returns options small enough for unit testing (the real sizes run in
// cmd/benchfig5, cmd/benchfig6 and the root benchmarks).
func tiny() Options { return Options{Scale: 0.02, PageSize: 2048, Seed: 1} }

func TestRunFig5Shape(t *testing.T) {
	res, err := RunFig5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 16 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	last := res.Rows[len(res.Rows)-1]
	if last.Txns <= res.Rows[0].Txns {
		t.Fatal("x axis not increasing")
	}
	if last.ImmortalSec <= 0 || last.ConventionalSec <= 0 {
		t.Fatalf("times missing: %+v", last)
	}
	// Cumulative time must be non-decreasing.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].ImmortalSec < res.Rows[i-1].ImmortalSec {
			t.Fatal("cumulative immortal time decreased")
		}
	}
	if res.BatchedImmortalSec <= 0 {
		t.Fatal("batched case missing")
	}
}

func TestRunFig6Shape(t *testing.T) {
	rows, err := RunFig6(tiny(), []Fig6Mix{{500, 72}, {2000, 18}}, []int{0, 50, 100}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// A recent (0%) scan over the 500-insert mix returns fewer records than
	// over the 2000-insert mix ("an as of query that asks about the recent
	// history will have better performance with lower number of inserts,
	// basically because the number of retrieved records is smaller").
	var small, large int
	for _, r := range rows {
		if r.PctHistory == 0 {
			if r.Mix.Inserts == 500 {
				small = r.Rows
			} else if r.Mix.Inserts == 2000 {
				large = r.Rows
			}
		}
		if r.Rows == 0 {
			t.Fatalf("empty scan at %+v", r)
		}
	}
	if small >= large {
		t.Fatalf("row counts: %d (0.5K) vs %d (2K)", small, large)
	}
	if Fig6Label(Fig6Mix{500, 72}) != "0.5K*72" || Fig6Label(Fig6Mix{2000, 18}) != "2K*18" {
		t.Fatal("labels wrong")
	}
}

func TestRunEagerVsLazy(t *testing.T) {
	rows, err := RunEagerVsLazy(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Mode != "lazy" || rows[1].Mode != "eager" {
		t.Fatalf("rows = %+v", rows)
	}
	// Eager logs every stamp: strictly more log bytes than lazy.
	if rows[1].LogBytes <= rows[0].LogBytes {
		t.Fatalf("eager log (%d) not larger than lazy (%d)", rows[1].LogBytes, rows[0].LogBytes)
	}
	// Lazy populates the PTT; eager does not.
	if rows[0].PTTEntries == 0 || rows[1].PTTEntries != 0 {
		t.Fatalf("PTT entries: lazy=%d eager=%d", rows[0].PTTEntries, rows[1].PTTEntries)
	}
}

func TestRunChainVsTSB(t *testing.T) {
	rows, err := RunChainVsTSB(tiny(), []int{0, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var chainDeepHops, tsbDeepHops uint64
	for _, r := range rows {
		if r.PctHistory == 100 {
			if r.Mode == "chain" {
				chainDeepHops = r.ChainHops
			} else {
				tsbDeepHops = r.ChainHops
			}
		}
	}
	if chainDeepHops == 0 {
		t.Fatal("chain mode deep query did not walk history chains")
	}
	if tsbDeepHops != 0 {
		t.Fatalf("TSB mode walked %d chain pages", tsbDeepHops)
	}
}

func TestRunPTTGC(t *testing.T) {
	rows, err := RunPTTGC(tiny())
	if err != nil {
		t.Fatal(err)
	}
	var gcFinal, noGCFinal uint64
	var noGCTxns int
	for _, r := range rows {
		if r.GC {
			gcFinal = r.PTTEntries
		} else {
			noGCFinal = r.PTTEntries
			noGCTxns = r.Txns
		}
	}
	if noGCFinal < uint64(noGCTxns) {
		t.Fatalf("GC-off PTT entries = %d, want >= %d (one per txn)", noGCFinal, noGCTxns)
	}
	if gcFinal*4 > noGCFinal {
		t.Fatalf("GC ineffective: %d vs %d entries", gcFinal, noGCFinal)
	}
}

func TestRunThreshold(t *testing.T) {
	rows, err := RunThreshold(tiny(), []float64{0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SliceUtil <= 0 || r.SliceUtil > 1 {
			t.Fatalf("utilization out of range: %+v", r)
		}
		if r.CurrentPages == 0 || r.HistPages == 0 {
			t.Fatalf("no splits happened: %+v", r)
		}
	}
}

func TestRunSnapshotBench(t *testing.T) {
	rows, err := RunSnapshotBench(Options{Scale: 0.05, PageSize: 2048, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ReadsDone == 0 {
			t.Fatalf("reader starved: %+v", r)
		}
	}
}
