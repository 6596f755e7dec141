package repro

import (
	"testing"

	"immortaldb"
)

// tiny returns options small enough for unit testing (cmd/benchpaper runs
// the real sizes). At this scale A1 and A3 run 320 single-record
// transactions over 10 objects, and each Figure 6 mix inserts 2% of its
// paper-size object count.
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
	rows, err := RunFig6(tiny(), []Fig6Mix{{500, 72}, {2000, 18}}, []int{0, 50, 100}, 1, immortaldb.IndexChain)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// A recent (0%) scan returns every inserted object, so the 500-insert mix
	// returns fewer records than the 2000-insert mix ("an as of query that
	// asks about the recent history will have better performance with lower
	// number of inserts, basically because the number of retrieved records is
	// smaller"). The oldest point is just after the first transaction: one
	// record.
	inserted := map[int]int{500: 10, 2000: 40}
	for _, r := range rows {
		want := -1
		switch r.PctHistory {
		case 0:
			want = inserted[r.Mix.Inserts]
		case 100:
			want = 1
		}
		if want >= 0 && r.Rows != want {
			t.Errorf("%s at %d%%: %d rows, want %d", Fig6Label(r.Mix), r.PctHistory, r.Rows, want)
		}
		if r.Rows == 0 {
			t.Fatalf("empty scan at %+v", r)
		}
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
	// Lazy keeps one PTT entry per transaction; eager keeps none.
	if rows[0].PTTEntries != 320 || rows[1].PTTEntries != 0 {
		t.Fatalf("PTT entries: lazy=%d (want 320) eager=%d (want 0)", rows[0].PTTEntries, rows[1].PTTEntries)
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
	// Four rows per arm, one every 80 transactions. With GC on, two
	// checkpoints empty the PTT; with GC off it keeps one entry per
	// transaction.
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for i, r := range rows {
		want := uint64(0)
		if !r.GC {
			want = uint64(r.Txns)
		}
		if r.GC != (i < 4) || r.Txns != 80*(i%4+1) || r.PTTEntries != want {
			t.Errorf("row %d = %+v, want GC=%v Txns=%d PTTEntries=%d", i, r, i < 4, 80*(i%4+1), want)
		}
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
