package immortaldb

// End-to-end tests for tiered history storage: versions migrated into
// compacted cold runs must stay exactly as readable as they were in the hot
// chains — AS OF point reads, scans and History() at every commit timestamp,
// across close/reopen, with the TieredHistory option later disabled, and
// under retention vacuuming.

import (
	"bufio"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"immortaldb/internal/itime"
	"immortaldb/internal/obs"
	"immortaldb/internal/storage/vfs"
	"immortaldb/internal/workload"
)

// tieredOpts force frequent time splits (small pages) and deterministic
// migration (no background compactor: tests call CompactHistory directly).
func tieredOpts(extra func(*Options)) func(*Options) {
	return func(o *Options) {
		o.TieredHistory = true
		o.PageSize = 1024
		o.CacheFrames = 32
		if extra != nil {
			extra(o)
		}
	}
}

// histModel replays a deterministic workload and records the exact expected
// state at every commit timestamp.
type histModel struct {
	states []map[string]string // state after commit i
	stamps []Timestamp         // commit timestamp i
	// versions[key] lists every committed version of key in commit order,
	// value "" meaning deleted.
	versions map[string][]string
}

func runTieredWorkload(t *testing.T, db *DB, tbl *Table, compactEvery int) *histModel {
	t.Helper()
	m := &histModel{versions: map[string][]string{}}
	cur := map[string]string{}
	keys := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	for i := 0; i < 48; i++ {
		key := keys[i%len(keys)]
		if i%11 == 7 {
			// Delete every so often; the key is re-inserted next round.
			ts := del(t, db, tbl, key)
			delete(cur, key)
			m.versions[key] = append(m.versions[key], "")
			m.record(cur, ts)
		} else {
			val := fmt.Sprintf("%s-v%03d-%s", key, i, "padpadpadpadpadpadpadpadpadpad")
			ts := set(t, db, tbl, key, val)
			cur[key] = val
			m.versions[key] = append(m.versions[key], val)
			m.record(cur, ts)
		}
		if compactEvery > 0 && i%compactEvery == compactEvery-1 {
			// Flush (and thereby stamp) everything so history pages are
			// migratable, then run one cold-tier pass.
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("checkpoint before compact: %v", err)
			}
			if err := db.CompactHistory(); err != nil {
				t.Fatalf("CompactHistory at commit %d: %v", i, err)
			}
		}
	}
	return m
}

func (m *histModel) record(cur map[string]string, ts Timestamp) {
	snap := make(map[string]string, len(cur))
	for k, v := range cur {
		snap[k] = v
	}
	m.states = append(m.states, snap)
	m.stamps = append(m.stamps, ts)
}

// verifyModel checks AS OF state at every recorded commit, point reads per
// key, and History completeness, against the model.
func verifyModel(t *testing.T, db *DB, tbl *Table, m *histModel, label string) {
	t.Helper()
	for i, ts := range m.stamps {
		wantState(t, db, tbl, ts, fmt.Sprintf("%s commit %d", label, i), m.states[i])
		tx, err := db.BeginAsOfTS(ts)
		if err != nil {
			t.Fatalf("%s: BeginAsOfTS(%v): %v", label, ts, err)
		}
		for key, want := range m.states[i] {
			if v, ok := get(t, tx, tbl, key); !ok || v != want {
				t.Fatalf("%s commit %d: %s = %q, %v; want %q", label, i, key, v, ok, want)
			}
		}
		tx.Commit()
	}
	// Before the first commit the table must read empty.
	first := m.stamps[0]
	if first.Wall > 0 {
		wantState(t, db, tbl, Timestamp{Wall: first.Wall - 1}, label+" pre-history", nil)
	}
	// History must list every committed version, newest first, no
	// duplicates — whether a version lives in a chain or a cold run.
	for key, vals := range m.versions {
		hist, err := db.History(tbl, []byte(key))
		if err != nil {
			t.Fatalf("%s: History(%s): %v", label, key, err)
		}
		if len(hist) != len(vals) {
			t.Fatalf("%s: History(%s) = %d versions, want %d", label, key, len(hist), len(vals))
		}
		for j, h := range hist {
			want := vals[len(vals)-1-j] // hist is newest first
			if want == "" {
				if !h.Deleted {
					t.Fatalf("%s: History(%s)[%d] not a delete", label, key, j)
				}
			} else if h.Deleted || string(h.Value) != want {
				t.Fatalf("%s: History(%s)[%d] = %q (del=%v), want %q", label, key, j, h.Value, h.Deleted, want)
			}
			if j > 0 && !h.TS.Less(hist[j-1].TS) {
				t.Fatalf("%s: History(%s) not newest-first at %d", label, key, j)
			}
		}
	}
}

func TestTieredHistoryAsOfBoundaries(t *testing.T) {
	db, dir := openTestDB(t, tieredOpts(nil))
	tbl, err := db.CreateTable("objects", TableOptions{Immortal: true})
	if err != nil {
		t.Fatal(err)
	}
	m := runTieredWorkload(t, db, tbl, 8)

	st := db.Stats()
	if st.PagesMigrated == 0 || st.HistRuns == 0 {
		t.Fatalf("no cold migration happened (migrated=%d runs=%d): test would not cover the cold path",
			st.PagesMigrated, st.HistRuns)
	}
	verifyModel(t, db, tbl, m, "live")

	// Recovery must rebuild the identical picture: manifest reload, run
	// files, chain cuts.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, testOpts(tieredOpts(nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, err := db2.Table("objects")
	if err != nil {
		t.Fatal(err)
	}
	verifyModel(t, db2, tbl2, m, "reopened")
	if st := db2.Stats(); st.HistRuns == 0 {
		t.Fatal("reopen lost the cold tier")
	}

	// Reopening WITHOUT TieredHistory must still serve migrated versions —
	// the cold read path is always on; the option only gates new migrations.
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, err := Open(dir, testOpts(func(o *Options) {
		o.PageSize = 1024
		o.CacheFrames = 32
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	tbl3, err := db3.Table("objects")
	if err != nil {
		t.Fatal(err)
	}
	verifyModel(t, db3, tbl3, m, "untiered-reopen")
	if err := db3.CompactHistory(); !errors.Is(err, ErrTieredOff) {
		t.Fatalf("CompactHistory without the option = %v, want ErrTieredOff", err)
	}
}

// minStorageReduction is the factor the compressed cold tier must beat: the
// versions of a migrated history page must occupy at most a third of the
// page bytes they were freed from.
const minStorageReduction = 3.0

// TestTieredHistoryStorageReduction holds the cold tier's compression floor
// on the moving-objects stream (1,200 single-record commits over 30 objects,
// 2 KB pages, a 64-frame pool). Byte counts are deterministic for a given
// seed, so this is a count, not a timing.
func TestTieredHistoryStorageReduction(t *testing.T) {
	db, _ := openTestDB(t, tieredOpts(func(o *Options) {
		o.PageSize = 2048
		o.CacheFrames = 64
	}))
	tbl, _ := db.CreateTable("objects", TableOptions{Immortal: true})
	ops, err := workload.New(workload.Config{Seed: 1}).Stream(30, 1200)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		set(t, db, tbl, string(workload.Key(op.OID)), string(workload.Value(op.Pos)))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactHistory(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.PagesMigrated == 0 || st.HistBytes == 0 {
		t.Fatalf("migration moved nothing (pages=%d cold bytes=%d)", st.PagesMigrated, st.HistBytes)
	}
	red := float64(st.PagesMigrated*uint64(db.opts.PageSize)) / float64(st.HistBytes)
	t.Logf("storage reduction %.3fx (%d pages -> %d cold bytes)", red, st.PagesMigrated, st.HistBytes)
	if red < minStorageReduction {
		t.Fatalf("storage reduction %.3fx below the %gx floor (%d pages -> %d cold bytes)",
			red, minStorageReduction, st.PagesMigrated, st.HistBytes)
	}
}

func TestTieredHistoryCompactsLevels(t *testing.T) {
	db, _ := openTestDB(t, tieredOpts(nil))
	tbl, _ := db.CreateTable("objects", TableOptions{Immortal: true})
	// Compact after every couple of commits: many small level-0 runs, so the
	// fanout trigger must merge them upward.
	m := runTieredWorkload(t, db, tbl, 2)
	st := db.Stats()
	if st.HistRuns == 0 {
		t.Fatal("no runs written")
	}
	if st.HistRuns >= histFanout {
		// With fanout merging, the live run count stays below the fanout at
		// every level; a long level-0 pileup means merging never ran.
		man := db.hist.Manifest(tbl.meta.ID)
		perLevel := map[uint8]int{}
		for _, r := range man.Runs {
			perLevel[r.Level]++
		}
		for lvl, n := range perLevel {
			if n >= histFanout {
				t.Fatalf("level %d holds %d runs (fanout %d): merge never triggered (%+v)",
					lvl, n, histFanout, perLevel)
			}
		}
	}
	verifyModel(t, db, tbl, m, "compacted")
}

// TestCompactHistoryTerminatesOnFullRuns pins the end of a livelock: a level
// of histFanout or more full-size runs merges into as many runs one level
// up, which used to count as wide again, level after level, for ever. The
// run target is shrunk so that a few kilobytes of history are many full runs.
func TestCompactHistoryTerminatesOnFullRuns(t *testing.T) {
	defer func(old int) { histRunTarget = old }(histRunTarget)
	histRunTarget = 256

	db, _ := openTestDB(t, tieredOpts(nil))
	tbl, _ := db.CreateTable("objects", TableOptions{Immortal: true})
	m := runTieredWorkload(t, db, tbl, 0)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	compact := func() {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- db.CompactHistory() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("CompactHistory still merging after 20 s (run sequence at %d)",
				db.hist.Manifest(tbl.meta.ID).NextSeq)
		}
	}
	compact()

	man := db.hist.Manifest(tbl.meta.ID)
	if len(man.Runs) < histFanout {
		t.Fatalf("only %d runs: the tier never held a level of full-size runs", len(man.Runs))
	}
	// One migration plus one merge per level that was wide write each entry
	// a few times over, not thousands of times.
	if max := uint64(8 * len(man.Runs)); man.NextSeq > max {
		t.Fatalf("run sequence reached %d for %d live runs, want <= %d", man.NextSeq, len(man.Runs), max)
	}
	verifyModel(t, db, tbl, m, "many full runs")

	// A settled tier stays settled.
	compact()
	if again := db.hist.Manifest(tbl.meta.ID); again.Ver != man.Ver {
		t.Fatalf("a second pass rewrote a settled tier: manifest %d -> %d", man.Ver, again.Ver)
	}
}

// counterValue reads one counter off the metrics exposition.
func counterValue(t *testing.T, name string) uint64 {
	t.Helper()
	var b strings.Builder
	obs.WriteMetrics(&b)
	for sc := bufio.NewScanner(strings.NewReader(b.String())); sc.Scan(); {
		var v uint64
		if n, _ := fmt.Sscanf(sc.Text(), name+" %d", &v); n == 1 {
			return v
		}
	}
	t.Fatalf("no counter %s in the exposition", name)
	return 0
}

// TestAsOfScanAcrossHotColdBoundary runs the same commits on a tiered and an
// untiered database and asks both the same AS OF scans at every commit.
// Partitions time-split at different moments, so at many of those times a
// scan finds some partitions still hot and their neighbours cold: the rows
// must be the untiered database's, in key order, and what a scan handed out
// must stay intact while later reads (two goroutines, for -race) reuse the
// cold tier's pooled buffers.
func TestAsOfScanAcrossHotColdBoundary(t *testing.T) {
	type row struct{ k, v string }
	const nKeys = 60
	key := func(i int) string { return fmt.Sprintf("k%03d", i) }
	load := func(tiered bool) (*DB, *Table, []Timestamp) {
		db, _ := openTestDB(t, func(o *Options) {
			o.CacheFrames = 32
			o.TieredHistory = tiered
		})
		tbl, err := db.CreateTable("objects", TableOptions{Immortal: true})
		if err != nil {
			t.Fatal(err)
		}
		var stamps []Timestamp
		write := func(round, from, to int) {
			for i := from; i < to; i++ {
				stamps = append(stamps, set(t, db, tbl, key(i), fmt.Sprintf("%s-r%02d-padpadpadpadpadpadpad", key(i), round)))
			}
		}
		migrate := func() {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if tiered {
				if err := db.CompactHistory(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for round := 0; round < 3; round++ {
			write(round, 0, nKeys)
		}
		migrate()
		for round := 3; round < 6; round++ {
			write(round, nKeys/3, 2*nKeys/3) // the middle partitions split on, the outer ones rest
		}
		migrate()
		write(6, 0, nKeys)
		return db, tbl, stamps
	}
	scan := func(db *DB, tbl *Table, at Timestamp, lo, hi []byte) ([]row, [][2][]byte, error) {
		tx, err := db.BeginAsOfTS(at)
		if err != nil {
			return nil, nil, err
		}
		defer tx.Commit()
		var rows []row
		var raw [][2][]byte
		err = tx.Scan(tbl, lo, hi, func(k, v []byte) bool {
			rows = append(rows, row{string(k), string(v)})
			raw = append(raw, [2][]byte{k, v})
			return true
		})
		return rows, raw, err
	}

	plain, plainTbl, plainStamps := load(false)
	cold, coldTbl, coldStamps := load(true)
	if len(plainStamps) != len(coldStamps) {
		t.Fatalf("%d and %d commits", len(plainStamps), len(coldStamps))
	}
	if u, err := coldTbl.tree.Utilization(); err != nil || u.CurrentPages < 3 {
		t.Fatalf("%d partitions (err=%v): the scans would not cross three", u.CurrentPages, err)
	}
	ranges := [][2][]byte{{nil, nil}, {[]byte(key(nKeys / 4)), []byte(key(3 * nKeys / 4))}}

	// The untiered answers, and how many times are split between the tiers:
	// a point read either asks the cold tier or does not.
	want := make([][][]row, len(plainStamps))
	mixed := 0
	for i, at := range plainStamps {
		for _, r := range ranges {
			rows, _, err := scan(plain, plainTbl, at, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], rows)
		}
		tx, err := cold.BeginAsOfTS(coldStamps[i])
		if err != nil {
			t.Fatal(err)
		}
		before := counterValue(t, "immortaldb_hist_cold_lookups_total")
		for k := 0; k < nKeys; k += 5 {
			get(t, tx, coldTbl, key(k))
		}
		tx.Commit()
		if asked := counterValue(t, "immortaldb_hist_cold_lookups_total") - before; asked > 0 && asked < nKeys/5 {
			mixed++
		}
	}
	// With observability compiled out the counters stay at zero and the
	// test cannot tell; the row comparison below runs regardless.
	if mixed == 0 && obs.Enabled() {
		t.Fatal("no commit time at which some partitions are hot and others cold")
	}

	blocks := counterValue(t, "immortaldb_hist_blocks_read_total")
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var kept [][2][]byte
			var keptRows []row
			for i, at := range coldStamps {
				for j, r := range ranges {
					rows, raw, err := scan(cold, coldTbl, at, r[0], r[1])
					if err != nil {
						t.Error(err)
						return
					}
					if fmt.Sprint(rows) != fmt.Sprint(want[i][j]) {
						t.Errorf("commit %d, range %q: tiered scan\n %v\nuntiered\n %v", i, r, rows, want[i][j])
						return
					}
					kept, keptRows = append(kept, raw...), append(keptRows, rows...)
				}
			}
			for i, kv := range kept {
				if string(kv[0]) != keptRows[i].k || string(kv[1]) != keptRows[i].v {
					t.Errorf("row %d handed out as %v now reads (%q, %q)", i, keptRows[i], kv[0], kv[1])
					return
				}
			}
		}()
	}
	wg.Wait()
	if counterValue(t, "immortaldb_hist_blocks_read_total") == blocks && obs.Enabled() {
		t.Fatal("the tiered scans read no cold block")
	}
	t.Logf("%d of %d commit times are split between hot and cold partitions", mixed, len(coldStamps))
}

func TestTieredHistoryRetention(t *testing.T) {
	clock := testClock()
	db, _ := openTestDB(t, tieredOpts(func(o *Options) {
		o.Clock = clock
		o.Retention = 10 * itime.TickDuration
	}))
	tbl, _ := db.CreateTable("objects", TableOptions{Immortal: true})

	var stamps []Timestamp
	for i := 0; i < 30; i++ {
		stamps = append(stamps, set(t, db, tbl, "k", fmt.Sprintf("v%03d-padpadpadpadpadpadpadpadpadpadpadpad", i)))
		if i%6 == 5 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := db.CompactHistory(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Let the clock run far past every version, then compact until the
	// fanout merges have vacuumed behind the horizon.
	clock.Advance(1000 * itime.TickDuration)
	for i := 0; i < 4; i++ {
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := db.CompactHistory(); err != nil {
			t.Fatal(err)
		}
	}
	hist, err := db.History(tbl, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) >= len(stamps) {
		t.Fatalf("retention vacuumed nothing: %d versions survive of %d", len(hist), len(stamps))
	}
	// The newest version must always survive and read correctly now.
	tx, _ := db.Begin(Serializable)
	if v, ok := get(t, tx, tbl, "k"); !ok || v[:4] != "v029" {
		t.Fatalf("current read after vacuum = %q, %v", v, ok)
	}
	tx.Commit()
}

func TestTieredHistoryBackgroundCompactor(t *testing.T) {
	db, _ := openTestDB(t, tieredOpts(func(o *Options) {
		o.HistCompactEvery = 5 * time.Millisecond
		o.Ablation.Threshold = 4
	}))
	tbl, _ := db.CreateTable("objects", TableOptions{Immortal: true})
	for i := 0; i < 60; i++ {
		set(t, db, tbl, fmt.Sprintf("key-%02d", i%6), fmt.Sprintf("val-%03d-padpadpadpadpadpadpadpad", i))
		if i%10 == 9 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for db.Stats().HistCompactions == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if db.Stats().HistCompactions == 0 {
		t.Fatal("background compactor never completed a pass")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close with live compactor: %v", err)
	}
}

func TestTieredHistoryRejectsTSBMode(t *testing.T) {
	_, err := Open(t.TempDir(), testOpts(func(o *Options) {
		o.TieredHistory = true
		o.Ablation.HistoricalIndex = IndexTSB
	}))
	if err == nil {
		t.Fatal("TieredHistory with IndexTSB must refuse to open")
	}
}

func TestTieredHistoryFaultDegrades(t *testing.T) {
	fs := vfs.NewSim(7)
	open := func() (*DB, *Table) {
		db, err := Open("db", testOpts(tieredOpts(func(o *Options) {
			o.FS = fs
			o.NoSync = false
		})))
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.Table("objects")
		if err != nil {
			tbl, err = db.CreateTable("objects", TableOptions{Immortal: true})
			if err != nil {
				t.Fatal(err)
			}
		}
		return db, tbl
	}
	db, tbl := open()
	cur := map[string]string{}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("key-%02d", i%5)
		val := fmt.Sprintf("val-%03d-padpadpadpadpadpadpadpadpadpad", i)
		set(t, db, tbl, key, val)
		cur[key] = val
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Every write to a run file fails: the pass must error and latch the
	// engine degraded without corrupting anything already acked.
	fs.InjectFault(vfs.Fault{Op: vfs.OpWrite, File: ".run.", Err: vfs.ErrInjectedIO, Count: -1})
	err := db.CompactHistory()
	if err == nil {
		t.Fatal("CompactHistory succeeded through injected run-write EIO")
	}
	if db.Degraded() == nil {
		t.Fatal("run-write EIO did not degrade the engine")
	}
	fs.ClearFaults()
	// Degraded reads must still serve the full acked state.
	tx, err := db.Begin(Serializable)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range cur {
		if got, ok := get(t, tx, tbl, k); !ok || got != v {
			t.Fatalf("degraded read %s = %q, %v; want %q", k, got, ok, v)
		}
	}
	tx.Commit()
	db.Close()

	// Reopen recovers; the same pass now succeeds and everything reads back.
	db2, tbl2 := open()
	defer db2.Close()
	if err := db2.CompactHistory(); err != nil {
		t.Fatalf("CompactHistory after recovery: %v", err)
	}
	tx2, _ := db2.Begin(Serializable)
	for k, v := range cur {
		if got, ok := get(t, tx2, tbl2, k); !ok || got != v {
			t.Fatalf("post-recovery read %s = %q, %v; want %q", k, got, ok, v)
		}
	}
	tx2.Commit()
}

// TestTieredHistoryDeepKeyHistory pins a cold-read bug found end-to-end:
// when one key accumulates enough versions that its cold entries span
// several run blocks, the block-index search started at the LAST block
// carrying the key, so AS OF reads below the newest few versions returned
// not-found. Shape that triggers it: few keys, many versions each,
// multi-key commits, a cache too small to mask the cold path.
func TestTieredHistoryDeepKeyHistory(t *testing.T) {
	db, dir := openTestDB(t, tieredOpts(func(o *Options) {
		o.CacheFrames = 8
	}))
	tbl, err := db.CreateTable("objects", TableOptions{Immortal: true})
	if err != nil {
		t.Fatal(err)
	}

	const commits, nkeys = 60, 4
	var stamps []Timestamp
	val := func(k, i int) string {
		return fmt.Sprintf("k%d-v%03d-%060d", k, i, i)
	}
	for i := 0; i < commits; i++ {
		tx, err := db.Begin(Serializable)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < nkeys; k++ {
			if err := tx.Set(tbl, []byte(fmt.Sprintf("k%d", k)), []byte(val(k, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		stamps = append(stamps, db.Now())
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactHistory(); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.PagesMigrated == 0 {
		t.Fatal("no migration: test would not cover the cold path")
	}

	check := func(db *DB, tbl *Table, label string) {
		t.Helper()
		for i, ts := range stamps {
			tx, err := db.BeginAsOfTS(ts)
			if err != nil {
				t.Fatalf("%s: BeginAsOfTS(commit %d): %v", label, i, err)
			}
			for k := 0; k < nkeys; k++ {
				got, ok := get(t, tx, tbl, fmt.Sprintf("k%d", k))
				if !ok || got != val(k, i) {
					t.Fatalf("%s: AS OF commit %d key k%d = %q ok=%v, want %q",
						label, i, k, got, ok, val(k, i))
				}
			}
			tx.Commit()
		}
		for k := 0; k < nkeys; k++ {
			h, err := db.History(tbl, []byte(fmt.Sprintf("k%d", k)))
			if err != nil || len(h) != commits {
				t.Fatalf("%s: History(k%d) = %d versions err=%v, want %d", label, k, len(h), err, commits)
			}
		}
	}
	check(db, tbl, "cold")

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, testOpts(tieredOpts(func(o *Options) { o.CacheFrames = 8 })))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, err := db2.Table("objects")
	if err != nil {
		t.Fatal(err)
	}
	check(db2, tbl2, "reopened")
}
