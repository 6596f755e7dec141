package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"immortaldb"
	"immortaldb/internal/catalog"
	"immortaldb/internal/itime"
	"immortaldb/internal/sqlish"
)

const createTable = "CREATE IMMORTAL TABLE bench (k INT PRIMARY KEY, v INT)"

// versionBytes is the user data in one version of a bench row: a 4-byte key
// and a 12-byte row (two length-prefixed INT columns).
const versionBytes = 4 + 12

// histRunTarget mirrors the engine's unexported cap on one cold run file's
// estimated size (histtier.go). The sizing guard below needs it.
const histRunTarget = 4 << 20

// compactTimeout bounds the one CompactHistory call of a cold set-up.
const compactTimeout = 30 * time.Second

// setupSeed seeds every set-up. The database is the same whatever --seed
// says; the seed drives the operation streams against it. A page layout that
// followed the seed moved space_amp by 5 % and read latency by more from seed
// to seed, which is noise about the generator, not about the engine.
const setupSeed = 0

// counts are the set-up's counters, which repeat exactly: set-up runs
// single-threaded on a simulated clock, so the results file can be compared
// byte for byte between two runs.
type counts struct {
	Commits       uint64 `json:"commits"`
	TimeSplits    uint64 `json:"time_splits"`
	KeySplits     uint64 `json:"key_splits"`
	LogBytes      int64  `json:"log_bytes"`
	LogAppends    uint64 `json:"log_appends"`
	PTTEntries    uint64 `json:"ptt_entries"`
	HistRuns      int    `json:"hist_runs"`
	HistBytes     uint64 `json:"hist_bytes"`
	PagesMigrated uint64 `json:"pages_migrated"`
	DiskBytes     int64  `json:"disk_bytes"`
	UserBytes     int64  `json:"user_bytes"`
}

// dataset is a built database directory together with the generator's model
// of what it holds.
type dataset struct {
	dir     string
	nkeys   int
	scanLen int
	cols    []catalog.Column

	// last[k] is the value of key k's newest acknowledged version and
	// nver[k] how many versions of it were written; the reopen check reads
	// both back.
	last []int64
	nver []int32

	// History tables: the AS OF literal, statement and engine timestamp of
	// each round's end instant.
	beginAsOf []string
	roundTS   []itime.Timestamp

	counts   counts
	spaceAmp float64
}

func (ds *dataset) key(k int) []byte {
	return sqlish.EncodeKey(ds.cols[0], sqlish.Value{Type: ds.cols[0].Type, Int: int64(k)})
}

func (ds *dataset) row(k, v int) []byte {
	b, err := sqlish.EncodeRow(ds.cols, []sqlish.Value{
		{Type: ds.cols[0].Type, Int: int64(k)},
		{Type: ds.cols[1].Type, Int: int64(v)},
	})
	if err != nil {
		panic(err) // two values for two columns: only a bug can fail this
	}
	return b
}

// rowValue decodes an engine row back to its two columns.
func (ds *dataset) rowValue(row []byte) (k, v int64, err error) {
	vals, err := sqlish.DecodeRow(ds.cols, row)
	if err != nil {
		return 0, 0, err
	}
	return vals[0].Int, vals[1].Int, nil
}

// build creates the workload's database under dir through the engine's
// public API and closes it again. The time it takes is setup_s.
func (w *workload) build(dir string, sc scale) (*dataset, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if w.history {
		return buildHistory(dir, sc, w.serve(sc), w.tiered)
	}
	return buildCommitTable(dir, sc)
}

func openForSetup(dir string, opts immortaldb.Options) (*immortaldb.DB, *immortaldb.Table, []catalog.Column, error) {
	db, err := immortaldb.Open(dir, &opts)
	if err != nil {
		return nil, nil, nil, err
	}
	s := sqlish.NewSession(db)
	if _, err := s.Exec(createTable); err != nil {
		db.Close()
		return nil, nil, nil, err
	}
	tbl, err := db.Table("bench")
	if err != nil {
		db.Close()
		return nil, nil, nil, err
	}
	return db, tbl, tbl.Meta().Columns, nil
}

// buildCommitTable preloads sc.rows rows in 1000-row commits, then ages the
// table with sc.aging single-record update transactions, so the database the
// run starts from already holds versions and part-filled pages.
func buildCommitTable(dir string, sc scale) (*dataset, error) {
	db, tbl, cols, err := openForSetup(dir, immortaldb.Options{
		NoSync: true, Clock: autoStepClock(simStart), CheckpointEveryN: sc.aging/5 + 1,
	})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	ds := &dataset{dir: dir, nkeys: sc.rows, scanLen: sc.scanLen, cols: cols,
		last: make([]int64, sc.rows), nver: make([]int32, sc.rows)}
	for lo := 0; lo < sc.rows; lo += 1000 {
		err := db.Update(func(tx *immortaldb.Tx) error {
			for k := lo; k < lo+1000 && k < sc.rows; k++ {
				if err := tx.Set(tbl, ds.key(k), ds.row(k, 0)); err != nil {
					return err
				}
				ds.nver[k] = 1
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	g := newGen(ds, sc, setupSeed, streamSetup, 0, 1, opUpdate)
	g.nextVal = 0
	for i := 0; i < sc.aging; i++ {
		o := g.next()
		err := db.Update(func(tx *immortaldb.Tx) error { return tx.Set(tbl, ds.key(o.key), ds.row(o.key, o.val)) })
		if err != nil {
			return nil, err
		}
		ds.last[o.key] = int64(o.val)
		ds.nver[o.key]++
	}
	if err := ds.finish(db, int64(sc.rows+sc.aging)); err != nil {
		return nil, err
	}
	return ds, db.Close()
}

// buildHistory writes sc.keys keys in each of sc.rounds rounds, the value
// written in round r being r, in sc.batch-row commits one clock tick apart,
// and records an instant between each round and the next. With tiered set,
// one CompactHistory moves all history into cold runs.
func buildHistory(dir string, sc scale, serve *immortaldb.Options, tiered bool) (*dataset, error) {
	versions := int64(sc.keys) * int64(sc.rounds)
	if est := versions * (versionBytes + 20); tiered && est > 3*histRunTarget {
		return nil, fmt.Errorf("cold set-up of %d versions is about %d bytes of history entries, over 3 run files of %d: "+
			"CompactHistory's fan-out merge does not finish at that size (see README, known pathologies)", versions, est, histRunTarget)
	}
	clk := itime.NewSimClock(simStart)
	db, tbl, cols, err := openForSetup(dir, immortaldb.Options{
		NoSync: true, Clock: clk, CacheFrames: serve.CacheFrames, TieredHistory: tiered,
	})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	ds := &dataset{dir: dir, nkeys: sc.keys, scanLen: sc.scanLen, cols: cols,
		last: make([]int64, sc.keys), nver: make([]int32, sc.keys)}
	rng := newRand(setupSeed, streamSetup)
	now := simStart
	for r := 0; r < sc.rounds; r++ {
		order := rng.Perm(sc.keys)
		for lo := 0; lo < sc.keys; lo += sc.batch {
			err := db.Update(func(tx *immortaldb.Tx) error {
				for _, k := range order[lo:min(lo+sc.batch, sc.keys)] {
					if err := tx.Set(tbl, ds.key(k), ds.row(k, r)); err != nil {
						return err
					}
					ds.last[k] = int64(r)
					ds.nver[k]++
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			clk.Advance(itime.TickDuration)
			now = now.Add(itime.TickDuration)
		}
		// The round-end instant sits at least a second after the round's
		// last commit and a second before the next round's first. Every
		// time here is a whole number of ticks, so Advance is exact.
		end := now.Truncate(time.Second).Add(2 * time.Second)
		lit := end.Format("2006-01-02 15:04:05")
		ts, err := itime.ParseAsOf(lit)
		if err != nil {
			return nil, err
		}
		ds.beginAsOf = append(ds.beginAsOf, fmt.Sprintf("BEGIN TRAN AS OF %q", lit))
		ds.roundTS = append(ds.roundTS, ts)
		clk.Advance(end.Add(time.Second).Sub(now))
		now = end.Add(time.Second)
	}
	if tiered {
		if err := db.Checkpoint(); err != nil {
			return nil, err
		}
		done := make(chan error, 1)
		go func() { done <- db.CompactHistory() }()
		select {
		case err := <-done:
			if err != nil {
				return nil, err
			}
		case <-time.After(compactTimeout):
			return nil, fmt.Errorf("CompactHistory did not finish in %v: the cold set-up is too large for the fan-out merge (see README, known pathologies)", compactTimeout)
		}
	}
	if err := ds.finish(db, versions); err != nil {
		return nil, err
	}
	return ds, db.Close()
}

// finish checkpoints and records the set-up's counters and space
// amplification: bytes on disk (page file, timestamp table and cold runs;
// the log is excluded) over user bytes (key plus row of every version
// written).
func (ds *dataset) finish(db *immortaldb.DB, versions int64) error {
	if err := db.Checkpoint(); err != nil {
		return err
	}
	st := db.Stats()
	disk, err := diskBytes(ds.dir)
	if err != nil {
		return err
	}
	user := versions * versionBytes
	ds.counts = counts{
		Commits: st.Commits, TimeSplits: st.TimeSplits, KeySplits: st.KeySplits,
		LogBytes: st.LogBytes, LogAppends: st.LogAppends, PTTEntries: st.PTTEntries,
		HistRuns: st.HistRuns, HistBytes: st.HistBytes, PagesMigrated: st.PagesMigrated,
		DiskBytes: disk, UserBytes: user,
	}
	ds.spaceAmp = float64(disk) / float64(user)
	return nil
}

// diskBytes sums the page file, the persistent timestamp table and the cold
// run files and manifests under dir. The write-ahead log is left out: its
// size is a checkpoint-timing artefact, not the database's footprint.
func diskBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "wal.") {
			continue
		}
		fi, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		if fi.Mode().IsRegular() {
			sum += fi.Size()
		}
	}
	return sum, nil
}
