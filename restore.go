package immortaldb

import (
	"fmt"
	"path/filepath"

	"immortaldb/internal/itime"
	"immortaldb/internal/wal"
)

// ParseAsOf parses a SQL AS OF time literal ("2004-08-12 10:15:20", a bare
// date, or m/d/y forms) into a Timestamp that sees every transaction
// committed during that tick — the same parse BEGIN TRAN AS OF uses.
func ParseAsOf(s string) (Timestamp, error) { return itime.ParseAsOf(s) }

// RestoreAsOf clones the database at srcDir into dstDir as it stood at
// timestamp ts: the source's log chain is cut just after the last commit
// record at or before ts, the prefix is copied byte-for-byte into a fresh
// destination log, and an ordinary open replays it from the beginning of
// history — rebuilding every page from logged images and version records,
// and undoing the transactions the cut left without a commit. The source is
// only read (via the never-mutating retained-chain scan), so a live or
// crashed database can be restored from without touching it.
//
// The chain must reach back to the database's creation: run the source with
// Options.RetainWAL, or restore from a follower that retains its copy.
// Commit records appear in timestamp order (timestamps are chosen under the
// same lock that orders commit records), so a single cut point captures
// exactly the committed state at ts.
func RestoreAsOf(srcDir, dstDir string, ts Timestamp, opts *Options) error {
	fsys := opts.withDefaults().FS
	srcLog := filepath.Join(srcDir, walFile)
	start, err := wal.RetainedStart(fsys, srcLog)
	if err != nil {
		return fmt.Errorf("immortaldb: restore source %s: %w", srcDir, err)
	}
	if start != wal.FirstLSN {
		return fmt.Errorf("immortaldb: restore needs the full log chain, but %s starts at %d — run the source with Options.RetainWAL", srcDir, start)
	}
	existing, err := dirFiles(fsys, dstDir)
	if err != nil {
		return fmt.Errorf("immortaldb: restore destination %s: %w", dstDir, err)
	}
	if len(existing) > 0 {
		return fmt.Errorf("immortaldb: restore destination %s is not empty", dstDir)
	}

	// Find the cut: the end of the last commit at or before ts. Update
	// records of still-uncommitted transactions before the cut are fine —
	// recovery undoes them, exactly as it would after a crash at that
	// moment.
	cut := wal.FirstLSN
	if err := wal.ScanRetained(fsys, srcLog, func(rec *wal.Record) error {
		if rec.Type == wal.TypeCommit && !rec.TS.After(ts) {
			cut = rec.EndLSN()
		}
		return nil
	}); err != nil {
		return err
	}
	if cut == wal.FirstLSN {
		return fmt.Errorf("%w: no commit at or before %v in %s", ErrNoHistory, ts, srcDir)
	}

	dst, err := wal.OpenFS(fsys, filepath.Join(dstDir, walFile))
	if err != nil {
		return err
	}
	if err := wal.CopyRetained(fsys, srcLog, cut, dst); err != nil {
		dst.Close()
		return fmt.Errorf("immortaldb: restore log copy: %w", err)
	}
	if err := dst.SyncIngested(); err != nil {
		dst.Close()
		return err
	}
	if err := dst.Close(); err != nil {
		return err
	}

	// An ordinary open finishes the job: full redo from genesis, undo of the
	// cut's losers, and a checkpoint that makes the clone self-sufficient.
	db, err := openDB(dstDir, opts, false)
	if err != nil {
		return fmt.Errorf("immortaldb: restore replay: %w", err)
	}
	return db.Close()
}

// ExportAsOf materializes the database state as of ts into a fresh database
// at dir — the restore path of the paper's "query-able backup", one of its
// "Next Steps" (Section 7.2 / [22]): the historical versions double as an
// always-online, incrementally-maintained backup from which any past state
// can be extracted. Only immortal tables are exported (conventional tables
// have no past states to restore). The export carries the state, not the
// history: it is a conventional point-in-time restore. RestoreAsOf is its
// sibling that replays the log instead and keeps the history up to ts. The
// export is created on the source's disk (Options.FS) with the source's page,
// cache, sync, clock and log segment settings.
func (db *DB) ExportAsOf(ts Timestamp, dir string) error {
	out, err := Open(dir, &Options{
		PageSize:       db.opts.PageSize,
		CacheFrames:    db.opts.CacheFrames,
		NoSync:         db.opts.NoSync,
		Clock:          db.opts.Clock,
		FS:             db.opts.FS,
		WALSegmentSize: db.opts.WALSegmentSize,
	})
	if err != nil {
		return err
	}
	defer out.Close()

	db.mu.Lock()
	tables := db.cat.List()
	db.mu.Unlock()
	for _, meta := range tables {
		if !meta.Immortal {
			continue
		}
		src, err := db.Table(meta.Name)
		if err != nil {
			return err
		}
		dst, err := out.CreateTable(meta.Name, TableOptions{
			Immortal: true,
			Columns:  meta.Columns,
		})
		if err != nil {
			return err
		}
		srcTx, err := db.BeginAsOfTS(ts)
		if err != nil {
			return err
		}
		dstTx, err := out.Begin(Serializable)
		if err != nil {
			srcTx.Commit()
			return err
		}
		var copyErr error
		err = srcTx.Scan(src, nil, nil, func(k, v []byte) bool {
			if copyErr = dstTx.Set(dst, k, v); copyErr != nil {
				return false
			}
			return true
		})
		srcTx.Commit()
		if err == nil {
			err = copyErr
		}
		if err != nil {
			dstTx.Rollback()
			return fmt.Errorf("immortaldb: export of %s: %w", meta.Name, err)
		}
		if err := dstTx.Commit(); err != nil {
			return err
		}
	}
	return nil
}
