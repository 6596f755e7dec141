package tsb

import (
	"errors"
	"fmt"

	"immortaldb/internal/itime"
	"immortaldb/internal/storage/page"
)

// errRetry signals that a structure modification ran and the caller must
// re-descend from the root.
var errRetry = errors.New("tsb: retry after structure modification")

// maxSplitRounds bounds the re-descend loop; any correct split sequence
// converges in a handful of rounds.
const maxSplitRounds = 64

// LogFunc is called with the destination page once space is ensured; the
// engine appends the WAL record and returns its LSN (0 with no logging).
type LogFunc func(pid page.ID) (uint64, error)

// nopLog is used when the caller does not log.
func nopLog(page.ID) (uint64, error) { return 0, nil }

// InsertLogFunc logs a versioned write. When the write overwrote the
// transaction's own uncommitted version in place (see
// page.InsertOrReplaceOwn), replaced is true and oldVal/oldStub carry the
// overwritten state for undo.
type InsertLogFunc func(pid page.ID, replaced bool, oldVal []byte, oldStub bool) (uint64, error)

func nopInsertLog(page.ID, bool, []byte, bool) (uint64, error) { return 0, nil }

// Insert writes a non-timestamped version of key (stub marks a delete) on
// behalf of transaction tid: a new chained version, or an in-place overwrite
// when the latest version is tid's own uncommitted one. It returns the page
// that received the version.
func (t *Tree) Insert(tid itime.TID, key, value []byte, stub bool, logRec InsertLogFunc) (page.ID, error) {
	if logRec == nil {
		logRec = nopInsertLog
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for round := 0; round < maxSplitRounds; round++ {
		path, lf, err := t.descend(key, itime.Max)
		if err != nil {
			return 0, err
		}
		dp := lf.Data()
		if dp == nil {
			t.releasePath(path)
			t.cfg.Pool.Release(lf)
			return 0, fmt.Errorf("tsb: descent for %q hit non-data page %d", key, lf.ID())
		}
		replaced, oldVal, oldStub, err := dp.InsertOrReplaceOwn(key, value, stub, tid)
		if err == nil {
			lsn, lerr := logRec(dp.ID, replaced, oldVal, oldStub)
			if lerr != nil {
				// Roll the in-memory change back; nothing was logged.
				if replaced {
					_ = dp.RestoreOwn(key, tid, oldVal, oldStub)
				} else {
					_ = dp.UndoInsert(key, tid)
				}
				t.releasePath(path)
				t.cfg.Pool.Release(lf)
				return 0, lerr
			}
			if lsn != 0 {
				dp.LSN = lsn
			}
			t.cfg.Pool.MarkDirty(lf, dp.LSN)
			id := dp.ID
			t.releasePath(path)
			t.cfg.Pool.Release(lf)
			return id, nil
		}
		if !errors.Is(err, page.ErrPageFull) {
			t.releasePath(path)
			t.cfg.Pool.Release(lf)
			if errors.Is(err, page.ErrTooLarge) {
				return 0, fmt.Errorf("%w: key %q", ErrNoSpace, key)
			}
			return 0, err
		}
		// Page full: run one structure modification and retry.
		err = t.splitLeaf(path, lf)
		t.releasePath(path)
		t.cfg.Pool.Release(lf)
		if err != nil && !errors.Is(err, errRetry) {
			return 0, err
		}
	}
	return 0, fmt.Errorf("tsb: insert of %q did not converge after %d split rounds", key, maxSplitRounds)
}

// UndoReplaceOwn rolls back an in-place same-transaction overwrite. The
// displaced value may be longer than the one it replaces, so like every
// other write path it splits a full page and retries.
func (t *Tree) UndoReplaceOwn(tid itime.TID, key, oldVal []byte, oldStub bool, logRec LogFunc) error {
	if logRec == nil {
		logRec = nopLog
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for round := 0; round < maxSplitRounds; round++ {
		path, lf, err := t.descend(key, itime.Max)
		if err != nil {
			return err
		}
		dp := lf.Data()
		err = dp.RestoreOwn(key, tid, oldVal, oldStub)
		if err == nil {
			lsn, lerr := logRec(dp.ID)
			if lerr == nil && lsn != 0 {
				dp.LSN = lsn
			}
			t.cfg.Pool.MarkDirty(lf, dp.LSN)
			err = lerr
		} else if errors.Is(err, page.ErrPageFull) {
			err = t.splitLeaf(path, lf)
		}
		t.releasePath(path)
		t.cfg.Pool.Release(lf)
		if !errors.Is(err, errRetry) {
			return err
		}
	}
	return fmt.Errorf("tsb: undo of own overwrite of %q did not converge after %d split rounds", key, maxSplitRounds)
}

// NoTailLogFunc logs a conventional-table write; old carries the value the
// write displaced, for undo.
type NoTailLogFunc func(pid page.ID, old []byte) (uint64, error)

func nopNoTailLog(page.ID, []byte) (uint64, error) { return 0, nil }

// ReplaceNoTail updates a conventional (no-tail) table's record in place,
// returning the old value. found is false when the key does not exist (and
// nothing is logged).
func (t *Tree) ReplaceNoTail(key, value []byte, logRec NoTailLogFunc) (old []byte, found bool, err error) {
	if logRec == nil {
		logRec = nopNoTailLog
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for round := 0; round < maxSplitRounds; round++ {
		path, lf, err := t.descend(key, itime.Max)
		if err != nil {
			return nil, false, err
		}
		dp := lf.Data()
		old, found, err = dp.Replace(key, value)
		if err == nil {
			if found {
				lsn, lerr := logRec(dp.ID, old)
				if lerr != nil {
					_ = dp.RestoreValue(key, old)
					t.releasePath(path)
					t.cfg.Pool.Release(lf)
					return nil, false, lerr
				}
				if lsn != 0 {
					dp.LSN = lsn
				}
				t.cfg.Pool.MarkDirty(lf, dp.LSN)
			}
			t.releasePath(path)
			t.cfg.Pool.Release(lf)
			return old, found, nil
		}
		err = t.splitLeaf(path, lf)
		t.releasePath(path)
		t.cfg.Pool.Release(lf)
		if err != nil && !errors.Is(err, errRetry) {
			return nil, false, err
		}
	}
	return nil, false, fmt.Errorf("tsb: replace of %q did not converge", key)
}

// RemoveNoTail deletes a conventional table's record outright, returning the
// removed value. page.ErrNotFound surfaces for missing keys (nothing is
// logged).
func (t *Tree) RemoveNoTail(key []byte, logRec NoTailLogFunc) ([]byte, error) {
	if logRec == nil {
		logRec = nopNoTailLog
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	path, lf, err := t.descend(key, itime.Max)
	if err != nil {
		return nil, err
	}
	defer t.cfg.Pool.Release(lf)
	defer t.releasePath(path)
	dp := lf.Data()
	old, err := dp.Remove(key)
	if err != nil {
		return nil, err
	}
	lsn, lerr := logRec(dp.ID, old)
	if lerr != nil {
		_ = dp.Insert(key, old, false, 0)
		return nil, lerr
	}
	if lsn != 0 {
		dp.LSN = lsn
	}
	t.cfg.Pool.MarkDirty(lf, dp.LSN)
	return old, nil
}

// RestoreNoTail puts back a value removed or replaced on a no-tail table
// (recovery undo).
func (t *Tree) RestoreNoTail(key, old []byte, existed bool, logRec LogFunc) error {
	if logRec == nil {
		logRec = nopLog
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for round := 0; round < maxSplitRounds; round++ {
		path, lf, err := t.descend(key, itime.Max)
		if err != nil {
			return err
		}
		dp := lf.Data()
		if !existed {
			// Undo of a fresh insert: remove.
			_, err = dp.Remove(key)
		} else if _, found, rerr := dp.Replace(key, old); rerr != nil {
			err = rerr
		} else if !found {
			err = dp.Insert(key, old, false, 0)
		}
		if err == nil || !errors.Is(err, page.ErrPageFull) {
			if err == nil {
				lsn, lerr := logRec(dp.ID)
				if lerr == nil && lsn != 0 {
					dp.LSN = lsn
				}
				t.cfg.Pool.MarkDirty(lf, dp.LSN)
				err = lerr
			}
			t.releasePath(path)
			t.cfg.Pool.Release(lf)
			return err
		}
		serr := t.splitLeaf(path, lf)
		t.releasePath(path)
		t.cfg.Pool.Release(lf)
		if serr != nil && !errors.Is(serr, errRetry) {
			return serr
		}
	}
	return fmt.Errorf("tsb: restore of %q did not converge", key)
}

// UndoInsert removes transaction tid's newest (non-timestamped) version of
// key — transaction rollback and ARIES undo.
func (t *Tree) UndoInsert(tid itime.TID, key []byte, logRec LogFunc) error {
	if logRec == nil {
		logRec = nopLog
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	path, lf, err := t.descend(key, itime.Max)
	if err != nil {
		return err
	}
	defer t.cfg.Pool.Release(lf)
	defer t.releasePath(path)
	dp := lf.Data()
	if err := dp.UndoInsert(key, tid); err != nil {
		return err
	}
	lsn, lerr := logRec(dp.ID)
	if lerr != nil {
		return lerr
	}
	if lsn != 0 {
		dp.LSN = lsn
	}
	t.cfg.Pool.MarkDirty(lf, dp.LSN)
	return nil
}

// ApplyInsertRedo re-executes a logged insert against its original page if
// the page has not yet seen the record's LSN (ARIES redo).
func (t *Tree) ApplyInsertRedo(pid page.ID, tid itime.TID, key, value []byte, stub bool, lsn uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := t.cfg.Pool.Fetch(pid)
	if err != nil {
		return err
	}
	defer t.cfg.Pool.Release(f)
	dp := f.Data()
	if dp == nil {
		return fmt.Errorf("tsb: redo target %d is not a data page", pid)
	}
	if dp.LSN >= lsn {
		return nil
	}
	if _, _, _, err := dp.InsertOrReplaceOwn(key, value, stub, tid); err != nil {
		return fmt.Errorf("tsb: redo insert on page %d: %w", pid, err)
	}
	dp.LSN = lsn
	t.cfg.Pool.MarkDirty(f, lsn)
	return nil
}
