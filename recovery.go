package immortaldb

import (
	"errors"
	"fmt"
	"sort"

	"immortaldb/internal/itime"
	"immortaldb/internal/storage/disk"
	"immortaldb/internal/storage/page"
	"immortaldb/internal/tsb"
	"immortaldb/internal/wal"
)

// redoApplier applies the tree-level redo record types — page images,
// structure modifications, catalog snapshots, version inserts, CLRs, eager
// stamps. Crash recovery and a replica's continuous redo share it; the
// difference is concurrency. Recovery runs single-threaded against a closed
// engine, so installs need no locks. Live replica redo runs while the engine
// serves snapshot and AS OF reads, so every multi-page install (an SMO, a
// full-page image) happens under the affected tree's writer lock — a reader
// sees a split fully applied or not at all, never half.
type redoApplier struct {
	db   *DB
	live bool
	// trees is the recovery-mode lazy cache, adopted into db.trees once the
	// scan finishes. Live mode uses db.trees directly (via db.treeByID).
	trees map[uint32]*tsb.Tree
}

func newRecoveryApplier(db *DB) *redoApplier {
	return &redoApplier{db: db, trees: make(map[uint32]*tsb.Tree)}
}

func newLiveApplier(db *DB) *redoApplier {
	return &redoApplier{db: db, live: true}
}

// tornOK filters page-damage errors during redo. A logical redo record can
// land on a page whose last in-place write was torn by the crash (checksum
// failure) or never became durable at all (short file). The write that
// damaged the page logged a later image of it first — an image whose LSN
// covers this record and which, because the damaged write was never
// followed by an fsync (and hence no checkpoint completed after it), lies at
// or after the redo scan start. Skipping the record is therefore safe: the
// image record later in this same scan rebuilds the page with the record's
// effect already applied.
func (a *redoApplier) tornOK(err error) error {
	if errors.Is(err, disk.ErrChecksum) || errors.Is(err, disk.ErrOutOfFile) {
		return nil
	}
	return err
}

func (a *redoApplier) treeFor(tableID uint32) (*tsb.Tree, error) {
	if a.live {
		if t := a.db.treeByID(tableID); t != nil {
			return t, nil
		}
		return nil, fmt.Errorf("redo references unknown table %d", tableID)
	}
	if t, ok := a.trees[tableID]; ok {
		return t, nil
	}
	meta, ok := a.db.cat.ByID(tableID)
	if !ok {
		return nil, fmt.Errorf("redo references unknown table %d", tableID)
	}
	t := a.db.openTree(meta)
	a.trees[tableID] = t
	return t, nil
}

// reloadCatalog installs a logged catalog snapshot and repositions the roots
// of already-open trees, except the one with ID skip (0: none) — a live SMO
// install applies that tree's root move inside its exclusive section instead.
func (a *redoApplier) reloadCatalog(blob []byte, skip uint32) error {
	db := a.db
	if err := db.cat.Load(blob); err != nil {
		return err
	}
	reposition := func(id uint32, t *tsb.Tree) {
		if id == skip {
			return
		}
		if meta, ok := db.cat.ByID(id); ok {
			t.SetRoot(meta.Root, meta.RootIsLeaf)
		}
	}
	if a.live {
		db.mu.Lock()
		open := make(map[uint32]*tsb.Tree, len(db.trees))
		for id, t := range db.trees {
			open[id] = t
		}
		db.mu.Unlock()
		for id, t := range open {
			reposition(id, t)
		}
		return nil
	}
	for id, t := range a.trees {
		reposition(id, t)
	}
	return nil
}

// applySMO installs one structure modification: every page image of the
// record and, when it carries a catalog snapshot, the root move. In live
// mode the affected tree's writer lock spans all of it.
func (a *redoApplier) applySMO(rec *wal.Record) error {
	db := a.db
	install := func() error {
		for i := range rec.Images {
			if err := db.redoImage(rec.Images[i].Page, rec.Images[i].Img, rec.LSN); err != nil {
				return err
			}
		}
		return nil
	}
	if !a.live {
		// Recovery: no concurrent readers, install directly.
		if err := install(); err != nil {
			return err
		}
		if len(rec.Blob) > 0 {
			return a.reloadCatalog(rec.Blob, 0)
		}
		return nil
	}
	var rc *tsb.RootChange
	if len(rec.Blob) > 0 {
		// Load the catalog first so a brand-new table (a create's initial
		// SMO precedes its catalog record) is resolvable, but defer this
		// table's root move into the exclusive section below.
		if err := a.reloadCatalog(rec.Blob, rec.Table); err != nil {
			return err
		}
		if meta, ok := db.cat.ByID(rec.Table); ok {
			rc = &tsb.RootChange{Root: meta.Root, IsLeaf: meta.RootIsLeaf}
		}
	}
	t, err := a.treeFor(rec.Table)
	if err != nil {
		return err
	}
	return t.ApplyExclusive(install, rc)
}

// applyImage installs a full-page image, which the primary logs before each
// in-place page write. The record carries no table, so live mode excludes
// readers of every tree.
func (a *redoApplier) applyImage(rec *wal.Record) error {
	if !a.live {
		return a.db.redoImage(rec.Page, rec.Img, rec.LSN)
	}
	return a.db.withAllTreesExclusive(func() error {
		return a.db.redoImage(rec.Page, rec.Img, rec.LSN)
	})
}

// apply dispatches one tree-level redo record. Transaction bookkeeping
// (commit, abort, checkpoint records) stays with the caller: recovery and
// replica redo differ exactly there.
func (a *redoApplier) apply(rec *wal.Record) error {
	db := a.db
	switch rec.Type {
	case wal.TypePageImage:
		return a.applyImage(rec)
	case wal.TypeSMO:
		// Every image of one structure modification shares this record —
		// and its LSN — so a torn tail replays the whole split or none
		// of it, never a shrunk leaf without the sibling and parent (or
		// root change) that route to its moved keys.
		return a.applySMO(rec)
	case wal.TypeCatalog:
		return a.reloadCatalog(rec.Blob, 0)
	case wal.TypeInsertVersion:
		meta, ok := db.cat.ByID(rec.Table)
		if !ok {
			return fmt.Errorf("redo references unknown table %d", rec.Table)
		}
		t, err := a.treeFor(rec.Table)
		if err != nil {
			return err
		}
		if meta.Versioned() {
			return a.tornOK(t.ApplyInsertRedo(rec.Page, rec.TID, rec.Key, rec.Value, rec.Stub, uint64(rec.LSN)))
		}
		return a.tornOK(t.ApplyNoTailRedo(rec.Page, rec.Key, rec.Value, rec.Stub, uint64(rec.LSN)))
	case wal.TypeCLR:
		meta, ok := db.cat.ByID(rec.Table)
		if !ok {
			return fmt.Errorf("redo references unknown table %d", rec.Table)
		}
		t, err := a.treeFor(rec.Table)
		if err != nil {
			return err
		}
		if meta.Versioned() {
			if rec.Restore {
				return a.tornOK(t.ApplyRestoreOwnRedo(rec.Page, rec.TID, rec.Key, rec.Value, rec.Stub, uint64(rec.LSN)))
			}
			return a.tornOK(t.ApplyUndoRedo(rec.Page, rec.TID, rec.Key, uint64(rec.LSN)))
		}
		// Conventional-table compensation: restore or remove.
		if rec.Stub {
			return a.tornOK(t.ApplyNoTailRedo(rec.Page, rec.Key, nil, true, uint64(rec.LSN)))
		}
		return a.tornOK(t.ApplyNoTailRedo(rec.Page, rec.Key, rec.Value, false, uint64(rec.LSN)))
	case wal.TypeStamp:
		t, err := a.treeFor(rec.Table)
		if err != nil {
			return err
		}
		return a.tornOK(t.ApplyStampRedo(rec.Page, rec.Key, rec.TID, rec.TS, uint64(rec.LSN)))
	case wal.TypeHistRun:
		// Rewrite the run file; the engine fsynced it before the manifest
		// flip, so this is usually a no-op rewrite of identical bytes, and
		// for replicas it is how run files arrive at all.
		return db.hist.ApplyRunRecord(rec.Table, uint64(rec.Page), rec.Blob)
	case wal.TypeHistManifest:
		// Install the carried manifest if newer than the one on disk. Stale
		// replays (redo behind the file state) are no-ops.
		return db.hist.ApplyManifestRecord(rec.Table, rec.Blob)
	}
	return nil
}

// withAllTreesExclusive runs fn holding every open tree's writer lock, in
// table-ID order — live apply of a record that names no table.
func (db *DB) withAllTreesExclusive(fn func() error) error {
	db.mu.Lock()
	ids := make([]uint32, 0, len(db.trees))
	for id := range db.trees {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	trees := make([]*tsb.Tree, len(ids))
	for i, id := range ids {
		trees[i] = db.trees[id]
	}
	db.mu.Unlock()
	var run func(i int) error
	run = func(i int) error {
		if i == len(trees) {
			return fn()
		}
		return trees[i].Exclusive(func() error { return run(i + 1) })
	}
	return run(0)
}

// recover brings the database to a consistent state after open: ARIES-style
// analysis, redo, and undo over the write-ahead log.
//
// Two Immortal DB specifics (Section 2.2) shape the redo pass:
//
//   - Commit records carry the transaction timestamp, so the Persistent
//     Timestamp Table entry is re-created if the crash lost it — lazy
//     timestamping itself was never logged and simply re-runs after restart.
//   - Volatile reference counts are gone; restored entries get an undefined
//     count and are never garbage collected ("we simply end up with certain
//     PTT entries that cannot be deleted" — the accepted cost).
//
// On a replica (db.replica) the undo pass is skipped entirely: transactions
// still open at the scan's end are the primary's in-flight writers, whose
// fates arrive with the rest of the shipped stream — and a replica never
// appends to its log copy.
func (db *DB) recover() error {
	ckptLSN := db.log.Checkpoint()
	var ck *wal.Checkpoint
	if ckptLSN != 0 {
		rec, err := db.log.ReadAt(ckptLSN)
		if err != nil {
			return fmt.Errorf("read checkpoint: %w", err)
		}
		ck, err = wal.UnmarshalCheckpoint(rec.Blob)
		if err != nil {
			return err
		}
		db.tids.Bump(ck.NextTID - 1)
		db.seq.Reset(ck.LastTS)
		db.epoch.Store(ck.Epoch)
	}

	// --- Analysis + Redo in one forward pass ---
	redoStart := wal.FirstLSN
	att := make(map[itime.TID]wal.LSN) // active transactions -> last LSN
	if ck != nil {
		redoStart = ck.RedoScanStart(ckptLSN)
		for _, t := range ck.ActiveTxns {
			att[t.TID] = t.LastLSN
		}
	}

	a := newRecoveryApplier(db)
	err := db.log.Scan(redoStart, func(rec *wal.Record) error {
		if rec.TID != 0 {
			att[rec.TID] = rec.LSN
			db.tids.Bump(rec.TID)
		}
		switch rec.Type {
		case wal.TypeCommit:
			delete(att, rec.TID)
			db.seq.Reset(rec.TS)
			return db.stamp.RestoreCommitted(rec.TID, rec.TS, rec.HasTT)
		case wal.TypeAbort:
			delete(att, rec.TID)
			return nil
		case wal.TypeCheckpoint:
			return nil
		case wal.TypePromote:
			// Restore the promotion epoch; the forward scan makes the newest
			// record win. Page state is untouched — the record exists to fence
			// the deposed primary's TID/LSN space, not to change data.
			db.epoch.Store(rec.Epoch)
			return nil
		default:
			return a.apply(rec)
		}
	})
	if err != nil {
		return err
	}

	// Redo republished every durable commit, so the visibility watermark
	// starts at the last issued timestamp. Set before undo: a page split
	// during undo takes its time boundary from the watermark.
	last := db.seq.Last()
	db.visible.Store(&last)

	// Adopt the redo trees so undo (and later opens) share them.
	db.mu.Lock()
	for id, t := range a.trees {
		db.trees[id] = t
	}
	db.mu.Unlock()

	if db.replica.Load() {
		// Replica: continuous redo resumes where this scan ended.
		db.appliedLSN.Store(uint64(db.log.End()))
		return nil
	}

	// --- Undo losers ---
	// Undo in TID order: rollback appends CLRs and may evict pages, so the
	// I/O it causes must be a deterministic function of the log contents for
	// crash-matrix replay.
	losers := make([]itime.TID, 0, len(att))
	for tid := range att {
		losers = append(losers, tid)
	}
	sort.Slice(losers, func(i, j int) bool { return losers[i] < losers[j] })
	for _, tid := range losers {
		lastLSN := att[tid]
		if err := db.undoTx(tid, lastLSN); err != nil {
			return fmt.Errorf("undo of transaction %d: %w", tid, err)
		}
		if _, err := db.log.Append(&wal.Record{Type: wal.TypeAbort, TID: tid, PrevLSN: lastLSN}); err != nil {
			return err
		}
	}
	return db.log.Flush()
}

// redoImage installs a logged page after-image if the on-disk page has not
// yet seen it. Pages allocated after the last durable allocator state are
// re-extended first.
func (db *DB) redoImage(id page.ID, image []byte, lsn wal.LSN) error {
	// Make the page addressable: allocations lost in the crash re-extend the
	// file here.
	for page.ID(db.pager.NumPages()) <= id {
		if _, err := db.pager.Allocate(); err != nil {
			return err
		}
	}
	// Compare LSNs. A page that never reached disk (or is torn) just takes
	// the image.
	cur, err := db.pager.ReadPage(id)
	if err == nil {
		if cl, ok := page.ImageLSN(cur); ok && cl >= uint64(lsn) {
			return nil
		}
	} else if !errors.Is(err, disk.ErrChecksum) && !errors.Is(err, disk.ErrOutOfFile) {
		return err
	}
	// Drop any stale cached copy, then write the image through.
	if err := db.pool.Drop(id); err != nil {
		return err
	}
	img := make([]byte, db.pager.PageSize())
	copy(img, image)
	return db.pager.WritePage(id, img)
}
