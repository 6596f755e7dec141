package immortaldb

import (
	"errors"
	"fmt"
	"path/filepath"

	"immortaldb/internal/cow"
	"immortaldb/internal/itime"
	"immortaldb/internal/obs"
	"immortaldb/internal/stamp"
	"immortaldb/internal/storage/disk"
	"immortaldb/internal/storage/page"
	"immortaldb/internal/storage/vfs"
	"immortaldb/internal/wal"
)

// Replica support: a follower holds a byte-identical copy of the primary's
// WAL (grown via wal.IngestChunk) and runs continuous redo over it —
// the same redo logic as crash recovery, executed live while the engine
// serves snapshot and AS OF reads at the replication horizon. Because the
// log copy is an exact byte prefix of the primary's, follower crash recovery
// is ordinary recovery, and catch-up after any interruption just resumes
// ingesting at the copy's end.

var obsReplApplied = obs.NewCounter("immortaldb_replica_records_applied_total", "Log records applied by replica continuous redo.")

// OpenReplica opens a database directory holding a replica's log copy and
// page state, recovers it to the horizon its local log supports, and starts
// serving reads. The returned DB accepts Begin/BeginAsOf (reads at or below
// the horizon) and refuses every write with ErrReplica; feed it the
// primary's log with Log().IngestChunk and advance the horizon with
// ReplicaApply.
func OpenReplica(dir string, opts *Options) (*DB, error) {
	return openDB(dir, opts, true)
}

// IsReplica reports whether the database currently serves as a read replica —
// opened with OpenReplica and not yet promoted, or a primary demoted by
// PromoteToFollower.
func (db *DB) IsReplica() bool { return db.replica.Load() }

// Epoch returns the promotion epoch: 0 for a database that never failed over,
// otherwise the epoch of the newest promotion recorded in its log.
func (db *DB) Epoch() uint64 { return db.epoch.Load() }

// Log exposes the write-ahead log for replication plumbing: ShipRead on a
// primary, IngestChunk/SyncIngested on a replica. Misusing it on a live
// primary can corrupt the database; the repl package is its only intended
// caller.
func (db *DB) Log() *wal.Log { return db.log }

// ReplicaHorizon is a replica's replication horizon: the log position and
// visibility watermark through which the local state is complete.
type ReplicaHorizon struct {
	// AppliedLSN is the end LSN of the last fully applied log record.
	AppliedLSN uint64
	// MaxVisible is the newest commit timestamp the replica serves:
	// snapshot reads begin here, AS OF reads must be at or below it.
	MaxVisible Timestamp
}

// Horizon returns the replica's current replication horizon.
func (db *DB) Horizon() ReplicaHorizon {
	return ReplicaHorizon{
		AppliedLSN: db.appliedLSN.Load(),
		MaxVisible: db.visibleTS(),
	}
}

// errPauseApply stops a bounded ReplicaApply scan between records.
var errPauseApply = errors.New("immortaldb: replica apply pause")

// ReplicaApply runs continuous redo over the ingested log from the current
// horizon, applying at most limit records (0: everything ingested so far),
// and returns how many were applied. Commit records atomically publish
// their transaction's visibility; the primary's checkpoint records drive a
// local checkpoint so follower recovery stays bounded. Safe to call
// repeatedly and concurrently with reads; calls serialize among themselves.
func (db *DB) ReplicaApply(limit int) (int, error) {
	if !db.replica.Load() {
		return 0, fmt.Errorf("immortaldb: ReplicaApply on a primary")
	}
	db.replayMu.Lock()
	defer db.replayMu.Unlock()
	return db.replicaApplyLocked(limit)
}

// replicaApplyLocked is ReplicaApply's body; callers hold replayMu. Promote
// uses it directly to drain redo to the ingested end with the lock already
// held, so no records can slip in between the final drain and the log seal.
func (db *DB) replicaApplyLocked(limit int) (int, error) {
	db.mu.Lock()
	closed := db.closed || db.draining
	db.mu.Unlock()
	if closed {
		return 0, ErrClosed
	}
	if err := db.Degraded(); err != nil {
		return 0, err
	}
	applied := 0
	from := wal.LSN(db.appliedLSN.Load())
	err := db.log.ScanComplete(from, func(rec *wal.Record) error {
		if err := db.applyReplicated(rec); err != nil {
			return err
		}
		applied++
		db.appliedLSN.Store(uint64(rec.EndLSN()))
		obsReplApplied.Inc()
		if limit > 0 && applied >= limit {
			return errPauseApply
		}
		return nil
	})
	if errors.Is(err, errPauseApply) {
		err = nil
	}
	if err != nil {
		db.degradeIf(err)
	}
	return applied, err
}

// applyReplicated applies one shipped record. Callers hold replayMu.
func (db *DB) applyReplicated(rec *wal.Record) error {
	if rec.TID != 0 {
		db.tids.Bump(rec.TID)
	}
	switch rec.Type {
	case wal.TypePromote:
		// The upstream primary is itself a promoted survivor; adopt its epoch
		// so this follower refuses any lower-epoch zombie that comes calling.
		db.epoch.Store(rec.Epoch)
		return nil
	case wal.TypeCommit:
		// Publish the mapping first, then flip visibility: a snapshot begun
		// between the two reads the old watermark and cannot see this
		// transaction's versions (its timestamp postdates the watermark), so
		// the commit appears atomically — never half.
		if err := db.stamp.RestoreCommitted(rec.TID, rec.TS, rec.HasTT); err != nil {
			return err
		}
		db.seq.Reset(rec.TS)
		db.advanceVisible(rec.TS)
		return nil
	case wal.TypeAbort:
		return nil
	case wal.TypeCheckpoint:
		return db.replicaCheckpoint(rec)
	default:
		return db.replayer.apply(rec)
	}
}

// replicaCheckpoint mirrors a primary checkpoint on the replica: harden
// everything the record covers, then move the local checkpoint pointer to
// the record so the next recovery scan starts there. Ordering matters — the
// ingested log must be durable before the PTT mappings derived from it, and
// all pages must be down before the pointer moves (the primary's own
// flush-before-checkpoint discipline).
func (db *DB) replicaCheckpoint(rec *wal.Record) error {
	ck, err := wal.UnmarshalCheckpoint(rec.Blob)
	if err != nil {
		return err
	}
	if err := db.log.SyncIngested(); err != nil {
		return err
	}
	if err := db.hardenForCheckpoint(); err != nil {
		return err
	}
	// A replica has no local transactions to undo and no base snapshots
	// (NewBaseSnapshot refuses on one), so nothing holds the truncation
	// bound below the redo scan start.
	redoStart := ck.RedoScanStart(rec.LSN)
	return db.installCheckpoint(rec.LSN, redoStart, redoStart)
}

// Promote flips a replica to a read-write primary: continuous redo finishes
// to the ingested end, the log copy is sealed at its last complete record
// (the fence — a half-shipped record from the dead primary is cut away), and
// a TypePromote record carrying the new monotonic epoch and the fence LSN is
// appended and made durable BEFORE any write can be accepted. The epoch
// fences the deposed primary: a zombie that comes back can never have acked a
// commit this timeline lacks, because its own commit path refuses once it is
// demoted (PromoteToFollower) and its unshipped log suffix was cut at the
// fence. TIDs continue above everything replicated (each shipped record
// bumped the allocator), so the new primary's transactions are disjoint from
// the old one's.
//
// Returns the new epoch. Promoting a primary is a typed no-op error,
// ErrNotReplica — a supervisor retrying promotion learns the node already
// serves writes. Background history compaction (Options.HistCompactEvery)
// starts on the next reopen, not at promotion.
func (db *DB) Promote() (uint64, error) {
	if !db.replica.Load() {
		return 0, ErrNotReplica
	}
	db.replayMu.Lock()
	db.mu.Lock()
	closed := db.closed || db.draining
	db.mu.Unlock()
	if closed {
		db.replayMu.Unlock()
		return 0, ErrClosed
	}
	// Bounded redo to the ingested end: every complete record already shipped
	// is applied, so the fence equals the applied horizon and nothing sealed
	// into the log is missing from page state.
	if _, err := db.replicaApplyLocked(0); err != nil {
		db.replayMu.Unlock()
		return 0, err
	}
	if err := db.Degraded(); err != nil {
		db.replayMu.Unlock()
		return 0, err
	}
	fence, err := db.log.Promote(wal.LSN(db.appliedLSN.Load()))
	if err != nil {
		db.degradeIf(err)
		db.replayMu.Unlock()
		return 0, err
	}
	db.appliedLSN.Store(uint64(fence))
	// Arm the ENOSPC low-water gate before appends become possible — the
	// open-path step a replica skipped. Safe here: the replica flag still
	// refuses writers, so no Append races this field write.
	db.log.LowWater = db.opts.WALLowWater
	epoch := db.epoch.Load() + 1
	lsn, err := db.log.Append(&wal.Record{Type: wal.TypePromote, Epoch: epoch, Fence: fence})
	if err != nil {
		db.degradeIf(err)
		db.replayMu.Unlock()
		return 0, err
	}
	if err := db.log.SyncTo(lsn); err != nil {
		// The promotion never became durable; the node stays a replica.
		db.degradeIf(err)
		db.replayMu.Unlock()
		return 0, err
	}
	db.epoch.Store(epoch)
	db.replica.Store(false)
	db.replayMu.Unlock()
	// The promotion checkpoint bounds the next recovery and reclaims shipped
	// segments; failure here does not undo the promotion — the record is
	// durable — so the epoch is returned alongside the error.
	if err := db.Checkpoint(); err != nil {
		return epoch, err
	}
	return epoch, nil
}

// PromoteToFollower demotes a primary to a read replica — the fencing half of
// a handover applied to the deposed node. Under commitMu, so it linearizes
// against in-flight commits: a transaction whose commit record was already
// appended committed before the fence; one that arrives after observes the
// replica flag, is refused (ErrReplica, its updates compensated), and is
// never acked — the zombie-primary guarantee. The node serves reads at its
// final state; rejoining the cluster as a live follower requires a reseed
// from the new primary (its unshipped log suffix diverges from the
// survivor's timeline).
//
// Demoting a node that is already a replica returns ErrReplica.
func (db *DB) PromoteToFollower() error {
	if db.replica.Load() {
		return ErrReplica
	}
	db.commitMu.Lock()
	db.replica.Store(true)
	db.commitMu.Unlock()
	// A deposed primary never had a live applier; give it one so ReplicaApply
	// works if the node is later fed a stream again (after a reseed).
	db.replayMu.Lock()
	if db.replayer == nil {
		db.replayer = newLiveApplier(db)
	}
	db.replayMu.Unlock()
	return nil
}

// ---------------------------------------------------------------------------
// Base snapshots: seeding a follower that cannot catch up from the log alone
// (its position fell below the primary's first retained segment).

// PTTEntry is one persistent-timestamp-table mapping carried by a base
// snapshot.
type PTTEntry struct {
	TID TID
	TS  Timestamp
}

// BaseSnapshot is a transferable image of a primary: the page file, catalog
// meta, timestamp table, and the log position a follower must ingest from.
// It is fuzzy in the standard way — pages keep changing while they are read
// — and made consistent by the log suffix from LogStart, which redo replays
// over the installed copy (page-LSN idempotence skips what the copy already
// reflects). While the snapshot is open, checkpoint truncation is pinned at
// LogStart so that suffix cannot disappear mid-transfer; Close releases the
// pin.
type BaseSnapshot struct {
	db      *DB
	floorID uint64

	// CkptLSN is the primary checkpoint record the snapshot hardens; the
	// follower sets its local checkpoint pointer here once it has ingested
	// past it.
	CkptLSN uint64
	// LogStart is the first retained LSN — always a segment boundary — and
	// StartSeq its segment's sequence number: the coordinates the follower's
	// fresh log is re-rooted at.
	LogStart uint64
	StartSeq uint64
	PageSize int
	// NumPages is the page-file length at snapshot time; pages allocated
	// later are re-created by redo of their image records.
	NumPages uint64
	Meta     []byte
	PTT      []PTTEntry
}

// NewBaseSnapshot checkpoints the primary and opens a base snapshot at the
// result. The caller must Close it.
func (db *DB) NewBaseSnapshot() (*BaseSnapshot, error) {
	if db.replica.Load() {
		return nil, ErrReplica
	}
	// The checkpoint bounds the log suffix a follower needs: everything
	// before its redo scan start is reflected in the page file and PTT
	// copied below.
	if err := db.Checkpoint(); err != nil {
		return nil, err
	}
	b := &BaseSnapshot{db: db, PageSize: db.pager.PageSize()}
	// Register the truncation floor under retainMu so no concurrent
	// checkpoint can reclaim the suffix between reading the start position
	// and pinning it.
	db.retainMu.Lock()
	db.retainNext++
	b.floorID = db.retainNext
	b.LogStart = uint64(db.log.FirstRetained())
	db.retainFloors[b.floorID] = wal.LSN(b.LogStart)
	db.retainMu.Unlock()
	seq, _, err := db.log.SegmentStart(wal.LSN(b.LogStart))
	if err != nil {
		b.Close()
		return nil, err
	}
	b.StartSeq = seq
	b.CkptLSN = uint64(db.log.Checkpoint())
	b.NumPages = db.pager.NumPages()
	b.Meta = append([]byte(nil), db.pager.GetMeta()...)
	err = db.stamp.ExportPTT(func(tid itime.TID, ts itime.Timestamp) bool {
		b.PTT = append(b.PTT, PTTEntry{TID: tid, TS: ts})
		return true
	})
	if err != nil {
		b.Close()
		return nil, err
	}
	return b, nil
}

// Pages streams every data page of the snapshot. The images are current —
// possibly newer than the checkpoint — which redo's page-LSN check absorbs.
func (b *BaseSnapshot) Pages(fn func(id uint64, img []byte) error) error {
	for id := uint64(disk.FirstDataPage); id < b.NumPages; id++ {
		img, err := b.Page(id)
		if err != nil {
			return err
		}
		if err := fn(id, img); err != nil {
			return err
		}
	}
	return nil
}

// FirstPage is the first data page ID a base snapshot transfers; Page is
// valid for FirstPage <= id < NumPages. The shipper uses the pair to stream
// pages incrementally, one pull at a time, instead of materializing the
// whole page file.
func (b *BaseSnapshot) FirstPage() uint64 { return uint64(disk.FirstDataPage) }

// Page reads one data page of the snapshot.
func (b *BaseSnapshot) Page(id uint64) ([]byte, error) {
	img, err := b.db.pager.ReadPage(page.ID(id))
	if err != nil {
		return nil, fmt.Errorf("immortaldb: base snapshot page %d: %w", id, err)
	}
	return img, nil
}

// Close releases the snapshot's truncation pin.
func (b *BaseSnapshot) Close() {
	b.db.retainMu.Lock()
	delete(b.db.retainFloors, b.floorID)
	b.db.retainMu.Unlock()
}

// BaseInstaller rebuilds a follower directory from a primary's base
// snapshot. Usage, in order: InstallBase, WritePage for every streamed page,
// PutPTT for every mapping, StartLog, Ingest until past the snapshot's
// CkptLSN, Finish, then OpenReplica on the directory.
type BaseInstaller struct {
	fsys  vfs.FS
	dir   string
	pager *disk.Pager
	ptt   *cow.Tree
	log   *wal.Log
}

// InstallBase wipes any previous database files in dir and starts a fresh
// install sized to the snapshot's page geometry.
func InstallBase(dir string, opts *Options, pageSize int, numPages uint64, meta []byte) (*BaseInstaller, error) {
	o := opts.withDefaults()
	// A half-synced previous copy must not shine through the new one.
	if err := WipeDir(dir, &o); err != nil {
		return nil, err
	}
	pager, err := disk.OpenFS(o.FS, filepath.Join(dir, pagesFile), pageSize)
	if err != nil {
		return nil, err
	}
	bi := &BaseInstaller{fsys: o.FS, dir: dir, pager: pager}
	if err := pager.SetMeta(meta); err != nil {
		bi.Abort()
		return nil, err
	}
	for pager.NumPages() < numPages {
		if _, err := pager.Allocate(); err != nil {
			bi.Abort()
			return nil, err
		}
	}
	ptt, err := cow.Open(filepath.Join(dir, pttFile), cow.Options{
		ValSize: stamp.PTTValueLen,
		NoSync:  o.NoSync,
		FS:      o.FS,
	})
	if err != nil {
		bi.Abort()
		return nil, err
	}
	bi.ptt = ptt
	return bi, nil
}

// WritePage installs one streamed page image.
func (bi *BaseInstaller) WritePage(id uint64, img []byte) error {
	return bi.pager.WritePage(page.ID(id), img)
}

// PutPTT installs one timestamp-table mapping.
func (bi *BaseInstaller) PutPTT(e PTTEntry) error {
	buf := make([]byte, itime.EncodedLen)
	e.TS.Encode(buf)
	return bi.ptt.Put(uint64(e.TID), buf)
}

// StartLog creates the local log copy re-rooted at the snapshot's start
// coordinates; Ingest then appends the primary's suffix to it.
func (bi *BaseInstaller) StartLog(startSeq, logStart uint64) error {
	if bi.log != nil {
		return fmt.Errorf("immortaldb: log already started")
	}
	log, err := wal.OpenFS(bi.fsys, filepath.Join(bi.dir, walFile))
	if err != nil {
		return err
	}
	if err := log.ResetIngest(startSeq, wal.LSN(logStart)); err != nil {
		log.Close()
		return err
	}
	bi.log = log
	return nil
}

// Ingest appends one shipped chunk to the installing log copy.
func (bi *BaseInstaller) Ingest(ch wal.ShipChunk) error {
	if bi.log == nil {
		return fmt.Errorf("immortaldb: Ingest before StartLog")
	}
	return bi.log.IngestChunk(ch)
}

// End returns the current end of the installing log copy.
func (bi *BaseInstaller) End() uint64 {
	if bi.log == nil {
		return 0
	}
	return uint64(bi.log.End())
}

// Finish hardens the install and closes its files; the directory is then
// ready for OpenReplica. The log must have been ingested past the
// snapshot's checkpoint record — the local checkpoint pointer is set there,
// and recovery must be able to read the record it points at.
func (bi *BaseInstaller) Finish(ckptLSN uint64) error {
	if bi.log == nil {
		return fmt.Errorf("immortaldb: Finish before StartLog")
	}
	if wal.LSN(ckptLSN) >= bi.log.End() {
		return fmt.Errorf("immortaldb: log ingested only to %d, checkpoint record at %d not covered", bi.log.End(), ckptLSN)
	}
	if err := bi.ptt.Commit(); err != nil {
		return err
	}
	if err := bi.log.SyncIngested(); err != nil {
		return err
	}
	if err := bi.log.SetCheckpoint(wal.LSN(ckptLSN)); err != nil {
		return err
	}
	if err := bi.pager.Sync(); err != nil {
		return err
	}
	var err error
	if e := bi.ptt.Close(); e != nil {
		err = e
	}
	if e := bi.log.Close(); e != nil && err == nil {
		err = e
	}
	if e := bi.pager.Close(); e != nil && err == nil {
		err = e
	}
	bi.log, bi.ptt, bi.pager = nil, nil, nil
	return err
}

// Abort closes the installer's files without finishing; the directory is
// left in an unusable, partially-installed state and a retry starts with a
// fresh InstallBase (which wipes it).
func (bi *BaseInstaller) Abort() {
	if bi.ptt != nil {
		bi.ptt.CloseNoCommit()
		bi.ptt = nil
	}
	if bi.log != nil {
		bi.log.Close()
		bi.log = nil
	}
	if bi.pager != nil {
		bi.pager.Close()
		bi.pager = nil
	}
}
