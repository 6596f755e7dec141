// Package immortaldb is a from-scratch Go implementation of Immortal DB
// (Lomet et al., "Transaction Time Support Inside a Database Engine", ICDE
// 2006): an embedded storage engine with transaction-time support built in.
//
// Updates never remove information: every insert, update and delete adds a
// new record version, timestamped lazily with its transaction's commit time,
// and stored in a time-split B-tree that integrates current and historical
// data. The engine supports serializable transactions (fine-grained
// locking), snapshot isolation, and read-only AS OF transactions over any
// past state of immortal tables.
//
//	db, _ := immortaldb.Open(dir, nil)
//	tbl, _ := db.CreateTable("accounts", immortaldb.TableOptions{Immortal: true})
//	tx, _ := db.Begin(immortaldb.Serializable)
//	tx.Set(tbl, []byte("alice"), []byte("100"))
//	tx.Commit()
//	...
//	old, _ := db.BeginAsOf(yesterday)
//	balance, ok, _ := old.Get(tbl, []byte("alice"))
package immortaldb

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"immortaldb/internal/buffer"
	"immortaldb/internal/catalog"
	"immortaldb/internal/cow"
	"immortaldb/internal/hist"
	"immortaldb/internal/itime"
	"immortaldb/internal/lock"
	"immortaldb/internal/obs"
	"immortaldb/internal/stamp"
	"immortaldb/internal/storage/disk"
	"immortaldb/internal/storage/page"
	"immortaldb/internal/storage/vfs"
	"immortaldb/internal/tsb"
	"immortaldb/internal/wal"
)

// Observability: end-to-end commit and checkpoint latency, plus lazy
// stamping split by trigger — the paper's two stamping opportunities (flush
// of a dirty page vs. ordinary access to a page with unstamped versions).
var (
	obsCommitLat    = obs.NewHistogram("immortaldb_commit_seconds", "End-to-end latency of a writing transaction's Commit, including the durability fsync.", obs.LatencyBuckets)
	obsCkptLat      = obs.NewHistogram("immortaldb_checkpoint_seconds", "Latency of one checkpoint (PTT sync, flush-all, checkpoint record, PTT GC).", obs.LatencyBuckets)
	obsStampFlush   = obs.NewCounter("immortaldb_stamp_flush_triggered_total", "Record versions stamped because their dirty page was being flushed.")
	obsStampAccess  = obs.NewCounter("immortaldb_stamp_access_triggered_total", "Record versions stamped when a tree access visited their page.")
	obsCkptTruncErr = obs.NewCounter("immortaldb_checkpoint_truncate_errors_total", "Failed attempts to delete dead WAL segments at a checkpoint (best-effort).")
)

// Timestamp is the transaction timestamp type: an 8-byte wall-clock value
// with 20 ms resolution extended by a 4-byte sequence number (Figure 1b of
// the paper).
type Timestamp = itime.Timestamp

// TID identifies a transaction.
type TID = itime.TID

// IndexMode selects how historical versions are reached.
type IndexMode int

// Historical index modes.
const (
	// IndexChain walks history page chains from the current page — the
	// configuration the paper measures in Section 5.
	IndexChain IndexMode = IndexMode(tsb.ModeChain)
	// IndexTSB posts time-split B-tree index entries for history pages,
	// the paper's Section 3.4 / future-work configuration.
	IndexTSB IndexMode = IndexMode(tsb.ModeTSB)
)

// indexModeNames are the modes as a table's catalog entry records them.
var indexModeNames = [...]string{IndexChain: "chain", IndexTSB: "tsb"}

// indexMode is the historical index mode t was created in. A catalog entry
// written before the mode was recorded opens in Ablation.HistoricalIndex.
func (db *DB) indexMode(t *catalog.Table) tsb.Mode {
	for m, name := range indexModeNames {
		if t.HistIndex == name {
			return tsb.Mode(m)
		}
	}
	return tsb.Mode(db.opts.Ablation.HistoricalIndex)
}

// Options configure Open. The zero value (or nil) gives an 8 KB-page,
// chain-indexed, lazily-timestamped engine with durable commits.
type Options struct {
	// PageSize in bytes (default 8192, the paper's page size).
	PageSize int
	// CacheFrames is the buffer pool capacity in pages (default 1024).
	CacheFrames int
	// NoSync disables fsync on commit (log and timestamp table). The
	// default (false) gives durable commits; benchmarks set it to measure
	// engine CPU and buffer behaviour rather than disk latency.
	NoSync bool
	// Clock is the engine's one clock: commit timestamps draw its 20 ms
	// wall ticks, and lock waits, the group-commit window, the history
	// compactor and Close's drain all wait on it. nil uses itime.Real(), the
	// OS clock; an itime.SimClock runs the engine on virtual time.
	Clock itime.Timeline
	// CheckpointEveryN takes an automatic checkpoint every N committed
	// transactions (0 disables; checkpoints can always be taken manually).
	CheckpointEveryN int
	// CommitEvery bounds how long a group-commit leader waits before
	// syncing, letting more committers join its batch at the cost of added
	// commit latency (0, the default, syncs immediately). Concurrent
	// committers that reach the fsync together always share a single one.
	CommitEvery time.Duration
	// LockTimeout bounds lock waits (default 10s).
	LockTimeout time.Duration
	// FS is the engine's one disk: the page file, the log, the timestamp
	// table and the cold-tier history runs all live on it, and so do the
	// databases RestoreAsOf and ExportAsOf create. nil uses vfs.OS(), the
	// real filesystem, which creates a missing directory on first write;
	// vfs.NewSim runs the engine on a simulated, fault-injecting disk.
	FS vfs.FS
	// DrainTimeout bounds how long Close waits for in-flight transaction
	// operations (a commit mid-fsync, a scan mid-page) to finish before
	// closing the files out from under them (default 15s). Transactions
	// still open once operations drain are rolled back on their owners'
	// behalf; their next call returns ErrAborted.
	DrainTimeout time.Duration
	// WALSegmentSize caps each log segment file (default 16 MB). Rotation
	// preallocates the next segment, so an out-of-space disk fails a commit
	// cleanly at segment-extend time instead of tearing a half-written
	// record. Small values are useful in tests to exercise rotation.
	WALSegmentSize int64
	// WALLowWater is extra free space (beyond the next segment itself) that
	// must be available for rotation to proceed; below it the rotation fails
	// with ENOSPC while the disk still has headroom for checkpoint writes
	// and the PTT, letting the engine degrade cleanly rather than wedge.
	// Effective only on filesystems that report free space (vfs.FreeSpacer).
	WALLowWater int64
	// RetainWAL keeps every log segment forever: checkpoints stop reclaiming
	// dead segments, so the chain reaches back to the database's creation
	// and RestoreAsOf can rebuild the state at any past timestamp. The cost
	// is unbounded log growth.
	RetainWAL bool
	// TieredHistory migrates history pages of immortal chain-indexed tables
	// into the cold tier: compacted, prefix/delta-compressed immutable run
	// files (CompactHistory, and the background compactor when
	// HistCompactEvery is set). Reads spanning the hot/cold boundary are
	// transparent either way — the cold tier is always consulted when a
	// history chain ends without covering the requested time — so the option
	// gates only whether new migrations happen. Requires IndexChain.
	TieredHistory bool
	// Retention drops historical versions older than now-Retention during
	// history compaction: for each key, versions strictly older than the
	// newest version at or before the horizon are vacuumed from merged runs.
	// 0 keeps everything forever (the immortal default). Effective only with
	// TieredHistory.
	Retention time.Duration
	// HistCompactEvery runs the background history compactor at this
	// interval (a time split also kicks it early). 0 disables the goroutine;
	// CompactHistory can always be called manually — crash and chaos tests
	// rely on that for determinism. Effective only with TieredHistory.
	HistCompactEvery time.Duration
	// Ablation holds the design alternatives the paper measures and rejects.
	// Production callers leave it zero.
	Ablation Ablation
}

// Ablation selects the paper's rejected or deferred design alternatives, so
// that its experiments can be reproduced. None is a deployment setting: the
// zero value is the paper's chosen design, and only the engine's own tests
// and internal/repro set a field (TestAblationsStayFenced).
type Ablation struct {
	// EagerTimestamping stamps versions at commit, with logging, instead of
	// lazily (ablation A1 — the alternative Section 2.2 argues against).
	EagerTimestamping bool
	// DisablePTTGC turns off incremental timestamp-table garbage collection
	// (ablation A3, Section 2.2).
	DisablePTTGC bool
	// HistoricalIndex selects IndexChain (default) or IndexTSB for tables
	// created from now on (Sections 3.4 and 5.2). A table's catalog entry
	// records its mode, so a reopen under a different setting still reads it
	// in its own.
	HistoricalIndex IndexMode
	// Threshold is the key-split threshold T (default 0.70, Section 3.3): a
	// page still fuller than T of its size after a time split is key-split
	// too.
	Threshold float64
}

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.PageSize == 0 {
		out.PageSize = page.DefaultSize
	}
	if out.CacheFrames == 0 {
		out.CacheFrames = 1024
	}
	if out.Ablation.Threshold == 0 {
		out.Ablation.Threshold = tsb.DefaultThreshold
	}
	if out.Clock == nil {
		out.Clock = itime.Real()
	}
	if out.FS == nil {
		out.FS = vfs.OS()
	}
	return out
}

// WipeDir removes every file of the database directory dir from opts.FS (nil
// opts or FS: the real disk). Files beside dir whose names merely start with
// it, such as dir2/x or dirfile, are left alone.
func WipeDir(dir string, opts *Options) error {
	fsys := opts.withDefaults().FS
	names, err := dirFiles(fsys, dir)
	if err != nil {
		return fmt.Errorf("immortaldb: list %s: %w", dir, err)
	}
	for _, name := range names {
		if err := fsys.Remove(name); err != nil {
			return fmt.Errorf("immortaldb: wipe %s: %w", name, err)
		}
	}
	return nil
}

// dirFiles lists the files in directory dir. List takes a file-name prefix,
// so the trailing separator matters: without it dir's siblings that share its
// name as a prefix (dir2/..., dirfile) match too. The directory is cleaned the
// way filepath.Join cleans the engine's own file names, or "./dir" would match
// none of them.
func dirFiles(fsys vfs.FS, dir string) ([]string, error) {
	return fsys.List(filepath.Clean(dir) + string(filepath.Separator))
}

// DefaultDrainTimeout is Options.DrainTimeout's default.
const DefaultDrainTimeout = 15 * time.Second

// Errors returned by the engine.
var (
	ErrClosed        = errors.New("immortaldb: database closed")
	ErrShuttingDown  = errors.New("immortaldb: database shutting down")
	ErrAborted       = errors.New("immortaldb: transaction aborted by shutdown")
	ErrTxDone        = errors.New("immortaldb: transaction already finished")
	ErrReadOnly      = errors.New("immortaldb: read-only (AS OF) transaction")
	ErrWriteConflict = errors.New("immortaldb: snapshot write conflict (first committer wins)")
	ErrNotImmortal   = errors.New("immortaldb: table does not keep persistent versions")
	ErrEmptyKey      = errors.New("immortaldb: empty key")
	ErrNoHistory     = errors.New("immortaldb: time predates table history")
	// ErrDegraded reports that a write-path I/O failure (ENOSPC, EIO, a
	// failed fsync) moved the engine to read-only-degraded. Reads keep being
	// served from clean state; every write entry point fails with this error,
	// which is not retryable in-process — close and reopen the database so
	// recovery can rebuild trustworthy state from the log. Inspect the cause
	// with DB.Degraded.
	ErrDegraded = errors.New("immortaldb: degraded to read-only by I/O failure, reopen required")
	// ErrReplica reports a write attempted on a read replica. Replicas apply
	// the primary's shipped log and serve reads at the replication horizon;
	// every mutation must go to the primary.
	ErrReplica = errors.New("immortaldb: read-only replica, writes must go to the primary")
	// ErrBeyondHorizon reports an AS OF time later than a replica's
	// replication horizon: the state at that time is not yet fully applied,
	// so serving the read could expose a torn view. Retry once the horizon
	// advances past the requested time, or read on the primary.
	ErrBeyondHorizon = errors.New("immortaldb: AS OF time beyond replication horizon")
	// ErrNotReplica reports Promote on a database that is already a primary —
	// a typed no-op, so a supervisor retrying a promotion is told the node is
	// already serving writes rather than fed a spurious failure.
	ErrNotReplica = errors.New("immortaldb: already a primary, promotion is a no-op")
)

// Table is a handle to one table.
type Table struct {
	meta *catalog.Table
	tree *tsb.Tree
}

// Name returns the table name.
func (t *Table) Name() string { return t.meta.Name }

// Immortal reports whether the table keeps persistent versions.
func (t *Table) Immortal() bool { return t.meta.Immortal }

// TableOptions configure CreateTable.
type TableOptions struct {
	// Immortal makes the table transaction-time: versions persist forever
	// and AS OF queries work (CREATE IMMORTAL TABLE).
	Immortal bool
	// Snapshot keeps recent versions for snapshot isolation on a
	// conventional table (ALTER TABLE ... ENABLE SNAPSHOT). Implied by
	// Immortal.
	Snapshot bool
	// Columns optionally records a schema for the SQL layer.
	Columns []catalog.Column
}

// DB is an Immortal DB database: one page file, one write-ahead log, and one
// persistent timestamp table under a directory.
type DB struct {
	opts Options
	dir  string

	pager *disk.Pager
	pool  *buffer.Pool
	log   *wal.Log
	ptt   *cow.Tree
	stamp *stamp.Manager
	locks *lock.Manager
	cat   *catalog.Catalog
	seq   *itime.Sequencer
	tids  *itime.TIDSource

	// visible is the snapshot visibility watermark: the timestamp of the
	// newest commit whose TID-to-timestamp mapping is published. It can
	// trail seq.Last() by the commits currently in flight between timestamp
	// issue and stamp.Commit; snapshot transactions read here, never the
	// sequencer, so a snapshot never includes a half-committed transaction.
	// Updated under commitMu, read lock-free.
	visible atomic.Pointer[itime.Timestamp]

	mu     sync.Mutex // guards trees, active, snapshots, lastLSN bookkeeping
	trees  map[uint32]*tsb.Tree
	active map[itime.TID]*Tx
	closed bool

	// draining is set at the start of Close: Begin refuses new transactions
	// (ErrShuttingDown) while in-flight operations — counted by opCount,
	// entered via Tx.opEnter — are waited out on the opDone condition.
	draining bool
	opCount  int
	opDone   *sync.Cond

	commitMu      sync.Mutex
	txnsSinceCkpt int

	// Replica state. replica is set for databases opened with OpenReplica:
	// the engine applies the primary's shipped log (ReplicaApply) and serves
	// reads at the replication horizon; every write path fails with
	// ErrReplica. appliedLSN is the horizon's log coordinate — the end of the
	// last fully applied record; replayMu serializes continuous redo;
	// readTIDs issues local read-transaction IDs from a namespace disjoint
	// from the primary's TIDs arriving in the stream.
	// replica is atomic because promotion flips it at runtime: Promote turns
	// a replica read-write, PromoteToFollower fences a deposed primary.
	replica    atomic.Bool
	appliedLSN atomic.Uint64
	// epoch is the promotion epoch: 0 for a never-failed-over database, then
	// the value of the newest TypePromote record in the log. A promoted
	// primary appends epoch+1 before accepting any write, so every commit it
	// acks is attributable to a handover the cluster performed.
	epoch    atomic.Uint64
	replayMu sync.Mutex
	replayer *redoApplier
	readTIDs atomic.Uint64

	// retainFloors holds WAL positions pinned against checkpoint truncation
	// — one per open base snapshot, so a follower seeded from it can still
	// pull the log suffix its page copy needs.
	retainMu     sync.Mutex
	retainFloors map[uint64]wal.LSN
	retainNext   uint64

	// degraded latches on the first unrecoverable write-path I/O failure;
	// degCause (under degMu) keeps the first failure for DB.Degraded. The
	// latch is one-way: only reopen-with-recovery clears it.
	degraded atomic.Bool
	degMu    sync.Mutex
	degCause error

	// Cold history tier (internal/hist). hist is always non-nil — reads
	// consult it whenever a chain ends short — while migration into it is
	// gated by Options.TieredHistory. histMu serializes migration/compaction
	// passes; the remaining fields manage the background compactor.
	hist                           *hist.Store
	histMu                         sync.Mutex
	histPass                       *VacuumStats // non-nil while a collecting pass runs; guarded by histMu
	histKick                       chan struct{}
	histStop                       chan struct{}
	histDone                       chan struct{}
	histStopOnce                   sync.Once
	pagesMigrated, histCompactions atomic.Uint64

	commits, aborts atomic.Uint64
}

// File names inside a database directory.
const (
	pagesFile = "data.pages"
	walFile   = "wal.log"
	pttFile   = "ptt.cow"
)

// Open opens or creates a database in dir.
func Open(dir string, opts *Options) (*DB, error) {
	return openDB(dir, opts, false)
}

func openDB(dir string, opts *Options, replica bool) (*DB, error) {
	o := opts.withDefaults()
	if o.TieredHistory && o.Ablation.HistoricalIndex == IndexTSB {
		return nil, fmt.Errorf("immortaldb: TieredHistory requires IndexChain (TSB mode indexes history in place)")
	}
	pager, err := disk.OpenFS(o.FS, filepath.Join(dir, pagesFile), o.PageSize)
	if err != nil {
		return nil, err
	}
	log, err := wal.OpenFS(o.FS, filepath.Join(dir, walFile))
	if err != nil {
		pager.Close()
		return nil, err
	}
	log.NoSync = o.NoSync
	log.CommitEvery = o.CommitEvery
	log.Clock = o.Clock
	if o.WALSegmentSize > 0 {
		log.SegmentSize = o.WALSegmentSize
	}
	// LowWater is armed only after recovery (see the end of Open): the gate
	// exists to reserve headroom FOR recovery, so recovery itself — and the
	// checkpoint that reclaims dead segments behind it — runs ungated.
	ptt, err := cow.Open(filepath.Join(dir, pttFile), cow.Options{
		ValSize: stamp.PTTValueLen,
		NoSync:  o.NoSync,
		FS:      o.FS,
	})
	if err != nil {
		log.Close()
		pager.Close()
		return nil, err
	}

	db := &DB{
		opts:         o,
		dir:          dir,
		pager:        pager,
		pool:         buffer.New(pager, o.CacheFrames),
		log:          log,
		ptt:          ptt,
		stamp:        stamp.NewManager(ptt),
		locks:        lock.New(),
		cat:          catalog.New(),
		seq:          itime.NewSequencer(o.Clock),
		tids:         itime.NewTIDSource(1),
		trees:        make(map[uint32]*tsb.Tree),
		active:       make(map[itime.TID]*Tx),
		retainFloors: make(map[uint64]wal.LSN),
		hist:         hist.NewStore(o.FS, dir),
	}
	db.replica.Store(replica)
	if !replica {
		// A primary's log appends its own timeline; no shipped byte may ever
		// be grafted onto it. Sealing here also covers a promoted survivor
		// reopened as a primary, whose in-memory promotion seal died with
		// the old process.
		log.Seal()
	}
	db.opDone = sync.NewCond(&db.mu)
	db.stamp.GCEnabled = !o.Ablation.DisablePTTGC
	// PTT write-ahead: the PTT file must never harden a TID→TS mapping whose
	// commit record is still in the unsynced log tail (recovery would stamp a
	// loser's versions from it).
	db.stamp.ForceLog = log.SyncTo
	db.locks.Clock = o.Clock
	if o.LockTimeout > 0 {
		db.locks.Timeout = o.LockTimeout
	}
	// The write-ahead rule: a page may be written only once the log covering
	// its LSN is durable.
	db.pool.FlushLSN = func(lsn uint64) error { return log.FlushTo(wal.LSN(lsn)) }
	// A failed page write (including its write-ahead log force) may have left
	// the page half on disk: degrade so nothing is trusted until recovery.
	// Writes refused *because* the pool is already read-only, or failing
	// against a closing log, are consequences of a state change, not disk
	// faults.
	db.pool.OnWriteError = func(err error) {
		if errors.Is(err, buffer.ErrReadOnly) || errors.Is(err, wal.ErrClosed) {
			return
		}
		obs.IOError("write", vfs.ErrClass(err))
		db.degrade(err)
	}
	// Full-page writes: a physical image of every page is logged just
	// before the page is written in place, so recovery can repair a write
	// torn mid-page by a crash (PostgreSQL's full_page_writes defence).
	// A replica never appends to its log copy, so no images are logged
	// while the replica flag holds — the primary's own images in the
	// shipped stream are what recovery's torn-page tolerance leans on. The
	// check is dynamic, not an open-time branch, because Promote flips the
	// flag mid-life: the promotion checkpoint's flushes (and everything
	// after) must log images again, or a flush torn by a crash right after
	// the failover would have no covering image in the redo scan window.
	db.pool.PreWrite = func(id page.ID, buf []byte) (uint64, error) {
		if db.replica.Load() {
			return 0, nil
		}
		lsn, err := log.Append(&wal.Record{Type: wal.TypePageImage, Page: id, Img: buf})
		return uint64(lsn), err
	}
	// Flush-triggered lazy timestamping (Section 2.2). The page's StampLSN
	// must advance before NoteStamped, which may retire the VTT entries
	// holding the commit-record LSNs.
	db.pool.PreFlush = func(pg any) {
		dp, ok := pg.(*page.DataPage)
		if !ok || dp.NoTail || !dp.HasUnstamped() {
			return
		}
		counts := dp.StampAll(db.stamp.Resolve)
		if len(counts) == 0 {
			return
		}
		if obs.Enabled() {
			for _, n := range counts {
				obsStampFlush.Add(uint64(n))
			}
		}
		if lsn := uint64(db.stamp.MaxCommitLSN(counts)); lsn > dp.StampLSN {
			dp.StampLSN = lsn
		}
		db.stamp.NoteStamped(counts, db.log.End)
	}

	if data := pager.GetMeta(); len(data) > 0 {
		if err := db.cat.Load(data); err != nil {
			db.closeFiles()
			return nil, err
		}
	}
	if err := db.recover(); err != nil {
		db.closeFiles()
		return nil, fmt.Errorf("immortaldb: recovery: %w", err)
	}
	// Open a tree per table. The cold tier loads first: recovery's redo may
	// already have swapped newer manifests into the store, and LoadTable is
	// idempotent against that (file state is authoritative).
	for _, t := range db.cat.List() {
		if t.Immortal {
			if err := db.hist.LoadTable(t.ID); err != nil {
				db.closeFiles()
				return nil, fmt.Errorf("immortaldb: load history tier for %s: %w", t.Name, err)
			}
		}
		db.trees[t.ID] = db.openTree(t)
	}
	if replica {
		// A replica never writes its log: no open-time checkpoint (the
		// primary's checkpoint records drive local ones instead), no
		// low-water arming. Continuous redo starts at the recovery scan's
		// end.
		db.replayer = newLiveApplier(db)
		return db, nil
	}
	if err := db.Checkpoint(); err != nil {
		db.closeFiles()
		return nil, err
	}
	// The open-time checkpoint just truncated every reclaimable segment, so
	// free space is as good as it gets; from here on, rotations refuse below
	// the low-water mark to keep the next recovery's headroom intact.
	log.LowWater = o.WALLowWater
	// Drop run files orphaned by a migration/compaction that crashed between
	// writing runs and installing the manifest. Best-effort: a failure here
	// only leaks disk space.
	for _, t := range db.cat.List() {
		if t.Immortal {
			_ = db.hist.Cleanup(t.ID)
		}
	}
	if o.TieredHistory && o.HistCompactEvery > 0 {
		db.histKick = make(chan struct{}, 1)
		db.histStop = make(chan struct{})
		db.histDone = make(chan struct{})
		go db.compactorLoop(o.HistCompactEvery)
	}
	return db, nil
}

func (db *DB) closeFiles() {
	db.hist.Close()
	db.ptt.Close()
	db.log.Close()
	db.pager.Close()
}

// degrade latches the engine read-only after a write-path I/O failure. The
// first cause wins; the buffer pool stops writing dirty pages (reads keep
// being served from clean state), and every write entry point fails with
// ErrDegraded until the database is reopened. Never cleared in-process: a
// failed fsync may have silently dropped dirty kernel buffers (the
// "fsyncgate" lesson), so only recovery — which re-reads disk — can
// re-establish what is actually durable.
func (db *DB) degrade(cause error) {
	db.degMu.Lock()
	if db.degCause == nil {
		db.degCause = cause
		db.degraded.Store(true)
		db.pool.SetReadOnly(true)
	}
	db.degMu.Unlock()
}

// degradeIf degrades the engine when err is a disk-level failure, and leaves
// it healthy for logical errors (conflicts, bad arguments, shutdown).
func (db *DB) degradeIf(err error) {
	if ioFailure(err) {
		db.degrade(err)
	}
}

// ioFailure classifies err: true for failures of the storage stack itself —
// a latched log, ENOSPC, injected or real EIO — whose side effects on disk
// are unknown, false for logical errors that leave disk state trustworthy.
func ioFailure(err error) bool {
	if err == nil || errors.Is(err, wal.ErrClosed) || errors.Is(err, buffer.ErrReadOnly) {
		return false
	}
	if errors.Is(err, wal.ErrFailed) {
		return true
	}
	switch vfs.ErrClass(err) {
	case vfs.ClassNoSpace, vfs.ClassIO, vfs.ClassCrash:
		return true
	}
	return false
}

// Degraded returns nil while the engine is healthy, or the I/O failure that
// moved it to read-only-degraded.
func (db *DB) Degraded() error {
	if !db.degraded.Load() {
		return nil
	}
	db.degMu.Lock()
	cause := db.degCause
	db.degMu.Unlock()
	return fmt.Errorf("%w: %v", ErrDegraded, cause)
}

// treeLogger adapts the WAL for one table's tree.
type treeLogger struct {
	db      *DB
	tableID uint32
}

// LogSMO logs one structure modification as a single TypeSMO record: the
// after-images of every touched page plus, on a root move, the full catalog
// snapshot. One record means one checksum — a torn log tail keeps the whole
// modification or none of it, so recovery never installs a post-split leaf
// whose moved keys have no surviving route.
func (l *treeLogger) LogSMO(pages []any, root *tsb.RootChange) (uint64, error) {
	imgs := make([]wal.PageImg, len(pages))
	for i, pg := range pages {
		buf := make([]byte, l.db.pager.PageSize())
		var id page.ID
		var err error
		switch v := pg.(type) {
		case *page.DataPage:
			id, err = v.ID, v.Marshal(buf)
		case *page.IndexPage:
			id, err = v.ID, v.Marshal(buf)
		default:
			return 0, fmt.Errorf("immortaldb: cannot log image of %T", pg)
		}
		if err != nil {
			return 0, err
		}
		imgs[i] = wal.PageImg{Page: id, Img: buf}
	}
	rec := &wal.Record{Type: wal.TypeSMO, Table: l.tableID, Images: imgs}
	if root != nil {
		if err := l.db.cat.SetRoot(l.tableID, root.Root, root.IsLeaf); err != nil {
			return 0, err
		}
		blob, err := l.db.cat.Marshal()
		if err != nil {
			return 0, err
		}
		rec.Blob = blob
	}
	lsn, err := l.db.log.Append(rec)
	return uint64(lsn), err
}

// logCatalog appends a full catalog snapshot to the log.
func (db *DB) logCatalog() error {
	blob, err := db.cat.Marshal()
	if err != nil {
		return err
	}
	_, err = db.log.Append(&wal.Record{Type: wal.TypeCatalog, Blob: blob})
	return err
}

// treeStamper adapts the stamp manager for trees.
type treeStamper struct{ db *DB }

func (s *treeStamper) Resolve(tid itime.TID) (itime.Timestamp, bool) {
	return s.db.stamp.Resolve(tid)
}

func (s *treeStamper) NoteStamped(counts map[itime.TID]int) {
	if obs.Enabled() {
		for _, n := range counts {
			obsStampAccess.Add(uint64(n))
		}
	}
	s.db.stamp.NoteStamped(counts, s.db.log.End)
}

func (s *treeStamper) MaxCommitLSN(counts map[itime.TID]int) uint64 {
	return uint64(s.db.stamp.MaxCommitLSN(counts))
}

func (db *DB) openTree(t *catalog.Table) *tsb.Tree {
	cfg := db.treeConfig(t)
	return tsb.Open(cfg, t.Root, t.RootIsLeaf)
}

func (db *DB) treeConfig(t *catalog.Table) tsb.Config {
	cfg := tsb.Config{
		Pool:      db.pool,
		Pager:     db.pager,
		TableID:   t.ID,
		Logger:    &treeLogger{db: db, tableID: t.ID},
		Stamper:   &treeStamper{db: db},
		Mode:      db.indexMode(t),
		Threshold: db.opts.Ablation.Threshold,
		Immortal:  t.Immortal,
		NoTail:    !t.Versioned(),
		SplitNow: func() itime.Timestamp {
			// The published watermark, not seq.Last(): a committer that has
			// drawn its timestamp but not yet published its TID mapping is
			// still TID-marked on the page, and stays on the current side of
			// the split only if the boundary does not pass its commit time.
			now := db.visibleTS().Next()
			// A transaction that fixed its timestamp early (CURRENT TIME)
			// will commit versions stamped at that reserved time; the time
			// split boundary must not pass it.
			if r := db.minReservedTS(); !r.IsZero() && r.Less(now) {
				return r
			}
			return now
		},
		SnapshotHorizon: db.snapshotHorizon,
	}
	// Immortal chain tables read through to the cold tier whenever a history
	// chain ends without covering the requested time. The hook is always on —
	// runs written under TieredHistory must stay readable after a reopen with
	// the option off — while migration (the compactor kick) is gated.
	if t.Immortal && cfg.Mode == tsb.ModeChain {
		cfg.Hist = &treeHist{db: db, tableID: t.ID}
		if db.opts.TieredHistory && !db.replica.Load() {
			cfg.OnTimeSplit = db.kickCompactor
		}
	}
	return cfg
}

// visibleTS returns the snapshot visibility watermark (see DB.visible).
func (db *DB) visibleTS() itime.Timestamp {
	if p := db.visible.Load(); p != nil {
		return *p
	}
	return itime.Timestamp{}
}

// advanceVisible publishes ts as committed-visible. Callers hold commitMu;
// the max keeps the watermark monotone when a CURRENT TIME transaction
// commits at a timestamp reserved before later commits.
func (db *DB) advanceVisible(ts itime.Timestamp) {
	if p := db.visible.Load(); p == nil || p.Less(ts) {
		t := ts
		db.visible.Store(&t)
	}
}

// snapshotHorizon returns the oldest timestamp an active snapshot can read;
// with no active snapshots everything up to the last commit is reclaimable
// (on non-immortal tables only).
func (db *DB) snapshotHorizon() itime.Timestamp {
	db.mu.Lock()
	defer db.mu.Unlock()
	h := db.seq.Last()
	for _, tx := range db.active {
		if tx.mode == SnapshotIsolation && tx.snapTS.Less(h) {
			h = tx.snapTS
		}
	}
	return h
}

// CreateTable creates a table. Immortal tables keep every version forever
// and answer AS OF queries; Snapshot tables keep recent versions for
// snapshot isolation; plain tables store bare records with no versioning
// overhead at all.
func (db *DB) CreateTable(name string, topts TableOptions) (*Table, error) {
	if db.replica.Load() {
		return nil, ErrReplica
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	if db.draining {
		return nil, ErrShuttingDown
	}
	if err := db.Degraded(); err != nil {
		return nil, err
	}
	if topts.Immortal {
		topts.Snapshot = true
	}
	meta, err := db.cat.Create(catalog.Table{
		Name:      name,
		Immortal:  topts.Immortal,
		Snapshot:  topts.Snapshot,
		Columns:   topts.Columns,
		HistIndex: indexModeNames[db.opts.Ablation.HistoricalIndex],
	})
	if err != nil {
		return nil, err
	}
	tree, err := tsb.Create(db.treeConfig(meta))
	if err != nil {
		db.cat.Drop(name)
		return nil, err
	}
	root, isLeaf := tree.Root()
	meta.Root, meta.RootIsLeaf = root, isLeaf
	db.trees[meta.ID] = tree
	if err := db.logCatalog(); err != nil {
		db.degradeIf(err)
		return nil, err
	}
	if err := db.log.Flush(); err != nil {
		db.degradeIf(err)
		return nil, err
	}
	if err := db.saveCatalogMeta(); err != nil {
		db.degradeIf(err)
		return nil, err
	}
	return &Table{meta: meta, tree: tree}, nil
}

// Table returns a handle to an existing table.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	meta, err := db.cat.Get(name)
	if err != nil {
		return nil, err
	}
	return &Table{meta: meta, tree: db.trees[meta.ID]}, nil
}

// Tables lists table names.
func (db *DB) Tables() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []string
	for _, t := range db.cat.List() {
		out = append(out, t.Name)
	}
	return out
}

func (db *DB) saveCatalogMeta() error {
	blob, err := db.cat.Marshal()
	if err != nil {
		return err
	}
	return db.pager.SetMeta(blob)
}

// Checkpoint hardens the database state: the persistent timestamp table is
// committed, all dirty pages flush (stamping committed versions on the way
// out), a checkpoint record is logged, and — now that the redo scan start
// point has moved — completed PTT entries are garbage collected (Section
// 2.2).
func (db *DB) Checkpoint() error {
	if db.replica.Load() {
		// Replica checkpoints are driven by the primary's checkpoint records
		// in the shipped stream (see replicaCheckpoint); a locally-initiated
		// one would append to the log copy.
		return ErrReplica
	}
	defer obsCkptLat.ObserveSince(obs.Now())
	span := obs.NewRootSpan("db.checkpoint")
	defer span.End()
	// The ATT snapshot must be consistent with the log. Terminal records
	// (commit records, rollback compensation) appear only under commitMu, so
	// holding it here pins every listed transaction in a known state: its
	// fate is still undecided, and whatever it logs next — more updates, its
	// commit, its CLRs — lands at or past beginLSN, inside the analysis scan
	// (Checkpoint.BeginLSN). Transactions whose fate is already logged are
	// skipped: their terminal records precede the checkpoint record in the
	// log, so recovery reading this checkpoint finds them durable, whereas
	// listing such a transaction as active would get it undone whenever the
	// redo scan starts past its commit record.
	db.commitMu.Lock()
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		db.commitMu.Unlock()
		return ErrClosed
	}
	if err := db.Degraded(); err != nil {
		// A degraded engine must not checkpoint: flushing pages or moving the
		// checkpoint pointer would claim durability the failed I/O disproved.
		db.mu.Unlock()
		db.commitMu.Unlock()
		return err
	}
	beginLSN := db.log.End()
	att := make([]wal.TxnState, 0, len(db.active))
	// undoFloor is the oldest log record a live transaction may still need to
	// read back for undo — segment truncation must never pass it.
	undoFloor := wal.LSN(0)
	for tid, tx := range db.active {
		if tx.terminalLogged {
			continue
		}
		tx.logMu.Lock()
		last := wal.LSN(tx.lastLSN.Load())
		first := wal.LSN(tx.firstLSN.Load())
		tx.logMu.Unlock()
		att = append(att, wal.TxnState{TID: tid, LastLSN: last})
		if first != 0 && (undoFloor == 0 || first < undoFloor) {
			undoFloor = first
		}
	}
	db.mu.Unlock()
	db.commitMu.Unlock()
	sort.Slice(att, func(i, j int) bool { return att[i].TID < att[j].TID })

	if err := db.hardenForCheckpoint(); err != nil {
		db.degradeIf(err)
		return err
	}
	dpt := db.pool.DirtyPages() // pages re-dirtied during the flush, if any
	ck := &wal.Checkpoint{
		ActiveTxns: att,
		NextTID:    db.tids.Peek(),
		LastTS:     db.seq.Last(),
		BeginLSN:   beginLSN,
		Epoch:      db.epoch.Load(),
	}
	for id, recLSN := range dpt {
		ck.DirtyPages = append(ck.DirtyPages, wal.DirtyPage{ID: id, RecLSN: wal.LSN(recLSN)})
	}
	sort.Slice(ck.DirtyPages, func(i, j int) bool { return ck.DirtyPages[i].ID < ck.DirtyPages[j].ID })
	lsn, err := db.log.Append(&wal.Record{Type: wal.TypeCheckpoint, Blob: ck.Marshal()})
	if err != nil {
		db.degradeIf(err)
		return err
	}
	// Everything below the redo scan start is unreachable by recovery, but
	// live transactions may still walk their PrevLSN chains back for undo,
	// so the truncation bound also covers their first records.
	redoStart := ck.RedoScanStart(lsn)
	bound := redoStart
	if undoFloor != 0 && undoFloor < bound {
		bound = undoFloor
	}
	if err := db.installCheckpoint(lsn, redoStart, bound); err != nil {
		db.degradeIf(err)
		return err
	}
	return nil
}

// hardenForCheckpoint makes durable everything a checkpoint record is about
// to vouch for: the PTT entries of commits already in the log (before the
// redo scan start can move past those commit records), the catalog, and
// every dirty page.
func (db *DB) hardenForCheckpoint() error {
	if err := db.stamp.SyncPTT(); err != nil {
		return err
	}
	if err := db.saveCatalogMeta(); err != nil {
		return err
	}
	return db.pool.FlushAll(true)
}

// installCheckpoint points the log at the checkpoint record at lsn, whose
// redo scan starts at redoStart, then reclaims what that leaves dead: log
// segments below bound (unless RetainWAL) — this is how a full disk gets
// space back — and the PTT entries of commits before redoStart (Section 2.2).
func (db *DB) installCheckpoint(lsn, redoStart, bound wal.LSN) error {
	if err := db.log.SetCheckpoint(lsn); err != nil {
		return err
	}
	if !db.opts.RetainWAL {
		// Open base snapshots pin the chain too: a follower seeded from one
		// still needs the log suffix from its LogStart. Holding retainMu
		// across the truncation closes the race against a snapshot
		// registering its floor concurrently.
		db.retainMu.Lock()
		for _, f := range db.retainFloors {
			if f < bound {
				bound = f
			}
		}
		if err := db.log.TruncateBefore(bound); err != nil {
			// Reclamation is best-effort: the retained segments are merely
			// dead weight, so a failed delete degrades nothing and fails
			// nothing.
			obsCkptTruncErr.Inc()
		}
		db.retainMu.Unlock()
	}
	if _, err := db.stamp.RunGC(redoStart); err != nil {
		return err
	}
	return db.stamp.SyncPTT()
}

// Close shuts the database down cleanly: new Begin calls fail with
// ErrShuttingDown, in-flight transaction operations are waited out (bounded
// by Options.DrainTimeout) so an acknowledged commit is never raced by the
// file teardown, transactions left open are rolled back on their owners'
// behalf, and the final checkpoint and file closes run against a quiesced
// engine.
func (db *DB) Close() error {
	// Stop the background compactor first: it takes db.mu and appends to the
	// log, so it must be parked before the drain and the final checkpoint.
	db.stopCompactor()
	db.mu.Lock()
	if db.closed || db.draining {
		db.mu.Unlock()
		return nil
	}
	db.draining = true
	// Kill every open transaction: its next operation returns ErrAborted.
	// Operations already past opEnter finish normally — including commits,
	// whose acknowledgements stay trustworthy.
	for _, tx := range db.active {
		tx.killed.Store(true)
	}
	grace := db.opts.DrainTimeout
	if grace <= 0 {
		grace = DefaultDrainTimeout
	}
	if db.opCount > 0 {
		expired := false
		timer := db.opts.Clock.AfterFunc(grace, func() {
			db.mu.Lock()
			expired = true
			db.opDone.Broadcast()
			db.mu.Unlock()
		})
		for db.opCount > 0 && !expired {
			db.opDone.Wait()
		}
		timer.Stop()
	}
	drained := db.opCount == 0
	victims := make([]*Tx, 0, len(db.active))
	for _, tx := range db.active {
		victims = append(victims, tx)
	}
	db.mu.Unlock()
	// Transactions left open after the drain have no operation in flight, so
	// rolling them back here cannot race their owners: opEnter now fails on
	// the killed flag. If the drain timed out we skip this — the checkpoint
	// lists the stragglers in its ATT and recovery undoes them instead.
	if drained {
		for _, tx := range victims {
			db.abortForShutdown(tx)
		}
	}
	// A degraded engine skips the final checkpoint and log flush: disk state
	// after the failed I/O is untrustworthy, and writing more would risk
	// claiming durability recovery cannot honor. Reopen recovers from the
	// last successfully-synced log prefix instead. A replica has no
	// checkpoint to take — it just hardens what it has ingested so the next
	// open's recovery scan starts from durable bytes.
	err := db.Degraded()
	if err == nil {
		if db.replica.Load() {
			err = db.log.SyncIngested()
		} else {
			err = db.Checkpoint()
		}
	}
	db.mu.Lock()
	db.closed = true
	db.mu.Unlock()
	if db.Degraded() == nil {
		if err2 := db.log.Flush(); err == nil {
			err = err2
		}
	}
	if db.Degraded() != nil {
		// No PTT commit either: a mapping must never harden unless its commit
		// record is known durable, and after a failed sync nothing is.
		db.ptt.CloseNoCommit()
	} else if err2 := db.ptt.Close(); err == nil {
		err = err2
	}
	if err2 := db.log.Close(); err == nil {
		err = err2
	}
	if err2 := db.pager.Close(); err == nil {
		err = err2
	}
	db.hist.Close()
	return err
}

// abortForShutdown rolls back a transaction left open at Close on its
// owner's behalf. The owner cannot interfere: the killed flag turns its next
// operation into ErrAborted before it touches engine state. Undo runs under
// commitMu exactly like Rollback, so the compensation is atomic with respect
// to the final checkpoint's ATT snapshot.
func (db *DB) abortForShutdown(tx *Tx) {
	if tx.mode == asOf || tx.terminalLogged {
		db.finish(tx)
		return
	}
	db.commitMu.Lock()
	last := wal.LSN(tx.lastLSN.Load())
	if err := db.undoTx(tx.id, last); err != nil {
		// Compensation failed (I/O error): leave the transaction in the
		// active map so the checkpoint's ATT lists it and recovery undoes
		// its updates at the next open.
		db.degradeIf(err)
		db.commitMu.Unlock()
		return
	}
	tx.terminalLogged = true
	db.log.Append(&wal.Record{Type: wal.TypeAbort, TID: tx.id, PrevLSN: last})
	db.stamp.Abort(tx.id)
	db.commitMu.Unlock()
	db.aborts.Add(1)
	db.finish(tx)
}

// Stats aggregates engine counters for benchmarks and monitoring — the feed
// for immortald's /metrics endpoint.
type Stats struct {
	Commits, Aborts uint64
	// OpenTxns counts transactions currently active.
	OpenTxns int
	Stamp    stamp.Stats
	// VTTBacklog is the volatile timestamp table's entry count: commits
	// whose versions still await lazy timestamping (plus active writers).
	VTTBacklog int
	PTTEntries uint64
	LogBytes   int64
	// LogAppends and LogSyncs count log records appended and fsyncs issued;
	// GroupedCommits counts commit hardenings satisfied by another
	// committer's fsync — the group-commit batching win.
	LogAppends     uint64
	LogSyncs       uint64
	GroupedCommits uint64
	PagerReads     uint64
	PagerWrites    uint64
	CacheHits      uint64
	CacheMisses    uint64
	// Evictions counts buffer-pool frames evicted to make room.
	Evictions uint64
	// TimeSplits, KeySplits and ChainHops aggregate tree activity across
	// all tables.
	TimeSplits uint64
	KeySplits  uint64
	ChainHops  uint64
	// Degraded reports that an I/O failure moved the engine read-only (see
	// ErrDegraded); WALSegments counts live log segment files.
	Degraded    bool
	WALSegments int
	// AppliedLSN is a replica's horizon: the end LSN of the last record
	// continuous redo fully applied (0 on a database opened as a primary).
	AppliedLSN uint64
	// Cold history tier: live run files and their byte total, history pages
	// migrated into runs, and completed CompactHistory passes.
	HistRuns        int
	HistBytes       uint64
	PagesMigrated   uint64
	HistCompactions uint64
}

// MeanCommitBatch estimates the mean group-commit batch size: every fsync
// hardens one leader plus the followers that shared it.
func (s Stats) MeanCommitBatch() float64 {
	if s.LogSyncs == 0 {
		return 0
	}
	return 1 + float64(s.GroupedCommits)/float64(s.LogSyncs)
}

// Stats returns a snapshot of engine counters.
func (db *DB) Stats() Stats {
	r, w, _ := db.pager.Stats()
	h, m, ev, _ := db.pool.Stats()
	appends, syncs := db.log.Stats()
	st := Stats{
		Commits:         db.commits.Load(),
		Aborts:          db.aborts.Load(),
		Stamp:           db.stamp.Snapshot(),
		VTTBacklog:      db.stamp.VTTLen(),
		PTTEntries:      db.stamp.PTTLen(),
		LogBytes:        db.log.Size(),
		LogAppends:      appends,
		LogSyncs:        syncs,
		GroupedCommits:  db.log.GroupedSyncs(),
		PagerReads:      r,
		PagerWrites:     w,
		CacheHits:       h,
		CacheMisses:     m,
		Evictions:       ev,
		Degraded:        db.degraded.Load(),
		WALSegments:     db.log.SegmentCount(),
		AppliedLSN:      db.appliedLSN.Load(),
		PagesMigrated:   db.pagesMigrated.Load(),
		HistCompactions: db.histCompactions.Load(),
	}
	st.HistRuns, st.HistBytes = db.hist.Totals()
	db.mu.Lock()
	st.OpenTxns = len(db.active)
	for _, t := range db.trees {
		ts := t.Snapshot()
		st.TimeSplits += ts.TimeSplits
		st.KeySplits += ts.KeySplits
		st.ChainHops += ts.ChainHops
	}
	db.mu.Unlock()
	return st
}

// TreeStats returns split/chain counters for one table.
func (db *DB) TreeStats(t *Table) tsb.Stats { return t.tree.Snapshot() }

// crash closes the database files abruptly — no checkpoint, no buffer-pool
// flush, no PTT commit, buffered log appends dropped. It simulates a process
// crash so recovery tests can reopen and verify the ARIES passes and the
// lazy re-timestamping behaviour. Production code uses Close.
func (db *DB) crash() {
	db.mu.Lock()
	db.closed = true
	db.mu.Unlock()
	db.ptt.CloseNoCommit()
	db.log.CloseNoFlush()
	db.pager.Close()
}

// Meta exposes the table's catalog entry (schema, flags) to the SQL layer.
func (t *Table) Meta() *catalog.Table { return t.meta }

// EnableSnapshot turns on snapshot versioning for an empty conventional
// table — the engine-level ALTER TABLE ... ENABLE SNAPSHOT of Section 4.1.
func (db *DB) EnableSnapshot(name string) error {
	if db.replica.Load() {
		return ErrReplica
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if db.draining {
		return ErrShuttingDown
	}
	if err := db.Degraded(); err != nil {
		return err
	}
	meta, err := db.cat.Get(name)
	if err != nil {
		return err
	}
	if meta.Versioned() {
		return nil
	}
	// Record layouts differ (no versioning tails), so only empty tables can
	// switch.
	empty := true
	tree := db.trees[meta.ID]
	if err := tree.ScanAsOf(nil, nil, itime.Max, 0, func(tsb.Result) bool {
		empty = false
		return false
	}); err != nil {
		return err
	}
	if err := db.cat.EnableSnapshot(name, empty); err != nil {
		return err
	}
	// Reopen the tree with versioned semantics.
	db.trees[meta.ID] = db.openTree(meta)
	if err := db.logCatalog(); err != nil {
		db.degradeIf(err)
		return err
	}
	if err := db.saveCatalogMeta(); err != nil {
		db.degradeIf(err)
		return err
	}
	return nil
}

// BeginAsOfString parses a SQL AS OF time literal and begins a historical
// read-only transaction at it.
func (db *DB) BeginAsOfString(s string) (*Tx, error) {
	ts, err := itime.ParseAsOf(s)
	if err != nil {
		return nil, err
	}
	return db.BeginAsOfTS(ts)
}

// TableUtilization reports storage occupancy of one table's tree.
func (db *DB) TableUtilization(t *Table) (tsb.Utilization, error) {
	return t.tree.Utilization()
}
