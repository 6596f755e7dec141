package immortaldb

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"immortaldb/internal/itime"
	"immortaldb/internal/lock"
	"immortaldb/internal/obs"
	"immortaldb/internal/storage/page"
	"immortaldb/internal/tsb"
	"immortaldb/internal/wal"
)

// pageID shortens page.ID in log callbacks.
type pageID = page.ID

// IsolationLevel selects transaction semantics.
type IsolationLevel int

// Isolation levels.
const (
	// Serializable uses fine-grained two-phase locking: shared locks on
	// reads, exclusive locks on writes, all held to commit.
	Serializable IsolationLevel = iota
	// SnapshotIsolation reads the database as of the transaction's start
	// (never blocking on writers) and applies first-committer-wins to its
	// own writes.
	SnapshotIsolation
	// asOf is an internal read-only mode over a past state.
	asOf
)

func (l IsolationLevel) String() string {
	switch l {
	case Serializable:
		return "serializable"
	case SnapshotIsolation:
		return "snapshot"
	case asOf:
		return "as-of"
	default:
		return "unknown"
	}
}

// writeRec remembers one write for rollback and conflict bookkeeping.
type writeRec struct {
	table *Table
	key   string
}

// Tx is a transaction. A Tx must not be used concurrently from multiple
// goroutines.
type Tx struct {
	db     *DB
	id     itime.TID
	mode   IsolationLevel
	snapTS itime.Timestamp // snapshot read point (SnapshotIsolation, asOf)
	// lastLSN is the transaction's most recent log record (head of its undo
	// chain); atomic because checkpoints read it from another goroutine.
	lastLSN atomic.Uint64
	// firstLSN is the transaction's oldest log record — the end of its undo
	// chain, and therefore the oldest record WAL segment truncation must
	// retain while the transaction is live. Zero until the first append.
	firstLSN atomic.Uint64
	// logMu makes a log append and the lastLSN advance one step as seen by a
	// checkpoint's ATT snapshot: a record the snapshot's LastLSN does not
	// cover is guaranteed an LSN at or past the checkpoint's BeginLSN, so
	// the analysis scan finds it and repairs the ATT entry.
	logMu sync.Mutex
	// terminalLogged is set (under db.commitMu) once the transaction's fate
	// is decided in the log — its commit record is appended, or its rollback
	// has fully compensated its updates. Checkpoints skip such transactions:
	// their terminal records precede the checkpoint record, so if recovery
	// ever reads this checkpoint those records are durable, and listing the
	// transaction as active could get a committed transaction undone when
	// the analysis scan starts past its commit record.
	terminalLogged bool
	// killed is set by DB.Close when shutdown force-aborts the transaction:
	// every subsequent operation returns ErrAborted without touching engine
	// state, so Close can roll the transaction back on the owner's behalf.
	killed   atomic.Bool
	writes   []writeRec
	done     bool
	hasTT    bool            // wrote a transaction-time (immortal) table
	fixedTS  itime.Timestamp // timestamp fixed early by CurrentTime (zero: commit-time choice)
	commitTS itime.Timestamp // commit timestamp, set once Commit succeeds
}

// ID returns the transaction's TID.
func (tx *Tx) ID() TID { return tx.id }

// CommitTS returns the transaction's commit timestamp. It is zero until
// Commit returns successfully, and stays zero for transactions that had
// nothing to commit (read-only and AS OF transactions).
func (tx *Tx) CommitTS() Timestamp { return tx.commitTS }

// SnapshotTS returns the transaction's snapshot read point (zero for
// Serializable transactions, which always read the latest committed state).
func (tx *Tx) SnapshotTS() Timestamp { return tx.snapTS }

// Begin starts a read-write transaction at the given isolation level.
func (db *DB) Begin(level IsolationLevel) (*Tx, error) {
	if level != Serializable && level != SnapshotIsolation {
		return nil, fmt.Errorf("immortaldb: unsupported isolation level %v", level)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	if db.draining {
		return nil, ErrShuttingDown
	}
	if db.replica.Load() {
		// Any requested level downgrades to a snapshot read at the
		// replication horizon: serializable 2PL would interleave with
		// continuous redo, which takes no transaction locks, so the locks
		// could not actually order anything. The snapshot view is immune —
		// commits become visible atomically when the watermark advances, and
		// structural installs exclude readers per tree. Writes fail with
		// ErrReplica at the first Set/Delete.
		tx := &Tx{db: db, id: db.nextReadTID(), mode: SnapshotIsolation, snapTS: db.visibleTS()}
		db.active[tx.id] = tx
		return tx, nil
	}
	tx := &Tx{db: db, id: db.tids.Next(), mode: level}
	if level == SnapshotIsolation {
		// The snapshot read point is the visibility watermark — the newest
		// commit whose timestamp mapping is published — not seq.Last(): with
		// concurrent committers the sequencer may already have issued
		// timestamps for commits still in flight, and a snapshot that
		// included one would see its versions appear mid-transaction.
		tx.snapTS = db.visibleTS()
	}
	// Stage I of the timestamping protocol: create the VTT entry. Snapshot
	// transactions on non-immortal tables never persist timestamps, but
	// whether this transaction touches an immortal table is unknown yet; the
	// snapshot flag here is refined at commit via the persistent argument.
	db.stamp.Begin(tx.id, false)
	db.active[tx.id] = tx
	return tx, nil
}

// BeginAsOf starts a read-only transaction over the database state as of the
// given wall-clock time ("Begin Tran AS OF", Section 4.2). Only immortal
// tables can be read.
func (db *DB) BeginAsOf(at time.Time) (*Tx, error) {
	ts := itime.FromTime(at)
	ts.Seq = 1<<32 - 1 // see the whole 20 ms tick
	return db.BeginAsOfTS(ts)
}

// BeginAsOfTS is BeginAsOf with an exact engine timestamp (tests, and
// replaying a timestamp obtained from History).
func (db *DB) BeginAsOfTS(ts Timestamp) (*Tx, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	if db.draining {
		return nil, ErrShuttingDown
	}
	id := db.tids.Next()
	if db.replica.Load() {
		// Serving a time past the horizon could expose a torn view: some of
		// that moment's commits are applied, others still in flight on the
		// wire. Reads exactly at the horizon are fine — the watermark is the
		// newest fully-applied commit.
		if v := db.visibleTS(); ts.After(v) {
			return nil, fmt.Errorf("%w: requested %v, horizon %v", ErrBeyondHorizon, ts, v)
		}
		id = db.nextReadTID()
	}
	tx := &Tx{db: db, id: id, mode: asOf, snapTS: ts}
	db.active[tx.id] = tx
	return tx, nil
}

// replicaTIDBit marks locally-issued read-transaction IDs on a replica,
// keeping them disjoint from the primary's TID space arriving in the shipped
// log — a replicated record's TID must never collide with a local reader's.
const replicaTIDBit = itime.TID(1) << 63

func (db *DB) nextReadTID() itime.TID {
	return replicaTIDBit | itime.TID(db.readTIDs.Add(1))
}

func (tx *Tx) check(write bool) error {
	if tx.killed.Load() {
		return ErrAborted
	}
	if tx.done {
		return ErrTxDone
	}
	if write && tx.mode == asOf {
		return ErrReadOnly
	}
	if write && tx.db.replica.Load() {
		return ErrReplica
	}
	return nil
}

// opEnter registers a transaction operation in flight, failing if the
// transaction cannot proceed. DB.Close drains registered operations before
// tearing the engine down, and the killed re-check under db.mu linearizes
// against Close's kill-then-drain sequence: an operation either enters
// before the kill (and is waited out) or observes it and backs off.
func (tx *Tx) opEnter(write bool) error {
	if err := tx.check(write); err != nil {
		return err
	}
	db := tx.db
	db.mu.Lock()
	if tx.killed.Load() {
		db.mu.Unlock()
		return ErrAborted
	}
	db.opCount++
	db.mu.Unlock()
	return nil
}

// opExit balances opEnter.
func (db *DB) opExit() {
	db.mu.Lock()
	db.opCount--
	if db.opCount == 0 && db.draining {
		db.opDone.Broadcast()
	}
	db.mu.Unlock()
}

// Set writes key=value in t: an insert if the key is new, an update
// otherwise. On versioned tables this adds a new record version; on
// conventional tables it updates in place.
func (tx *Tx) Set(t *Table, key, value []byte) error {
	return tx.write(t, key, value, false)
}

// Delete removes key from t. On versioned tables this adds a delete stub —
// the record's history remains queryable; on conventional tables the record
// is removed outright.
func (tx *Tx) Delete(t *Table, key []byte) error {
	return tx.write(t, key, nil, true)
}

func (tx *Tx) write(t *Table, key, value []byte, del bool) error {
	if err := tx.opEnter(true); err != nil {
		return err
	}
	defer tx.db.opExit()
	if err := tx.db.Degraded(); err != nil {
		return err
	}
	if len(key) == 0 {
		return ErrEmptyKey
	}
	db := tx.db
	if err := db.locks.Acquire(tx.id, lock.Key{Table: t.meta.ID, Key: string(key)}, lock.Exclusive); err != nil {
		return err
	}
	if (tx.mode == SnapshotIsolation || !tx.fixedTS.IsZero()) && t.meta.Versioned() {
		// `since` tells LatestInfo how old a version can be before we stop
		// caring — it only chases a delete stub migrated off the current
		// page by a time split when the stub could postdate that bound.
		since := itime.Max
		if tx.mode == SnapshotIsolation {
			since = tx.snapTS
		}
		if !tx.fixedTS.IsZero() && tx.fixedTS.Less(since) {
			since = tx.fixedTS
		}
		ts, tid, _, found, err := t.tree.LatestInfo(key, since)
		if err != nil {
			return err
		}
		// First committer wins: abort if someone committed a newer version
		// of this record after our snapshot (Section 1.1's snapshot
		// isolation semantics). A foreign unstamped latest version is also
		// a conflict: we hold the X lock, so its writer is no longer
		// active — it committed after our snapshot was taken and simply has
		// not been lazily stamped yet.
		if tx.mode == SnapshotIsolation && found && tid != tx.id &&
			(tid != 0 || ts.After(tx.snapTS)) {
			return fmt.Errorf("%w: key %q", ErrWriteConflict, key)
		}
		// CURRENT TIME ordering: overwriting a version stamped after the
		// fixed timestamp would put the chain out of time order.
		if found && tid != tx.id {
			if err := tx.validateFixedTS(ts); err != nil {
				return err
			}
		}
	}

	if !t.meta.Versioned() {
		return tx.writeNoTail(t, key, value, del)
	}

	// Versioned write: a new non-timestamped version (delete stub for
	// deletes), or an in-place overwrite of this transaction's own earlier
	// uncommitted version. Logged as it is applied.
	wasReplace := false
	_, err := t.tree.Insert(tx.id, key, value, del, func(pid pageID, replaced bool, oldVal []byte, oldStub bool) (uint64, error) {
		rec := &wal.Record{
			Type:    wal.TypeInsertVersion,
			TID:     tx.id,
			PrevLSN: wal.LSN(tx.lastLSN.Load()),
			Table:   t.meta.ID,
			Page:    pid,
			Key:     key,
			Value:   value,
			Stub:    del,
		}
		if replaced {
			wasReplace = true
			if oldVal == nil {
				oldVal = []byte{}
			}
			rec.Old = oldVal
			rec.OldStub = oldStub
		}
		return tx.appendChained(rec)
	})
	if err != nil {
		db.degradeIf(err)
		return err
	}
	// Stage II: count the version against the transaction — overwrites did
	// not create a new version.
	if !wasReplace {
		if err := db.stamp.AddRef(tx.id, 1); err != nil {
			return err
		}
	}
	tx.writes = append(tx.writes, writeRec{table: t, key: string(key)})
	if t.meta.Immortal {
		tx.hasTT = true
	}
	return nil
}

// appendChained appends one record to the transaction's undo chain and
// advances lastLSN, atomically with respect to checkpoint ATT snapshots
// (see the logMu field comment).
func (tx *Tx) appendChained(rec *wal.Record) (uint64, error) {
	tx.logMu.Lock()
	defer tx.logMu.Unlock()
	lsn, err := tx.db.log.Append(rec)
	if err != nil {
		tx.db.degradeIf(err)
		return 0, err
	}
	if tx.firstLSN.Load() == 0 {
		tx.firstLSN.Store(uint64(lsn))
	}
	tx.lastLSN.Store(uint64(lsn))
	return uint64(lsn), nil
}

// writeNoTail handles conventional tables: in-place update, outright delete.
func (tx *Tx) writeNoTail(t *Table, key, value []byte, del bool) error {
	appendRec := func(pid pageID, old []byte, existed bool) (uint64, error) {
		rec := &wal.Record{
			Type:    wal.TypeInsertVersion,
			TID:     tx.id,
			PrevLSN: wal.LSN(tx.lastLSN.Load()),
			Table:   t.meta.ID,
			Page:    pid,
			Key:     key,
			Value:   value,
			Stub:    del,
		}
		if existed {
			if old == nil {
				old = []byte{}
			}
			rec.Old = old
		}
		return tx.appendChained(rec)
	}
	withOld := func(pid pageID, old []byte) (uint64, error) { return appendRec(pid, old, true) }
	switch {
	case del:
		if _, err := t.tree.RemoveNoTail(key, withOld); err != nil {
			if errors.Is(err, page.ErrNotFound) {
				return nil // deleting a missing key is a no-op
			}
			return err
		}
	default:
		_, found, err := t.tree.ReplaceNoTail(key, value, withOld)
		if err != nil {
			return err
		}
		if !found {
			if _, err := t.tree.Insert(tx.id, key, value, false,
				func(pid pageID, _ bool, _ []byte, _ bool) (uint64, error) {
					return appendRec(pid, nil, false)
				}); err != nil {
				return err
			}
		}
	}
	tx.writes = append(tx.writes, writeRec{table: t, key: string(key)})
	return nil
}

// Get returns the value of key visible to this transaction.
func (tx *Tx) Get(t *Table, key []byte) ([]byte, bool, error) {
	if err := tx.opEnter(false); err != nil {
		return nil, false, err
	}
	defer tx.db.opExit()
	if tx.mode == asOf && !t.meta.Immortal {
		return nil, false, fmt.Errorf("%w: %s", ErrNotImmortal, t.meta.Name)
	}
	if tx.mode == Serializable {
		if err := tx.db.locks.Acquire(tx.id, lock.Key{Table: t.meta.ID, Key: string(key)}, lock.Shared); err != nil {
			return nil, false, err
		}
	}
	at := itime.Max
	if tx.mode != Serializable {
		at = tx.snapTS
	}
	// Own writes are visible even under snapshot reads — and they postdate
	// the snapshot, so after a time split they can live on a newer page than
	// the one covering snapTS, where the as-of read would instead surface an
	// older committed version. Check them first.
	if tx.mode == SnapshotIsolation && tx.wrote(t, key) {
		cur, err := t.tree.ReadKey(key, itime.Max, tx.id)
		if err != nil {
			return nil, false, err
		}
		if cur.TID == tx.id {
			if cur.Deleted {
				return nil, false, nil
			}
			if cur.Found {
				return cur.Value, true, nil
			}
		}
	}
	res, err := t.tree.ReadKey(key, at, tx.id)
	if err != nil {
		return nil, false, err
	}
	if res.Found || res.Deleted {
		// CURRENT TIME ordering: depending on a version committed after the
		// fixed timestamp contradicts the chosen serialization point.
		if err := tx.validateFixedTS(res.TS); err != nil {
			return nil, false, err
		}
	}
	return res.Value, res.Found, nil
}

// wrote reports whether the transaction has written key in t.
func (tx *Tx) wrote(t *Table, key []byte) bool {
	for i := len(tx.writes) - 1; i >= 0; i-- {
		w := &tx.writes[i]
		if w.table.meta.ID == t.meta.ID && w.key == string(key) {
			return true
		}
	}
	return false
}

// Scan calls fn for every visible record with lo <= key < hi (nil bounds are
// unbounded) in key order; fn returning false stops the scan.
func (tx *Tx) Scan(t *Table, lo, hi []byte, fn func(key, value []byte) bool) error {
	if err := tx.opEnter(false); err != nil {
		return err
	}
	defer tx.db.opExit()
	if tx.mode == asOf && !t.meta.Immortal {
		return fmt.Errorf("%w: %s", ErrNotImmortal, t.meta.Name)
	}
	at := itime.Max
	if tx.mode != Serializable {
		at = tx.snapTS
	}
	// A snapshot transaction's own writes postdate its snapshot, and after a
	// time split they live on a newer page than the one covering snapTS, so
	// the as-of scan can miss them entirely — the scan counterpart of Get's
	// own-write fallback. Overlay the current state of every key this
	// transaction wrote in range.
	var own map[string]tsb.Result
	if tx.mode == SnapshotIsolation {
		for _, w := range tx.writes {
			if w.table.meta.ID != t.meta.ID {
				continue
			}
			k := []byte(w.key)
			if lo != nil && bytes.Compare(k, lo) < 0 {
				continue
			}
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				continue
			}
			if _, done := own[w.key]; done {
				continue
			}
			cur, err := t.tree.ReadKey(k, itime.Max, tx.id)
			if err != nil {
				return err
			}
			if cur.TID != tx.id {
				continue // newest version is not ours (should not happen: X lock held)
			}
			if own == nil {
				own = make(map[string]tsb.Result)
			}
			own[w.key] = cur
		}
	}
	var tsErr error
	if own == nil {
		err := t.tree.ScanAsOf(lo, hi, at, tx.id, func(r tsb.Result) bool {
			if tsErr = tx.validateFixedTS(r.TS); tsErr != nil {
				return false
			}
			return fn(r.Key, r.Value)
		})
		if err == nil {
			err = tsErr
		}
		return err
	}
	merged := make(map[string]tsb.Result)
	err := t.tree.ScanAsOf(lo, hi, at, tx.id, func(r tsb.Result) bool {
		if _, ours := own[string(r.Key)]; ours {
			return true // replaced by the overlay below
		}
		if tsErr = tx.validateFixedTS(r.TS); tsErr != nil {
			return false
		}
		merged[string(r.Key)] = r
		return true
	})
	if err != nil {
		return err
	}
	if tsErr != nil {
		return tsErr
	}
	for k, r := range own {
		if r.Found {
			merged[k] = r
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r := merged[k]
		if !fn(r.Key, r.Value) {
			return nil
		}
	}
	return nil
}

// Commit finishes the transaction. Its timestamp is chosen now — commit
// time, the latest possible choice, guaranteeing agreement with
// serialization order (Section 2.1) — and recorded in one PTT update;
// the transaction's record versions are NOT revisited (lazy timestamping).
func (tx *Tx) Commit() error {
	if err := tx.opEnter(false); err != nil {
		return err
	}
	db := tx.db
	defer db.opExit()
	tx.done = true
	defer db.finish(tx)

	if tx.mode == asOf || len(tx.writes) == 0 {
		// Read-only: nothing to log or stamp.
		db.stamp.Abort(tx.id) // drop the VTT entry
		return nil
	}
	if err := db.Degraded(); err != nil {
		// Fail before any timestamp or log work: a degraded engine must never
		// acknowledge a commit. The updates already logged have no terminal
		// record, so recovery at the next open undoes them.
		db.stamp.Abort(tx.id)
		return err
	}
	defer obsCommitLat.ObserveSince(obs.Now())
	span := obs.NewRootSpan("tx.commit")
	defer span.End()

	// Phase 1, under commitMu: pick the timestamp, append the commit record,
	// and publish the TID-to-timestamp mapping. commitMu makes timestamp
	// order equal commit-record order within the log, so a group-commit
	// fsync that covers a batch of commit records covers a timestamp prefix.
	pubSpan := span.Child("commit.publish")
	db.commitMu.Lock()
	if db.replica.Load() {
		// Fenced mid-flight: PromoteToFollower deposed this primary after the
		// transaction's updates were logged but before its commit record.
		// Refuse the ack and compensate the updates exactly like a rollback —
		// a zombie commit record must never enter the log, because the
		// cluster's surviving timeline will not contain it.
		last := wal.LSN(tx.lastLSN.Load())
		if uerr := db.undoTx(tx.id, last); uerr == nil {
			tx.terminalLogged = true
			db.log.Append(&wal.Record{Type: wal.TypeAbort, TID: tx.id, PrevLSN: last})
		} else {
			db.degradeIf(uerr)
		}
		db.stamp.Abort(tx.id)
		db.commitMu.Unlock()
		pubSpan.End()
		db.aborts.Add(1)
		return ErrReplica
	}
	ts := tx.fixedTS
	if ts.IsZero() {
		// Late choice: the timestamp is the commit time, so it necessarily
		// agrees with serialization order (Section 2.1).
		ts = db.seq.Next()
	}
	if db.opts.EagerTimestamping {
		// Eager mode: revisit and stamp everything before commit completes.
		// No TID-to-timestamp mapping needs to outlive the transaction.
		if err := tx.eagerStamp(ts); err != nil {
			db.degradeIf(err)
			db.commitMu.Unlock()
			pubSpan.End()
			return err
		}
		db.stamp.Abort(tx.id)
	}
	// The commit record is appended BEFORE stamp.Commit publishes the
	// mapping: lazy stamping is never logged, so the moment the mapping is
	// resolvable a stamped page could head for disk, and the buffer pool
	// must know the commit-record LSN (the page's StampLSN write-ahead
	// point) to hold that write until the log covers it.
	lsn, err := db.log.Append(&wal.Record{
		Type:    wal.TypeCommit,
		TID:     tx.id,
		PrevLSN: wal.LSN(tx.lastLSN.Load()),
		TS:      ts,
		HasTT:   tx.hasTT && !db.opts.EagerTimestamping,
	})
	if err != nil {
		// Nothing was published: the VTT entry is still active, exactly as
		// if Commit had not been called. An append can only fail on an I/O
		// fault (segment rotation out of space, a latched log) — degrade.
		db.degradeIf(err)
		db.commitMu.Unlock()
		pubSpan.End()
		return err
	}
	// The transaction's fate is now in the log; a checkpoint taken from here
	// on must not list it as active (see terminalLogged).
	tx.terminalLogged = true
	if !db.opts.EagerTimestamping {
		if serr := db.stamp.Commit(tx.id, ts, tx.hasTT, lsn, func() wal.LSN {
			// Snapshot-only transactions (no immortal table touched) keep
			// their mapping in the VTT alone; immortal writers get the one
			// PTT insert.
			return db.log.End()
		}); serr != nil {
			// The commit record is already in the log buffer and cannot be
			// retracted. Neutralize it: undo the versions with CLRs and log
			// an abort, so if the record ever reaches disk recovery replays
			// a transaction that committed empty.
			last := wal.LSN(tx.lastLSN.Load())
			if uerr := db.undoTx(tx.id, last); uerr == nil {
				db.log.Append(&wal.Record{Type: wal.TypeAbort, TID: tx.id, PrevLSN: last})
			} else {
				// The commit record is in the log and its neutralization
				// failed: if it reaches disk, recovery will replay a commit
				// the engine never acknowledged. Nothing written from here on
				// may be trusted.
				db.degrade(uerr)
			}
			db.stamp.Abort(tx.id)
			db.degradeIf(serr)
			db.commitMu.Unlock()
			pubSpan.End()
			return serr
		}
	}
	db.advanceVisible(ts)
	db.commitMu.Unlock()
	pubSpan.End()

	// Phase 2, outside commitMu: harden the commit record. With group commit
	// on, concurrent committers share one fsync here instead of queueing one
	// fsync each behind commitMu. The transaction's locks are held until
	// Commit returns, so conflicting writers cannot observe its effects
	// before durability is settled either way.
	fsyncSpan := span.Child("commit.fsync")
	err = db.log.SyncTo(lsn)
	fsyncSpan.End()
	if err != nil {
		// Not durable, so not committed: withdraw the timestamp mapping, or
		// the VTT/PTT would claim a commit the log cannot prove and lazy
		// stamping would publish the transaction's versions.
		if !db.opts.EagerTimestamping {
			if uerr := db.stamp.UndoCommit(tx.id); uerr != nil {
				err = fmt.Errorf("%w (timestamp withdraw: %v)", err, uerr)
			}
		}
		// The fsyncgate rule: a failed sync may have silently dropped dirty
		// kernel buffers, so the commit record's fate is unknowable in-process
		// — the log has latched itself failed, and the engine degrades. The
		// commit is settled (present or absent, never half) by reopening.
		db.degradeIf(err)
		return err
	}
	tx.commitTS = ts

	db.commits.Add(1)
	db.mu.Lock()
	db.txnsSinceCkpt++
	doCkpt := db.opts.CheckpointEveryN > 0 && db.txnsSinceCkpt >= db.opts.CheckpointEveryN
	if doCkpt {
		db.txnsSinceCkpt = 0
	}
	db.mu.Unlock()
	if doCkpt {
		return db.Checkpoint()
	}
	return nil
}

// eagerStamp revisits every record the transaction wrote and timestamps it
// before commit completes, logging each stamp — exactly the cost profile
// Section 2.2 rejects: commit is delayed and extra log records are written.
func (tx *Tx) eagerStamp(ts itime.Timestamp) error {
	db := tx.db
	stamped := make(map[string]bool, len(tx.writes))
	for _, w := range tx.writes {
		if !w.table.meta.Versioned() {
			continue
		}
		sk := fmt.Sprintf("%d/%s", w.table.meta.ID, w.key)
		if stamped[sk] {
			continue
		}
		stamped[sk] = true
		w := w
		_, err := w.table.tree.ApplyStamp([]byte(w.key), tx.id, ts, func(pid pageID) (uint64, error) {
			lsn, err := db.log.Append(&wal.Record{
				Type:  wal.TypeStamp,
				TID:   tx.id,
				Table: w.table.meta.ID,
				Page:  pid,
				Key:   []byte(w.key),
				TS:    ts,
			})
			return uint64(lsn), err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Rollback undoes the transaction: every versioned insert is removed (the
// logical undo of ARIES), compensation records are logged, and locks drop.
func (tx *Tx) Rollback() error {
	if err := tx.opEnter(false); err != nil {
		return err
	}
	db := tx.db
	defer db.opExit()
	tx.done = true
	defer db.finish(tx)
	defer db.aborts.Add(1)

	// commitMu makes the whole compensation atomic with respect to a
	// checkpoint's ATT snapshot: the snapshot sees this transaction either
	// before any CLR exists (recovery undoes the full chain from LastLSN) or
	// after compensation is complete (terminalLogged set, skipped). A
	// mid-rollback snapshot would carry a LastLSN that predates the CLRs and
	// recovery would undo already-compensated updates.
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	last := wal.LSN(tx.lastLSN.Load())
	if err := db.undoTx(tx.id, last); err != nil {
		// Compensation hit an I/O fault mid-chain: the log holds a partial
		// rollback and the transaction has no terminal record. Degrade; the
		// locks still release (finish above), the uncommitted versions stay
		// invisible, and recovery finishes the undo at the next open.
		db.degradeIf(err)
		db.stamp.Abort(tx.id)
		return err
	}
	// Every update is compensated in the log; even if the abort record below
	// fails to append, recovery has nothing left to undo.
	tx.terminalLogged = true
	db.stamp.Abort(tx.id)
	_, err := db.log.Append(&wal.Record{Type: wal.TypeAbort, TID: tx.id, PrevLSN: last})
	return err
}

// undoTx walks a transaction's log chain backwards, undoing each update and
// logging CLRs. It serves both online rollback and recovery undo.
func (db *DB) undoTx(tid itime.TID, from wal.LSN) error {
	cur := from
	for cur != 0 {
		rec, err := db.log.ReadAt(cur)
		if err != nil {
			return err
		}
		switch rec.Type {
		case wal.TypeCLR:
			// Already-compensated region: skip to the next record to undo.
			cur = rec.Undo
			continue
		case wal.TypeInsertVersion:
			t, ok := db.cat.ByID(rec.Table)
			if !ok {
				return fmt.Errorf("immortaldb: undo references unknown table %d", rec.Table)
			}
			tree := db.treeByID(rec.Table)
			logCLR := func(stub bool, value []byte) tsb.LogFunc {
				return func(pid pageID) (uint64, error) {
					lsn, err := db.log.Append(&wal.Record{
						Type:  wal.TypeCLR,
						TID:   tid,
						Table: rec.Table,
						Page:  pid,
						Key:   rec.Key,
						Undo:  rec.PrevLSN,
						Stub:  stub,
						Value: value,
					})
					return uint64(lsn), err
				}
			}
			if t.Versioned() {
				if rec.Old != nil || rec.OldStub {
					// Undo of an in-place overwrite: put the previous
					// uncommitted state back.
					if err := tree.UndoReplaceOwn(tid, rec.Key, rec.Old, rec.OldStub, logRestoreCLR(db, tid, rec)); err != nil {
						return fmt.Errorf("immortaldb: undo overwrite of %q: %w", rec.Key, err)
					}
				} else if err := tree.UndoInsert(tid, rec.Key, logCLR(false, nil)); err != nil {
					return fmt.Errorf("immortaldb: undo insert of %q: %w", rec.Key, err)
				}
			} else {
				// Conventional table: restore the old value / remove.
				if rec.Old != nil {
					if err := tree.RestoreNoTail(rec.Key, rec.Old, true, logCLR(false, rec.Old)); err != nil {
						return err
					}
				} else {
					if err := tree.RestoreNoTail(rec.Key, nil, false, logCLR(true, nil)); err != nil {
						return err
					}
				}
			}
		case wal.TypeStamp:
			// Eager-mode stamp of a loser transaction: the stamped versions
			// are removed by the InsertVersion undos that follow in the
			// chain; nothing to compensate here.
		}
		cur = rec.PrevLSN
	}
	return nil
}

func (db *DB) treeByID(id uint32) *tsb.Tree {
	db.mu.Lock()
	defer db.mu.Unlock()
	if t, ok := db.trees[id]; ok {
		return t
	}
	// Not yet instantiated: recovery undo can reach a table none of whose
	// records fell inside the redo scan window (a loser checkpointed as
	// in-flight that never wrote again). Open it from the catalog.
	meta, ok := db.cat.ByID(id)
	if !ok {
		return nil
	}
	t := db.openTree(meta)
	db.trees[id] = t
	return t
}

// finish releases a transaction's locks and bookkeeping.
func (db *DB) finish(tx *Tx) {
	db.locks.ReleaseAll(tx.id)
	db.mu.Lock()
	delete(db.active, tx.id)
	db.mu.Unlock()
}

// Update runs fn in a serializable transaction, committing on success and
// rolling back on error or panic.
func (db *DB) Update(fn func(tx *Tx) error) error {
	tx, err := db.Begin(Serializable)
	if err != nil {
		return err
	}
	defer func() {
		if !tx.done {
			tx.Rollback()
		}
	}()
	if err := fn(tx); err != nil {
		if rbErr := tx.Rollback(); rbErr != nil && !errors.Is(rbErr, ErrTxDone) {
			return fmt.Errorf("%w (rollback: %v)", err, rbErr)
		}
		return err
	}
	return tx.Commit()
}

// View runs fn in a read-only snapshot transaction.
func (db *DB) View(fn func(tx *Tx) error) error {
	tx, err := db.Begin(SnapshotIsolation)
	if err != nil {
		return err
	}
	defer tx.Commit()
	return fn(tx)
}

// logRestoreCLR builds the CLR logger for undoing an in-place overwrite: the
// compensation carries the restored value and stub state, and is marked
// Restore so redo re-applies the restore rather than removing a version.
func logRestoreCLR(db *DB, tid itime.TID, rec *wal.Record) tsb.LogFunc {
	return func(pid pageID) (uint64, error) {
		lsn, err := db.log.Append(&wal.Record{
			Type:    wal.TypeCLR,
			TID:     tid,
			Table:   rec.Table,
			Page:    pid,
			Key:     rec.Key,
			Undo:    rec.PrevLSN,
			Stub:    rec.OldStub,
			Restore: true,
			Value:   rec.Old,
		})
		return uint64(lsn), err
	}
}
