// Package stamp implements Immortal DB's timestamp management (Section 2.2):
// the Volatile Timestamp Table (VTT) with volatile reference counting, the
// Persistent Timestamp Table (PTT, a B-tree ordered by TID), the four-stage
// lazy timestamping protocol, and incremental PTT garbage collection gated
// on the recovery redo-scan-start point.
package stamp

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"immortaldb/internal/cow"
	"immortaldb/internal/itime"
	"immortaldb/internal/wal"
)

// PTTValueLen is the PTT entry payload: Ttime (8 bytes) + SN (4 bytes).
const PTTValueLen = itime.EncodedLen

// refUndefined marks a VTT entry cached from the PTT whose outstanding
// version count is unknown; such entries are never used to trigger GC
// ("we set the RefCount for the entry to undefined so that we don't garbage
// collect its PTT entry" — Section 2.2).
const refUndefined = -1

// ErrUnknownTID reports a stamping bookkeeping call for a TID with no VTT
// entry.
var ErrUnknownTID = errors.New("stamp: unknown transaction")

type vttEntry struct {
	ts        itime.Timestamp
	committed bool
	snapshot  bool // snapshot-isolation-only txn: VTT-only, never in the PTT
	refCount  int
	doneLSN   wal.LSN // end-of-log when refCount hit zero; 0 = not yet
	// commitLSN is the transaction's commit record, 0 when provably durable
	// already (PTT-cached and recovery-restored entries). Lazy stamping is
	// never logged, so a page carrying a freshly stamped version must not
	// reach disk before the log covers this LSN: recovery would otherwise
	// find a stamped — published — version of a transaction it must undo.
	commitLSN wal.LSN
}

// Manager owns the VTT and PTT.
type Manager struct {
	mu  sync.Mutex
	vtt map[itime.TID]*vttEntry
	ptt *cow.Tree

	// GCEnabled turns incremental PTT garbage collection on (the default).
	// The A3 ablation switches it off to measure unbounded PTT growth.
	GCEnabled bool

	// ForceLog, when set, forces the WAL durable through the given LSN.
	// SyncPTT calls it before hardening the PTT file: commit timestamps
	// enter the PTT while the commit record may still sit in the unsynced
	// log tail (the group-commit pipeline publishes the mapping before the
	// shared fsync), and the PTT is a separate file the log's append order
	// cannot protect. Without the force, a crash could leave a durable
	// TID→TS mapping for a transaction recovery must undo — lazy stamping
	// would then stamp a loser's versions.
	ForceLog func(wal.LSN) error

	// pttMaxCommitLSN is the highest commit-record LSN among transactions
	// inserted into the PTT since open; the WAL must be durable through it
	// before the PTT file is.
	pttMaxCommitLSN wal.LSN

	pttPuts, pttGets, pttDeletes, stamps, gcRuns uint64
}

// NewManager returns a Manager over the given PTT tree (which must have
// been opened with ValSize == PTTValueLen).
func NewManager(ptt *cow.Tree) *Manager {
	return &Manager{
		vtt:       make(map[itime.TID]*vttEntry),
		ptt:       ptt,
		GCEnabled: true,
	}
}

// Begin creates the VTT entry for a starting transaction (stage I): the TID
// is entered, the reference count is zero, and the entry has no timestamp
// yet (the transaction is active). snapshot marks transactions whose
// versions are needed only for snapshot isolation; their timestamps never
// persist.
func (m *Manager) Begin(tid itime.TID, snapshot bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.vtt[tid] = &vttEntry{snapshot: snapshot}
}

// AddRef counts n freshly written, non-timestamped versions against the
// transaction (stage II).
func (m *Manager) AddRef(tid itime.TID, n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.vtt[tid]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownTID, tid)
	}
	if e.refCount != refUndefined {
		e.refCount += n
	}
	return nil
}

// Commit records the transaction's timestamp (stage III): the VTT entry is
// completed, and — for transactions against transaction-time tables — a
// single PTT entry is written. The updated data records are NOT revisited;
// that is the entire point of lazy timestamping. commitLSN is the
// transaction's (already appended, not necessarily durable) commit record;
// MaxCommitLSN reports it to the buffer pool so pages stamped before the
// record's fsync completes still respect write-ahead. endOfLog supplies the
// current end-of-log LSN for transactions that committed with zero
// outstanding versions.
func (m *Manager) Commit(tid itime.TID, ts itime.Timestamp, persistent bool, commitLSN wal.LSN, endOfLog func() wal.LSN) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.vtt[tid]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownTID, tid)
	}
	e.ts = ts
	e.committed = true
	e.commitLSN = commitLSN
	if e.snapshot || !persistent {
		// Snapshot transactions are never entered into the PTT; their VTT
		// entry can be dropped as soon as the reference count reaches zero.
		if e.refCount == 0 {
			delete(m.vtt, tid)
		}
		return nil
	}
	var val [PTTValueLen]byte
	ts.Encode(val[:])
	if err := m.ptt.Put(uint64(tid), val[:]); err != nil {
		return fmt.Errorf("stamp: PTT insert for %d: %w", tid, err)
	}
	m.pttPuts++
	if commitLSN > m.pttMaxCommitLSN {
		m.pttMaxCommitLSN = commitLSN
	}
	if e.refCount == 0 {
		// Nothing to stamp (e.g. a read-only commit still entered here):
		// eligible for GC as soon as the watermark passes.
		e.doneLSN = endOfLog()
	}
	return nil
}

// SyncPTT makes buffered PTT changes durable, first forcing the WAL through
// every commit record whose timestamp the PTT carries (see ForceLog).
func (m *Manager) SyncPTT() error {
	m.mu.Lock()
	lsn := m.pttMaxCommitLSN
	force := m.ForceLog
	m.mu.Unlock()
	if lsn > 0 && force != nil {
		if err := force(lsn); err != nil {
			return fmt.Errorf("stamp: log force before PTT sync: %w", err)
		}
	}
	return m.ptt.Commit()
}

// UndoCommit reverses a Commit whose transaction failed to become durable —
// the commit record could not be appended or flushed. The VTT entry reverts
// to active and the buffered PTT insert is withdrawn, so the transaction can
// still be rolled back normally.
func (m *Manager) UndoCommit(tid itime.TID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.vtt[tid]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownTID, tid)
	}
	e.committed = false
	e.ts = itime.Timestamp{}
	e.doneLSN = 0
	e.commitLSN = 0
	if err := m.ptt.Delete(uint64(tid)); err != nil && !errors.Is(err, cow.ErrNotFound) {
		return fmt.Errorf("stamp: PTT withdraw for %d: %w", tid, err)
	}
	return nil
}

// Abort drops the transaction's VTT entry; its versions are being removed
// by rollback, so no timestamp will ever be needed.
func (m *Manager) Abort(tid itime.TID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.vtt, tid)
}

// Resolve maps a TID to its commit timestamp (stage IV support). ok is false
// while the transaction is active or after it aborted. A PTT hit is cached
// in the VTT with an undefined reference count so the PTT entry survives GC.
func (m *Manager) Resolve(tid itime.TID) (itime.Timestamp, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.vtt[tid]; ok {
		if !e.committed {
			return itime.Timestamp{}, false
		}
		return e.ts, true
	}
	val, err := m.ptt.Get(uint64(tid))
	if err != nil {
		return itime.Timestamp{}, false
	}
	m.pttGets++
	ts := itime.DecodeTimestamp(val)
	m.vtt[tid] = &vttEntry{ts: ts, committed: true, refCount: refUndefined}
	return ts, true
}

// MaxCommitLSN returns the highest commit-record LSN among the transactions
// in counts (as returned by a page's StampAll): the point the log must be
// durable through before a page carrying those freshly applied stamps may be
// written. TIDs resolved from the PTT or restored by recovery contribute
// nothing — their commit records are already durable (a PTT hit implies a
// synced PTT whose entry the durable log proved, and recovery read the
// record off disk).
func (m *Manager) MaxCommitLSN(counts map[itime.TID]int) wal.LSN {
	m.mu.Lock()
	defer m.mu.Unlock()
	var max wal.LSN
	for tid := range counts {
		if e, ok := m.vtt[tid]; ok && e.commitLSN > max {
			max = e.commitLSN
		}
	}
	return max
}

// NoteStamped records that counts[tid] versions of each transaction were
// lazily timestamped. When a transaction's count reaches zero its VTT entry
// remembers the end-of-log LSN; once the redo scan start point passes that
// LSN, all its stamps are stable on disk and its PTT entry can go.
func (m *Manager) NoteStamped(counts map[itime.TID]int, endOfLog func() wal.LSN) {
	if len(counts) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for tid, n := range counts {
		m.stamps += uint64(n)
		e, ok := m.vtt[tid]
		if !ok || e.refCount == refUndefined {
			continue
		}
		e.refCount -= n
		if e.refCount <= 0 {
			e.refCount = 0
			if e.snapshot {
				// Snapshot entries go immediately (Section 2.2, last para).
				delete(m.vtt, tid)
				continue
			}
			if e.doneLSN == 0 {
				e.doneLSN = endOfLog()
			}
		}
	}
}

// RunGC deletes PTT (and VTT) entries whose timestamping completed and whose
// stamped pages are provably on disk: the redo scan start point has moved
// past the entry's recorded end-of-log LSN. It returns how many entries were
// collected. The caller syncs the PTT afterwards (typically as part of a
// checkpoint).
func (m *Manager) RunGC(redoScanStart wal.LSN) (int, error) {
	if !m.GCEnabled {
		return 0, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gcRuns++
	// Collect in TID order so PTT mutations — and therefore the I/O they
	// cause — happen in a replayable sequence for crash-matrix tests.
	eligible := make([]itime.TID, 0, len(m.vtt))
	for tid, e := range m.vtt {
		if !e.committed || e.snapshot || e.refCount != 0 || e.doneLSN == 0 {
			continue
		}
		if redoScanStart <= e.doneLSN {
			continue
		}
		eligible = append(eligible, tid)
	}
	sort.Slice(eligible, func(i, j int) bool { return eligible[i] < eligible[j] })
	removed := 0
	for _, tid := range eligible {
		if err := m.ptt.Delete(uint64(tid)); err != nil && !errors.Is(err, cow.ErrNotFound) {
			return removed, fmt.Errorf("stamp: PTT delete for %d: %w", tid, err)
		}
		m.pttDeletes++
		delete(m.vtt, tid)
		removed++
	}
	return removed, nil
}

// RestoreCommitted re-creates a committed transaction's timestamp mapping
// during recovery redo: the PTT entry is reinserted if missing and a VTT
// entry with an undefined reference count is cached. The reference count is
// undefined because volatile counts were lost in the crash — such entries
// are never GC'd, the failure mode the paper explicitly accepts ("we simply
// end up with certain PTT entries that cannot be deleted").
func (m *Manager) RestoreCommitted(tid itime.TID, ts itime.Timestamp, persistent bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.vtt[tid] = &vttEntry{ts: ts, committed: true, refCount: refUndefined}
	if !persistent {
		return nil
	}
	var val [PTTValueLen]byte
	ts.Encode(val[:])
	if err := m.ptt.Put(uint64(tid), val[:]); err != nil {
		return fmt.Errorf("stamp: PTT restore for %d: %w", tid, err)
	}
	m.pttPuts++
	return nil
}

// PTTLen returns the number of entries in the persistent timestamp table.
func (m *Manager) PTTLen() uint64 { return m.ptt.Len() }

// ExportPTT streams every persistent timestamp entry, in TID order, to fn —
// the PTT half of a base snapshot for replica seeding. fn returning false
// stops the walk. Entries are read from the PTT's committed+buffered state
// under the manager's lock, so no commit can interleave a half-published
// mapping into the export.
func (m *Manager) ExportPTT(fn func(tid itime.TID, ts itime.Timestamp) bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ptt.Scan(0, ^uint64(0), func(k uint64, v []byte) bool {
		return fn(itime.TID(k), itime.DecodeTimestamp(v))
	})
}

// VTTLen returns the number of entries in the volatile timestamp table.
func (m *Manager) VTTLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.vtt)
}

// Pending reports whether tid still has unstamped versions outstanding
// (false also for unknown TIDs).
func (m *Manager) Pending(tid itime.TID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.vtt[tid]
	return ok && e.refCount > 0
}

// Stats returns counters: PTT puts/gets/deletes, versions stamped, GC runs.
type Stats struct {
	PTTPuts, PTTGets, PTTDeletes uint64
	VersionsStamped              uint64
	GCRuns                       uint64
}

// Snapshot returns a copy of the manager's counters.
func (m *Manager) Snapshot() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		PTTPuts:         m.pttPuts,
		PTTGets:         m.pttGets,
		PTTDeletes:      m.pttDeletes,
		VersionsStamped: m.stamps,
		GCRuns:          m.gcRuns,
	}
}
