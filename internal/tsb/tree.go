// Package tsb implements the time-split B-tree — Immortal DB's integrated
// storage structure housing all record versions, current and historical
// (Section 3, and Lomet & Salzberg's TSB-tree it builds on).
//
// Current and historical versions start on the same data page, linked by
// in-page version chains. Full current pages split by TIME (historical
// versions move to a history page chained from the current page) and, above
// a utilization threshold, additionally by KEY. Two historical access paths
// are provided, matching the paper:
//
//   - ModeChain: the measured prototype of Section 5 — only current pages
//     are indexed; as-of queries walk the history page chain backwards
//     comparing split times.
//   - ModeTSB: the full two-dimensional index of Section 3.4 — history pages
//     get index entries describing (key range × time range) rectangles, and
//     an as-of query descends directly to the one page that must contain the
//     version of interest.
package tsb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"immortaldb/internal/buffer"
	"immortaldb/internal/itime"
	"immortaldb/internal/obs"
	"immortaldb/internal/storage/disk"
	"immortaldb/internal/storage/page"
)

// Observability: the hop histogram records pages visited per chain read (0 =
// answered from the current page), the shape behind the paper's Figure 9
// read penalty. Split and hop totals are counted per tree (Snapshot).
var obsChainReadHops = obs.NewHistogram("immortaldb_tsb_chain_hops", "History-chain pages visited per chain read.", obs.CountBuckets)

// Mode selects the historical access path.
type Mode int

// Historical access modes.
const (
	// ModeChain indexes only current pages; history is reached by walking
	// each current page's time-split chain (the paper's prototype).
	ModeChain Mode = iota
	// ModeTSB posts index entries for historical pages, enabling direct
	// descent to any (key, time) point.
	ModeTSB
)

// DefaultThreshold is the storage utilization threshold T above which a time
// split is followed by a key split (Section 3.3 suggests ~70%, yielding
// single-timeslice utilization of about T·ln 2).
const DefaultThreshold = 0.70

// ErrNoSpace reports a record too large for any page.
var ErrNoSpace = errors.New("tsb: record larger than a page")

// RootChange describes a tree-root move carried inside a structure-
// modification record, made durable so recovery can find the tree.
type RootChange struct {
	Root   page.ID
	IsLeaf bool
}

// Logger receives structure modifications for the WAL. The returned LSN
// becomes every touched page's LSN. A nil Logger disables logging (unit
// tests).
type Logger interface {
	// LogSMO atomically logs one structure modification: full after-images
	// of every page it touched and, when root is non-nil, the root move.
	// Everything must land in ONE log record — a torn log tail has to keep
	// the whole modification or none of it, or recovery could rebuild a
	// child page without the parent entry (or root change) that routes to
	// the keys it absorbed.
	LogSMO(pages []any, root *RootChange) (lsn uint64, err error)
}

// Stamper resolves transaction IDs to commit timestamps and is told how many
// versions of each transaction were lazily stamped (Section 2.2, stage IV).
// A nil Stamper treats every TID as uncommitted.
type Stamper interface {
	Resolve(tid itime.TID) (itime.Timestamp, bool)
	NoteStamped(counts map[itime.TID]int)
	// MaxCommitLSN returns the highest commit-record LSN among the stamped
	// transactions — the write-ahead point for a page carrying their stamps.
	// It must be queried before NoteStamped, which may retire the entries.
	MaxCommitLSN(counts map[itime.TID]int) uint64
}

// Config configures a Tree.
type Config struct {
	Pool  *buffer.Pool
	Pager *disk.Pager
	// TableID tags lock keys and log records.
	TableID uint32
	// Logger may be nil (no WAL).
	Logger Logger
	// Stamper may be nil (no lazy timestamping).
	Stamper Stamper
	Mode    Mode
	// Threshold is the post-time-split utilization above which a key split
	// follows; 0 means DefaultThreshold.
	Threshold float64
	// Immortal enables time splits and forbids version GC. Non-immortal
	// versioned tables (snapshot isolation only) GC old versions instead of
	// time-splitting; their history never persists.
	Immortal bool
	// NoTail marks a conventional table: no version chains at all, updates
	// in place. Implies !Immortal.
	NoTail bool
	// SplitNow supplies the "current time" used as a time-split boundary: a
	// timestamp no later than the commit time of any transaction whose TID
	// mapping is not yet resolvable (Section 3.3: an uncommitted version
	// stays on the current page because it will commit after the split
	// time). splitLeaf reads it BEFORE lazily stamping the page, so every
	// version still TID-marked after stamping commits at or after it. The
	// engine wires it to the published-commit watermark.
	SplitNow func() itime.Timestamp
	// SnapshotHorizon returns the oldest timestamp any active snapshot
	// transaction can still read; versions strictly older than the version
	// visible there are reclaimable on non-immortal tables. A nil func
	// disables GC.
	SnapshotHorizon func() itime.Timestamp
	// Hist is the cold history tier. When a chain walk runs off the end of
	// the in-tree history (Hist == 0) without reaching a page covering the
	// requested time, the versions migrated into compacted runs answer
	// through it. nil means the chain is complete — the pre-migration
	// invariant that the first page ever created has StartTS == 0.
	Hist HistStore
	// OnTimeSplit, when non-nil, is called after every successful time split,
	// inside the tree's writer section. It must not block; the engine wires
	// it to a non-blocking kick of the history compactor.
	OnTimeSplit func()
}

// Tree is one table's time-split B-tree. The engine serializes structural
// mutations; Tree adds its own lock so independent tables can proceed in
// parallel and reads can run concurrently with each other.
type Tree struct {
	cfg Config

	mu         sync.RWMutex
	root       page.ID
	rootIsLeaf bool

	keySplits, timeSplits atomic.Uint64
	chainHops             atomic.Uint64 // history pages visited by chain walks
}

// Open attaches a Tree to an existing root.
func Open(cfg Config, root page.ID, rootIsLeaf bool) *Tree {
	if cfg.Threshold == 0 {
		cfg.Threshold = DefaultThreshold
	}
	return &Tree{cfg: cfg, root: root, rootIsLeaf: rootIsLeaf}
}

// Create allocates the initial (empty, unbounded, current) data page and
// returns the new tree.
func Create(cfg Config) (*Tree, error) {
	if cfg.Threshold == 0 {
		cfg.Threshold = DefaultThreshold
	}
	id, err := cfg.Pager.Allocate()
	if err != nil {
		return nil, err
	}
	leaf := page.NewData(id, cfg.Pool.PageSize())
	leaf.NoTail = cfg.NoTail
	t := &Tree{cfg: cfg, root: id, rootIsLeaf: true}
	lsn, err := t.logSMO([]any{leaf}, &RootChange{Root: id, IsLeaf: true})
	if err != nil {
		return nil, err
	}
	leaf.LSN = lsn
	f, err := cfg.Pool.NewPage(id, leaf, lsn)
	if err != nil {
		return nil, err
	}
	cfg.Pool.Release(f)
	return t, nil
}

// Root returns the root page and whether it is a leaf, for catalog
// persistence.
func (t *Tree) Root() (page.ID, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.root, t.rootIsLeaf
}

// Exclusive runs fn holding the tree's writer lock, excluding every reader
// and writer. Live replica redo uses it to install multi-page structure
// modifications atomically with respect to the AS OF reads it serves
// concurrently — a reader never observes a split half-applied.
func (t *Tree) Exclusive(fn func() error) error {
	return t.ApplyExclusive(fn, nil)
}

// ApplyExclusive runs fn under the tree's writer lock and, if fn succeeds
// and rc is non-nil, repositions the root in the same critical section —
// the page installs and the root move of one replicated structure
// modification become a single atomic step for concurrent readers.
func (t *Tree) ApplyExclusive(fn func() error, rc *RootChange) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := fn(); err != nil {
		return err
	}
	if rc != nil {
		t.root, t.rootIsLeaf = rc.Root, rc.IsLeaf
	}
	return nil
}

// SetRoot repositions the tree (recovery applying a root-change record).
func (t *Tree) SetRoot(root page.ID, isLeaf bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.root = root
	t.rootIsLeaf = isLeaf
}

// Stats describes tree activity.
type Stats struct {
	TimeSplits, KeySplits uint64
	ChainHops             uint64
}

// Snapshot returns activity counters.
func (t *Tree) Snapshot() Stats {
	return Stats{
		TimeSplits: t.timeSplits.Load(),
		KeySplits:  t.keySplits.Load(),
		ChainHops:  t.chainHops.Load(),
	}
}

func (t *Tree) logSMO(pages []any, root *RootChange) (uint64, error) {
	if t.cfg.Logger == nil {
		return 0, nil
	}
	return t.cfg.Logger.LogSMO(pages, root)
}

// resolve adapts the Stamper to page.Resolver.
func (t *Tree) resolve(tid itime.TID) (itime.Timestamp, bool) {
	if t.cfg.Stamper == nil {
		return itime.Timestamp{}, false
	}
	return t.cfg.Stamper.Resolve(tid)
}

// stampPage lazily timestamps every committed version on dp and reports the
// counts to the Stamper. It returns true if anything was stamped (the page
// must then be marked dirty). Timestamping is never logged, so the page's
// StampLSN advances to the stamped transactions' highest commit-record LSN
// instead — the buffer pool flushes the log through it before a page write.
// Callers must hold either the tree's exclusive lock or the frame's
// exclusive latch.
func (t *Tree) stampPage(dp *page.DataPage) bool {
	if t.cfg.Stamper == nil || !dp.HasUnstamped() {
		return false
	}
	counts := dp.StampAll(t.resolve)
	if len(counts) == 0 {
		return false
	}
	if lsn := t.cfg.Stamper.MaxCommitLSN(counts); lsn > dp.StampLSN {
		dp.StampLSN = lsn
	}
	t.cfg.Stamper.NoteStamped(counts)
	return true
}

// pathEntry is one index page on a descent path, with the rectangle the
// parent assigned it (the root gets the unbounded rectangle).
type pathEntry struct {
	frame *buffer.Frame
	rect  page.Rect
}

// releasePath unpins the frames of a descent path.
func (t *Tree) releasePath(path []pathEntry) {
	for _, pe := range path {
		t.cfg.Pool.Release(pe.frame)
	}
}

var everything = page.Rect{HighTS: itime.Max}

// descend walks from the root towards the data page containing (key, ts),
// returning the index path (possibly empty) and the pinned leaf frame. The
// caller must hold t.mu (read or write).
func (t *Tree) descend(key []byte, ts itime.Timestamp) ([]pathEntry, *buffer.Frame, error) {
	root, rootIsLeaf := t.root, t.rootIsLeaf
	if rootIsLeaf {
		f, err := t.cfg.Pool.Fetch(root)
		return nil, f, err
	}
	var path []pathEntry
	id := root
	rect := everything
	for {
		f, err := t.cfg.Pool.Fetch(id)
		if err != nil {
			t.releasePath(path)
			return nil, nil, err
		}
		ip := f.Index()
		if ip == nil {
			// Reached a data page.
			return path, f, nil
		}
		path = append(path, pathEntry{frame: f, rect: rect})
		e, ok := ip.FindChild(key, ts)
		if !ok {
			t.releasePath(path)
			return nil, nil, fmt.Errorf("tsb: index page %d has no child for (%q, %v)", id, key, ts)
		}
		id = e.Child
		rect = e.R
	}
}
