// Package buffer implements the buffer pool: an LRU cache of decoded pages
// over the disk pager, enforcing the write-ahead rule (log flushed up to a
// page's LSN before the page is written) and exposing the pre-flush hook
// that drives flush-triggered lazy timestamping ("just before a cached page
// is flushed to disk, we check whether the page contains any non-timestamped
// records from committed transactions" — Section 2.2).
package buffer

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"immortaldb/internal/itime"
	"immortaldb/internal/obs"
	"immortaldb/internal/storage/disk"
	"immortaldb/internal/storage/page"
)

// Observability: header-only chain reads and the latency of writing a dirty
// page out (pre-flush stamping + WAL force + physical write). Hits, misses
// and evictions are counted per pool (Stats).
var (
	obsHeaderReads = obs.NewCounter("immortaldb_buffer_header_reads_total",
		"Pages a history-chain walk read from disk for their header alone, neither decoded nor installed.")
	obsFlushLat = obs.NewHistogram("immortaldb_buffer_flush_seconds",
		"Latency of flushing one dirty page (lazy stamping, write-ahead force, encode, write).", obs.LatencyBuckets)
)

// ErrAllPinned reports that the pool is full of pinned pages and cannot
// evict. It indicates a pin leak or an undersized pool.
var ErrAllPinned = errors.New("buffer: all frames pinned")

// ErrReadOnly reports that the pool refused to write a dirty page because it
// has been switched read-only (the engine degraded after an I/O failure).
// Clean frames can still be evicted and reads keep being served.
var ErrReadOnly = errors.New("buffer: pool is read-only (engine degraded)")

// Frame is a cached page. Callers receive a pinned frame from Fetch or
// NewPage and must Release it; the frame's decoded page must not be touched
// after release.
type Frame struct {
	id     page.ID
	pg     any // *page.DataPage | *page.IndexPage | *page.BlobPage
	dirty  bool
	recLSN uint64 // LSN of the first change since the page was last clean
	pins   int
	elem   *list.Element
	// latch protects the decoded page's contents between concurrent pin
	// holders. Most of the storage layer needs no latching — writers hold the
	// table tree's exclusive lock, and unpinned frames are only touched under
	// the pool mutex — but lazy timestamping mutates version fields in place
	// under the tree's SHARED lock, so readers of a current page take the
	// read latch and the stamping path takes the write latch.
	latch sync.RWMutex
}

// ID returns the page ID.
func (f *Frame) ID() page.ID { return f.id }

// Page returns the decoded page.
func (f *Frame) Page() any { return f.pg }

// Data returns the decoded page as a data page, or nil.
func (f *Frame) Data() *page.DataPage {
	d, _ := f.pg.(*page.DataPage)
	return d
}

// Index returns the decoded page as an index page, or nil.
func (f *Frame) Index() *page.IndexPage {
	d, _ := f.pg.(*page.IndexPage)
	return d
}

// RLatch takes the frame's shared content latch. Callers must hold a pin.
func (f *Frame) RLatch() { f.latch.RLock() }

// RUnlatch releases the shared content latch.
func (f *Frame) RUnlatch() { f.latch.RUnlock() }

// Latch takes the frame's exclusive content latch (in-place stamping).
func (f *Frame) Latch() { f.latch.Lock() }

// Unlatch releases the exclusive content latch.
func (f *Frame) Unlatch() { f.latch.Unlock() }

// Pool is the buffer pool. It is safe for concurrent use, but the decoded
// pages it hands out are not internally locked: the storage layer above
// (the TSB-tree) serializes access to page contents.
type Pool struct {
	mu     sync.Mutex
	pager  *disk.Pager
	cap    int
	frames map[page.ID]*Frame
	lru    *list.List // front = most recently used; holds *Frame

	// PreFlush, when set, runs on a dirty page immediately before it is
	// encoded and written — the lazy-timestamping flush trigger. Changes it
	// makes are included in the write but do not move the page LSN
	// (timestamping is never logged).
	PreFlush func(pg any)
	// FlushLSN, when set, is called with a dirty page's LSN before the page
	// is written; it must make the log durable at least that far.
	FlushLSN func(lsn uint64) error
	// PreWrite, when set, sees the encoded bytes of every dirty page just
	// before the physical write and returns an LSN the log must be durable
	// through first. It implements full-page-writes: the hook logs a page
	// image so recovery can repair a write torn by a crash.
	PreWrite func(id page.ID, buf []byte) (uint64, error)
	// OnWriteError, when set, is told about every failed dirty-page write
	// (encode, write-ahead force, or physical write). The engine uses it to
	// degrade to read-only: a page whose write failed may be half on disk, so
	// no later state may be trusted until recovery re-reads it. The hook runs
	// with the pool mutex held and must not call back into the pool.
	OnWriteError func(err error)

	readOnly atomic.Bool

	// scratch receives the pages Hop reads for their header alone. It is
	// guarded by mu and handed to the page when a hop stops at it.
	scratch []byte
	// heads remembers the header fields of pages Hop read from disk and did
	// not install. An entry goes stale exactly when a cached frame would:
	// a page's bytes on disk change only through a frame installed here or
	// after a Drop, and both forget the page's entry. Guarded by mu.
	heads map[page.ID]pageHead

	hits, misses, evictions, flushes uint64
}

// New returns a pool of at most capacity frames over pager.
func New(pager *disk.Pager, capacity int) *Pool {
	if capacity < 4 {
		capacity = 4
	}
	return &Pool{
		pager:  pager,
		cap:    capacity,
		frames: make(map[page.ID]*Frame, capacity),
		lru:    list.New(),
		heads:  make(map[page.ID]pageHead),
	}
}

// pageHead is what a history-chain walk needs from a page it passes.
type pageHead struct {
	startTS itime.Timestamp
	hist    page.ID
}

// headsPerFrame bounds the remembered headers at this many per frame —
// about 50 bytes each against a frame's 8 KB and more, so they cost a few
// percent of the pool's memory. Reaching the bound forgets them all.
const headsPerFrame = 8

// PageSize returns the underlying page size.
func (p *Pool) PageSize() int { return p.pager.PageSize() }

// SetReadOnly switches the pool into (or out of) read-only mode. While
// read-only the pool never writes a dirty page: eviction only takes clean
// victims and FlushAll returns ErrReadOnly for dirty frames, so a
// degraded engine keeps serving reads from clean pages without touching disk.
func (p *Pool) SetReadOnly(ro bool) { p.readOnly.Store(ro) }

// Fetch returns a pinned frame for page id, reading and decoding it if not
// cached.
func (p *Pool) Fetch(id page.ID) (*Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.frames[id]; ok {
		p.hits++
		f.pins++
		p.lru.MoveToFront(f.elem)
		return f, nil
	}
	p.misses++
	buf, err := p.pager.ReadPage(id)
	if err != nil {
		return nil, err
	}
	pg, err := page.Unmarshal(buf)
	if err != nil {
		return nil, fmt.Errorf("buffer: decode page %d: %w", id, err)
	}
	return p.installLocked(id, pg)
}

// Hop takes one step down a history chain: it reads data page id's split
// time and history pointer and, when stop(startTS) reports that the walk has
// arrived, returns the page pinned exactly as Fetch would. Otherwise f is nil
// and next is the page's history pointer.
//
// A page the walk only passes through is never pinned, decoded or
// installed. A resident one answers from its decoded copy (a hit that
// touches the LRU); a non-resident one is read, checksum verified, into a
// scratch buffer the pool owns and counts as a header read, not a miss, and
// its two fields are remembered so the next walk past it reads nothing. A
// non-resident page the walk stops at is decoded from the bytes already read
// and installed (a miss), so a walk reads each page at most once.
func (p *Pool) Hop(id page.ID, stop func(startTS itime.Timestamp) bool) (next page.ID, f *Frame, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.frames[id]; ok {
		p.hits++
		p.lru.MoveToFront(f.elem)
		dp, ok := f.pg.(*page.DataPage)
		if !ok {
			return 0, nil, fmt.Errorf("buffer: hop to non-data page %d", id)
		}
		if !stop(dp.StartTS) {
			return dp.Hist, nil, nil
		}
		f.pins++
		return 0, f, nil
	}
	if h, ok := p.heads[id]; ok && !stop(h.startTS) {
		return h.hist, nil, nil
	}
	if p.scratch == nil {
		p.scratch = make([]byte, p.pager.PageSize())
	}
	if err := p.pager.ReadPageInto(id, p.scratch); err != nil {
		return 0, nil, err
	}
	startTS, hist, err := page.DataHeader(p.scratch)
	if err != nil {
		return 0, nil, fmt.Errorf("buffer: decode page %d header: %w", id, err)
	}
	if !stop(startTS) {
		obsHeaderReads.Inc()
		if len(p.heads) >= headsPerFrame*p.cap {
			clear(p.heads)
		}
		p.heads[id] = pageHead{startTS: startTS, hist: hist}
		return hist, nil, nil
	}
	p.misses++
	// The decoded page aliases the bytes it was decoded from, so the scratch
	// buffer becomes the page's own and the next hop allocates another.
	buf := p.scratch
	p.scratch = nil
	dp, err := page.UnmarshalData(buf)
	if err != nil {
		return 0, nil, fmt.Errorf("buffer: decode page %d: %w", id, err)
	}
	f, err = p.installLocked(id, dp)
	return 0, f, err
}

// NewPage installs a freshly created decoded page (whose ID the caller
// already allocated from the pager) into the pool, pinned and dirty.
func (p *Pool) NewPage(id page.ID, pg any, recLSN uint64) (*Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.frames[id]; ok {
		return nil, fmt.Errorf("buffer: page %d already cached", id)
	}
	f, err := p.installLocked(id, pg)
	if err != nil {
		return nil, err
	}
	f.dirty = true
	f.recLSN = recLSN
	return f, nil
}

func (p *Pool) installLocked(id page.ID, pg any) (*Frame, error) {
	if err := p.evictIfFullLocked(); err != nil {
		return nil, err
	}
	f := &Frame{id: id, pg: pg, pins: 1}
	f.elem = p.lru.PushFront(f)
	p.frames[id] = f
	delete(p.heads, id)
	return f, nil
}

func (p *Pool) evictIfFullLocked() error {
	readOnly := p.readOnly.Load()
	for len(p.frames) >= p.cap {
		// Strict LRU write-back: the least recently used unpinned frame goes,
		// written out first if dirty, so cold dirty pages cannot crowd out hot
		// clean ones. A read-only (degraded) pool may not write: clean only.
		var victim *Frame
		dirtyLeft := false
		for e := p.lru.Back(); e != nil; e = e.Prev() {
			f := e.Value.(*Frame)
			if f.pins != 0 {
				continue
			}
			if f.dirty && readOnly {
				dirtyLeft = true
				continue
			}
			victim = f
			break
		}
		if victim == nil {
			if dirtyLeft {
				return fmt.Errorf("%w: no clean frame to evict", ErrReadOnly)
			}
			return ErrAllPinned
		}
		if err := p.writeFrameLocked(victim); err != nil {
			return err
		}
		p.lru.Remove(victim.elem)
		delete(p.frames, victim.id)
		p.evictions++
	}
	return nil
}

// Release unpins a frame obtained from Fetch or NewPage.
func (p *Pool) Release(f *Frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f.pins <= 0 {
		panic(fmt.Sprintf("buffer: release of unpinned page %d", f.id))
	}
	f.pins--
}

// MarkDirty records that the frame's page was modified by a log record at
// lsn. The first dirtying LSN since the page was clean becomes its RecLSN
// for the dirty-page table.
func (p *Pool) MarkDirty(f *Frame, lsn uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !f.dirty {
		f.dirty = true
		f.recLSN = lsn
	}
}

// With fetches page id, runs fn on the decoded page, and releases it.
func (p *Pool) With(id page.ID, fn func(pg any) error) error {
	f, err := p.Fetch(id)
	if err != nil {
		return err
	}
	defer p.Release(f)
	return fn(f.pg)
}

// pageLSN extracts the LSN header field from a decoded page.
func pageLSN(pg any) uint64 {
	switch v := pg.(type) {
	case *page.DataPage:
		return v.LSN
	case *page.IndexPage:
		return v.LSN
	default:
		return 0
	}
}

// writeFrameLocked encodes and writes a frame if dirty, running the
// pre-flush hook and the write-ahead check first. Pinned frames are left
// alone: their holder may be mutating the decoded page right now, and a
// fuzzy checkpoint simply keeps them in the dirty-page table.
func (p *Pool) writeFrameLocked(f *Frame) (err error) {
	if !f.dirty || f.pins > 0 {
		return nil
	}
	if p.readOnly.Load() {
		return fmt.Errorf("%w: dirty page %d", ErrReadOnly, f.id)
	}
	defer func() {
		if err != nil && p.OnWriteError != nil {
			p.OnWriteError(err)
		}
	}()
	defer obsFlushLat.ObserveSince(obs.Now())
	if p.PreFlush != nil {
		p.PreFlush(f.pg)
	}
	buf := make([]byte, p.pager.PageSize())
	switch v := f.pg.(type) {
	case *page.DataPage:
		err = v.Marshal(buf)
	case *page.IndexPage:
		err = v.Marshal(buf)
	case *page.BlobPage:
		err = v.Marshal(buf)
	default:
		err = fmt.Errorf("buffer: cannot encode %T", f.pg)
	}
	if err != nil {
		return fmt.Errorf("buffer: encode page %d: %w", f.id, err)
	}
	// Write-ahead: the log must be durable through the page's own LSN, the
	// commit records of any lazily stamped versions (StampLSN — stamping is
	// not logged, so the page LSN does not cover it) and through the image
	// record PreWrite just appended.
	lsn := pageLSN(f.pg)
	if dp, ok := f.pg.(*page.DataPage); ok && dp.StampLSN > lsn {
		lsn = dp.StampLSN
	}
	if p.PreWrite != nil {
		imageLSN, err := p.PreWrite(f.id, buf)
		if err != nil {
			return fmt.Errorf("buffer: page image for page %d: %w", f.id, err)
		}
		if imageLSN > lsn {
			lsn = imageLSN
		}
	}
	if p.FlushLSN != nil && lsn != 0 {
		if err := p.FlushLSN(lsn); err != nil {
			return fmt.Errorf("buffer: WAL flush for page %d: %w", f.id, err)
		}
	}
	if err := p.pager.WritePage(f.id, buf); err != nil {
		return err
	}
	f.dirty = false
	f.recLSN = 0
	p.flushes++
	return nil
}

// FlushAll writes every dirty page. With sync set it also fsyncs the pager,
// making the flush a durable (sharp) checkpoint of page state.
func (p *Pool) FlushAll(sync bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Flush in page-ID order: the physical write sequence must be a pure
	// function of the workload so crash-matrix tests can replay an exact
	// crash point.
	ids := make([]page.ID, 0, len(p.frames))
	for id := range p.frames {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if err := p.writeFrameLocked(p.frames[id]); err != nil {
			return err
		}
	}
	if sync {
		return p.pager.Sync()
	}
	return nil
}

// DirtyPages returns the dirty-page table: page ID to RecLSN.
func (p *Pool) DirtyPages() map[page.ID]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[page.ID]uint64)
	for id, f := range p.frames {
		if f.dirty {
			out[id] = f.recLSN
		}
	}
	return out
}

// Drop removes a page from the cache without writing it, for pages being
// freed or about to be written around the pool. The page must be unpinned.
func (p *Pool) Drop(id page.ID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.heads, id)
	f, ok := p.frames[id]
	if !ok {
		return nil
	}
	if f.pins != 0 {
		return fmt.Errorf("buffer: drop of pinned page %d", id)
	}
	p.lru.Remove(f.elem)
	delete(p.frames, id)
	return nil
}

// Stats returns cache counters: hits, misses, evictions, page flushes.
func (p *Pool) Stats() (hits, misses, evictions, flushes uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses, p.evictions, p.flushes
}

// Len returns the number of cached frames.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.frames)
}
