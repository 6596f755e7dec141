// Package disk implements the page file: fixed-size pages addressed by
// page.ID, with CRC32C checksums, a persistent free list, and a small engine
// metadata area kept in two alternating meta pages so a torn meta write can
// never brick the file.
package disk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"immortaldb/internal/storage/page"
	"immortaldb/internal/storage/vfs"
)

// Errors returned by the pager.
var (
	ErrChecksum  = errors.New("disk: page checksum mismatch")
	ErrBadMeta   = errors.New("disk: bad or foreign meta page")
	ErrOutOfFile = errors.New("disk: page beyond end of file")
	ErrClosed    = errors.New("disk: pager closed")
)

const (
	magic         = 0x494d4d44420a01 // "IMMDB\n" + version tag
	formatVersion = 2
	// metaFixedLen is the meta page layout after the frame header:
	// magic(8) version(4) pageSize(4) metaVer(8) freeHead(8) metaLen(4).
	metaFixedLen = 8 + 4 + 4 + 8 + 8 + 4
	// metaPages is the number of reserved meta pages at the front of the
	// file. Meta writes ping-pong between them (slot = metaVer % 2), and
	// every meta write is fsynced before the next one starts, so at any
	// instant at most one slot is at risk of tearing: Open recovers the
	// other, older slot. Data pages start at ID metaPages.
	metaPages = 2
)

// FirstDataPage is the ID of the first non-meta page — where a base-snapshot
// page copy starts.
const FirstDataPage = page.ID(metaPages)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Pager manages a single page file. It is safe for concurrent use.
type Pager struct {
	mu       sync.Mutex
	f        vfs.File
	pageSize int
	numPages uint64 // includes the meta pages
	metaVer  uint64 // version of the live meta slot; slot index = metaVer % 2
	freeHead page.ID
	meta     []byte
	closed   bool
	// syncs and writes count physical operations, for benchmarks.
	writes uint64
	reads  uint64
	syncs  uint64
}

// Open opens or creates the page file at path on the real filesystem. For a
// new file, pageSize sets the page size; for an existing file pageSize must
// match the stored value (or be 0 to accept whatever the file uses).
func Open(path string, pageSize int) (*Pager, error) {
	return OpenFS(vfs.OS(), path, pageSize)
}

// OpenFS is Open on an arbitrary filesystem — vfs.OS for production,
// vfs.SimFS for crash testing.
func OpenFS(fsys vfs.FS, path string, pageSize int) (*Pager, error) {
	f, err := fsys.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("disk: open %s: %w", path, err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("disk: size %s: %w", path, err)
	}
	p := &Pager{f: f}
	if size == 0 {
		if pageSize == 0 {
			pageSize = page.DefaultSize
		}
		if pageSize < page.MinSize {
			f.Close()
			return nil, fmt.Errorf("disk: page size %d below minimum %d", pageSize, page.MinSize)
		}
		p.pageSize = pageSize
		p.numPages = metaPages
		if err := f.Truncate(int64(metaPages) * int64(pageSize)); err != nil {
			f.Close()
			return nil, fmt.Errorf("disk: extend file: %w", err)
		}
		// Write and fsync the initial meta so a crash after Open returns
		// finds at least one valid slot.
		if err := p.writeMeta(); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("disk: sync: %w", err)
		}
		return p, nil
	}
	if err := p.readMeta(pageSize); err != nil {
		f.Close()
		return nil, err
	}
	if pageSize != 0 && pageSize != p.pageSize {
		f.Close()
		return nil, fmt.Errorf("%w: page size %d, file uses %d", ErrBadMeta, pageSize, p.pageSize)
	}
	// Derive the page count from the file size: it survives crashes that
	// happen after extending the file but before a meta write.
	p.numPages = uint64(size) / uint64(p.pageSize)
	if p.numPages < metaPages {
		p.numPages = metaPages
	}
	return p, nil
}

// PageSize returns the page size in bytes.
func (p *Pager) PageSize() int { return p.pageSize }

// NumPages returns the number of pages in the file, the meta pages included.
func (p *Pager) NumPages() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.numPages
}

// Stats returns physical I/O counters: pages read, pages written, syncs.
func (p *Pager) Stats() (reads, writes, syncs uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reads, p.writes, p.syncs
}

// writeMeta writes the next version of the meta into the alternate slot.
// Callers MUST make the write durable (fsync) before the next writeMeta, or
// a crash could tear both slots. On error the in-memory version is not
// advanced, so a retry targets the same slot.
func (p *Pager) writeMeta() error {
	if page.PayloadOff+metaFixedLen+len(p.meta) > p.pageSize {
		return fmt.Errorf("disk: engine meta too large: %d bytes", len(p.meta))
	}
	ver := p.metaVer + 1
	buf := make([]byte, p.pageSize)
	buf[page.TypeOff] = byte(page.TypeMeta)
	off := page.PayloadOff
	binary.BigEndian.PutUint64(buf[off:], magic)
	binary.BigEndian.PutUint32(buf[off+8:], formatVersion)
	binary.BigEndian.PutUint32(buf[off+12:], uint32(p.pageSize))
	binary.BigEndian.PutUint64(buf[off+16:], ver)
	binary.BigEndian.PutUint64(buf[off+24:], uint64(p.freeHead))
	binary.BigEndian.PutUint32(buf[off+32:], uint32(len(p.meta)))
	copy(buf[off+36:], p.meta)
	binary.BigEndian.PutUint32(buf[page.ChecksumOff:], crc32.Checksum(buf[4:], crcTable))
	slot := int64(ver % metaPages)
	if _, err := p.f.WriteAt(buf, slot*int64(p.pageSize)); err != nil {
		return fmt.Errorf("disk: write meta: %w", err)
	}
	p.metaVer = ver
	p.writes++
	return nil
}

// metaSlot holds one decoded meta page.
type metaSlot struct {
	pageSize int
	ver      uint64
	freeHead page.ID
	meta     []byte
}

// readSlot reads and validates the meta page in the given slot, assuming
// page size ps. It returns nil if the slot is absent, torn, or foreign.
func (p *Pager) readSlot(slot int, ps int) *metaSlot {
	buf := make([]byte, ps)
	if _, err := p.f.ReadAt(buf, int64(slot)*int64(ps)); err != nil {
		return nil
	}
	if got, want := crc32.Checksum(buf[4:], crcTable), binary.BigEndian.Uint32(buf[page.ChecksumOff:]); got != want {
		return nil
	}
	off := page.PayloadOff
	if binary.BigEndian.Uint64(buf[off:]) != magic {
		return nil
	}
	if binary.BigEndian.Uint32(buf[off+8:]) != formatVersion {
		return nil
	}
	m := &metaSlot{
		pageSize: int(binary.BigEndian.Uint32(buf[off+12:])),
		ver:      binary.BigEndian.Uint64(buf[off+16:]),
		freeHead: page.ID(binary.BigEndian.Uint64(buf[off+24:])),
	}
	if m.pageSize != ps {
		return nil // valid-looking page at the wrong granularity
	}
	if int(m.ver%metaPages) != slot {
		return nil // stale copy left behind in the wrong slot
	}
	n := binary.BigEndian.Uint32(buf[off+32:])
	if int(n) > ps-page.PayloadOff-metaFixedLen {
		return nil
	}
	m.meta = append([]byte(nil), buf[off+36:off+36+int(n)]...)
	return m
}

// readMeta locates the newest valid meta slot. The page size is stored
// inside the slots themselves, so it bootstraps from slot 0's header, the
// caller's hint, and a power-of-two probe — slot 1 lives at offset pageSize,
// which is unknowable until a size is assumed.
func (p *Pager) readMeta(hint int) error {
	var candidates []int
	seen := map[int]bool{}
	add := func(ps int) {
		if ps >= page.MinSize && !seen[ps] {
			seen[ps] = true
			candidates = append(candidates, ps)
		}
	}
	head := make([]byte, page.PayloadOff+metaFixedLen)
	if _, err := p.f.ReadAt(head, 0); err == nil &&
		binary.BigEndian.Uint64(head[page.PayloadOff:]) == magic {
		add(int(binary.BigEndian.Uint32(head[page.PayloadOff+12:])))
	}
	add(hint)
	for ps := page.MinSize; ps <= 1<<16; ps <<= 1 {
		add(ps)
	}
	for _, ps := range candidates {
		s0 := p.readSlot(0, ps)
		s1 := p.readSlot(1, ps)
		best := s0
		if best == nil || (s1 != nil && s1.ver > best.ver) {
			best = s1
		}
		if best == nil {
			continue
		}
		p.pageSize = best.pageSize
		p.metaVer = best.ver
		p.freeHead = best.freeHead
		p.meta = best.meta
		return nil
	}
	return fmt.Errorf("%w: no valid meta slot", ErrBadMeta)
}

// GetMeta returns a copy of the engine metadata blob.
func (p *Pager) GetMeta() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]byte(nil), p.meta...)
}

// SetMeta stores the engine metadata blob, writes the meta slot through, and
// fsyncs, honoring the one-slot-at-risk discipline.
func (p *Pager) SetMeta(b []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	old := p.meta
	p.meta = append([]byte(nil), b...)
	if err := p.writeMeta(); err != nil {
		p.meta = old
		return err
	}
	if err := p.f.Sync(); err != nil {
		return fmt.Errorf("disk: sync: %w", err)
	}
	return nil
}

// MetaCapacity returns the maximum engine metadata blob size.
func (p *Pager) MetaCapacity() int {
	return p.pageSize - page.PayloadOff - metaFixedLen
}

// ReadPage reads page id into a freshly allocated buffer, verifying its
// checksum.
func (p *Pager) ReadPage(id page.ID) ([]byte, error) {
	buf := make([]byte, p.pageSize)
	if err := p.ReadPageInto(id, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadPageInto reads page id into buf, which must be exactly one page long,
// verifying its checksum. buf's contents are undefined after an error.
func (p *Pager) ReadPageInto(id page.ID, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if len(buf) != p.pageSize {
		return fmt.Errorf("disk: read of page %d into %d bytes, page is %d", id, len(buf), p.pageSize)
	}
	if id < metaPages {
		return fmt.Errorf("disk: page %d is a meta page", id)
	}
	if uint64(id) >= p.numPages {
		return fmt.Errorf("%w: page %d of %d", ErrOutOfFile, id, p.numPages)
	}
	if _, err := p.f.ReadAt(buf, int64(id)*int64(p.pageSize)); err != nil {
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("%w: page %d", ErrOutOfFile, id)
		}
		return fmt.Errorf("disk: read page %d: %w", id, err)
	}
	if got, want := crc32.Checksum(buf[4:], crcTable), binary.BigEndian.Uint32(buf[page.ChecksumOff:]); got != want {
		return fmt.Errorf("%w: page %d", ErrChecksum, id)
	}
	p.reads++
	return nil
}

// WritePage writes buf (exactly one page) to page id, stamping its checksum.
func (p *Pager) WritePage(id page.ID, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.writePageLocked(id, buf)
}

func (p *Pager) writePageLocked(id page.ID, buf []byte) error {
	if p.closed {
		return ErrClosed
	}
	if len(buf) != p.pageSize {
		return fmt.Errorf("disk: write of %d bytes to %d-byte page", len(buf), p.pageSize)
	}
	if id < metaPages {
		return fmt.Errorf("disk: page %d is a meta page", id)
	}
	if uint64(id) >= p.numPages {
		return fmt.Errorf("%w: page %d of %d", ErrOutOfFile, id, p.numPages)
	}
	binary.BigEndian.PutUint32(buf[page.ChecksumOff:], crc32.Checksum(buf[4:], crcTable))
	if _, err := p.f.WriteAt(buf, int64(id)*int64(p.pageSize)); err != nil {
		return fmt.Errorf("disk: write page %d: %w", id, err)
	}
	p.writes++
	return nil
}

// Allocate returns a fresh page ID, reusing the free list when possible. The
// page's prior content is undefined; callers must fully write it.
func (p *Pager) Allocate() (page.ID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, ErrClosed
	}
	if id := p.freeHead; id != 0 {
		if uint64(id) < p.numPages {
			buf := make([]byte, p.pageSize)
			if _, err := p.f.ReadAt(buf, int64(id)*int64(p.pageSize)); err != nil {
				return 0, fmt.Errorf("disk: read free page %d: %w", id, err)
			}
			if page.TypeOf(buf) == page.TypeFree {
				p.freeHead = page.ID(binary.BigEndian.Uint64(buf[page.PayloadOff:]))
				return id, nil
			}
		}
		// The head reaches the meta page only at Sync, unordered against the
		// pages it speaks of, so after a crash it can name a page that was
		// reallocated since — and that redo has just rewritten as a live page
		// — or one whose file growth was lost. Nothing behind a stale head is
		// reachable: drop the list (its pages leak, the safe outcome Sync
		// documents) and extend the file instead.
		p.freeHead = 0
	}
	id := page.ID(p.numPages)
	p.numPages++
	// Extend the file so the page is addressable; content stays undefined
	// until the caller writes it.
	if err := p.f.Truncate(int64(p.numPages) * int64(p.pageSize)); err != nil {
		p.numPages--
		return 0, fmt.Errorf("disk: extend file: %w", err)
	}
	return id, nil
}

// Free returns page id to the free list.
func (p *Pager) Free(id page.ID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if id < metaPages || uint64(id) >= p.numPages {
		return fmt.Errorf("disk: cannot free page %d", id)
	}
	buf := make([]byte, p.pageSize)
	buf[page.TypeOff] = byte(page.TypeFree)
	binary.BigEndian.PutUint64(buf[page.PayloadOff:], uint64(p.freeHead))
	if err := p.writePageLocked(id, buf); err != nil {
		return err
	}
	p.freeHead = id
	return nil
}

// Sync persists the free-list head and engine meta, then fsyncs the file.
// Free-list updates between Syncs can be lost in a crash; lost pages leak
// (they are simply never reused), which is safe.
func (p *Pager) Sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if err := p.writeMeta(); err != nil {
		return err
	}
	if err := p.f.Sync(); err != nil {
		return fmt.Errorf("disk: sync: %w", err)
	}
	p.syncs++
	return nil
}

// Close syncs and closes the file. The pager is unusable afterwards.
func (p *Pager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	err := p.writeMeta()
	if err2 := p.f.Sync(); err == nil {
		err = err2
	}
	if err2 := p.f.Close(); err == nil {
		err = err2
	}
	p.closed = true
	return err
}
