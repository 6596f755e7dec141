// Package wal implements the write-ahead log: an append-only record file
// with per-record CRCs, a checkpoint pointer, and ARIES-style record types
// (redo/undo of versioned inserts, compensation records, fuzzy checkpoints).
//
// Two properties from the paper shape this log (Section 2.2):
//
//   - Commit records carry the transaction's timestamp, so recovery can
//     rebuild Persistent Timestamp Table entries without ever logging the
//     per-record timestamping itself.
//   - Lazy timestamping is NOT logged. Stamped pages that reached disk keep
//     their stamps; stamps lost in a crash are simply re-applied lazily from
//     the PTT after restart — stamping is idempotent.
//
// Every reader of the segment chain goes through one loader and one walker
// (segment.go). loadChain lists, orders and header-checks the segment files
// and changes nothing; walk decodes the records of a range and returns where
// it stopped. Open, Scan, ScanComplete, TrimIngestTail and the read-only
// retained-chain readers behind point-in-time restore differ only in what
// they do at that stop: truncate, fail, stop silently, fence, or cut.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"immortaldb/internal/itime"
	"immortaldb/internal/storage/page"
)

// LSN is a log sequence number: the byte offset of a record in the log file.
// LSN 0 means "none".
type LSN uint64

// RecType identifies a log record type.
type RecType uint8

// Log record types.
const (
	TypeInvalid RecType = iota
	// TypeInsertVersion records the insertion of one new record version
	// (insert, update, or delete stub) into a data page. Redo is
	// page-oriented; undo is logical (remove the newest version of the key).
	TypeInsertVersion
	// TypeCLR is a compensation record written while undoing an
	// InsertVersion; it is redo-only and chains to the next record to undo.
	TypeCLR
	// TypeCommit ends a transaction and carries its commit timestamp; redo
	// restores the transaction's PTT entry if missing.
	TypeCommit
	// TypeAbort ends a rolled-back transaction.
	TypeAbort
	// TypePageImage is a physical after-image of a whole page, logged for
	// structure modifications (time splits, key splits, index updates).
	TypePageImage
	// TypeCheckpoint is a fuzzy checkpoint: active-transaction table,
	// dirty-page table and allocator high-water marks.
	TypeCheckpoint
	// TypeCatalog records a DDL change as an opaque catalog snapshot.
	TypeCatalog
	// TypeFreePage records that a page was returned to the free list.
	TypeFreePage
	// TypeStamp records the timestamping of one record version. It is used
	// ONLY by the eager-timestamping ablation: the paper's lazy scheme never
	// logs timestamping (that is its point), while eager timestamping "needs
	// to be logged as well, because recovery needs to redo the timestamping
	// should the system crash" (Section 2.2).
	TypeStamp
	// TypeSMO is one atomic structure modification: the full after-images of
	// every page a split (time split, key split, index split, root growth)
	// touched, plus the catalog snapshot when the modification moved the
	// tree root. Packing the whole SMO into one checksummed record makes it
	// atomic across a torn log tail: recovery either sees the complete new
	// structure or none of it — never a leaf rewritten without the parent
	// entry (or root change) that routes to its sibling.
	TypeSMO
	// TypeHistRun carries one immutable cold-history run file: the table, the
	// run sequence number (in the Page field) and the complete encoded file.
	// The run file itself, fsynced before the manifest flip, is the local
	// durability authority; the record makes the write idempotent under redo
	// and lets replicas materialize their own copy of the cold tier.
	TypeHistRun
	// TypeHistManifest carries a table's cold-tier run manifest image. Redo
	// installs it when newer than the one on disk, so the hot/cold boundary
	// flip is crash-atomic and replicable: a run exists exactly when some
	// installed manifest names it.
	TypeHistManifest
	// TypePromote fences a primary handover: it is the first record a
	// promoted follower appends to its (formerly replica) log copy, carrying
	// the new monotonic promotion epoch and the fence LSN — the sealed end of
	// the replicated prefix. Everything below the fence was written under an
	// older epoch; recovery restores the epoch from the newest promote record
	// it scans, so a rebooted node knows which generation of the cluster its
	// log belongs to.
	TypePromote
)

func (t RecType) String() string {
	switch t {
	case TypeInsertVersion:
		return "insert-version"
	case TypeCLR:
		return "clr"
	case TypeCommit:
		return "commit"
	case TypeAbort:
		return "abort"
	case TypePageImage:
		return "page-image"
	case TypeCheckpoint:
		return "checkpoint"
	case TypeCatalog:
		return "catalog"
	case TypeFreePage:
		return "free-page"
	case TypeStamp:
		return "stamp"
	case TypeSMO:
		return "smo"
	case TypeHistRun:
		return "hist-run"
	case TypeHistManifest:
		return "hist-manifest"
	case TypePromote:
		return "promote"
	default:
		return fmt.Sprintf("invalid(%d)", uint8(t))
	}
}

// PageImg is one page after-image inside a TypeSMO record.
type PageImg struct {
	Page page.ID
	Img  []byte
}

// Record is a decoded log record. It is a flat union: which fields are
// meaningful depends on Type.
type Record struct {
	LSN     LSN // assigned by Append / filled by readers
	Type    RecType
	TID     itime.TID
	PrevLSN LSN // previous record of the same transaction

	Table uint32  // InsertVersion, CLR, SMO
	Page  page.ID // InsertVersion, CLR, PageImage, FreePage
	Key   []byte  // InsertVersion, CLR
	Value []byte  // InsertVersion
	Old   []byte  // InsertVersion: prior value for undo (no-tail tables
	// and same-transaction overwrites of versioned records)
	OldStub bool            // InsertVersion: the overwritten version was a delete stub
	Restore bool            // CLR: redo restores Old/OldStub instead of removing
	Stub    bool            // InsertVersion
	TS      itime.Timestamp // Commit
	HasTT   bool            // Commit: transaction wrote a transaction-time table
	Img     []byte          // PageImage
	Undo    LSN             // CLR: next record of the transaction to undo
	Blob    []byte          // Checkpoint, Catalog; SMO: catalog snapshot on root change
	Images  []PageImg       // SMO: after-images of every touched page
	Epoch   uint64          // Promote: the new promotion epoch
	Fence   LSN             // Promote: sealed end of the replicated prefix
}

// recHeaderLen is the fixed record prefix: totalLen(4) crc(4) type(1)
// tid(8) prevLSN(8).
const recHeaderLen = 4 + 4 + 1 + 8 + 8

// MaxRecordLen bounds a single record (a page image plus slack).
const MaxRecordLen = 1 << 24

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptRecord reports an undecodable log record (normal at the torn
// tail of a log after a crash).
var ErrCorruptRecord = errors.New("wal: corrupt record")

func (r *Record) payloadLen() int {
	switch r.Type {
	case TypeInsertVersion:
		return 4 + 8 + 1 + 2 + len(r.Key) + 4 + len(r.Value) + 4 + len(r.Old) + 1
	case TypeCLR:
		return 4 + 8 + 2 + len(r.Key) + 8 + 1 + 4 + len(r.Value)
	case TypeCommit:
		return itime.EncodedLen + 1
	case TypeAbort:
		return 0
	case TypePageImage:
		return 8 + 4 + len(r.Img)
	case TypeCheckpoint, TypeCatalog:
		return 4 + len(r.Blob)
	case TypeFreePage:
		return 8
	case TypeStamp:
		return 4 + 8 + 2 + len(r.Key) + itime.EncodedLen
	case TypeSMO:
		n := 4 + 4 + len(r.Blob) + 4
		for i := range r.Images {
			n += 12 + len(r.Images[i].Img)
		}
		return n
	case TypeHistRun:
		return 4 + 8 + 4 + len(r.Blob)
	case TypeHistManifest:
		return 4 + 4 + len(r.Blob)
	case TypePromote:
		return 8 + 8
	default:
		return 0
	}
}

// encodedLen returns the full on-disk size of the record.
func (r *Record) encodedLen() int { return recHeaderLen + r.payloadLen() }

// EndLSN returns the LSN one past this record — where the next record
// starts. Replica redo uses it to track the applied horizon record by
// record; it is only meaningful on records whose LSN has been assigned.
func (r *Record) EndLSN() LSN { return r.LSN + LSN(r.encodedLen()) }

// encode appends the record to dst and returns the extended slice.
func (r *Record) encode(dst []byte) []byte {
	total := r.encodedLen()
	start := len(dst)
	dst = append(dst, make([]byte, total)...)
	b := dst[start:]
	binary.BigEndian.PutUint32(b[0:], uint32(total))
	// crc at [4:8] filled below.
	b[8] = byte(r.Type)
	binary.BigEndian.PutUint64(b[9:], uint64(r.TID))
	binary.BigEndian.PutUint64(b[17:], uint64(r.PrevLSN))
	p := b[recHeaderLen:]
	switch r.Type {
	case TypeInsertVersion:
		binary.BigEndian.PutUint32(p[0:], r.Table)
		binary.BigEndian.PutUint64(p[4:], uint64(r.Page))
		if r.Stub {
			p[12] |= 1
		}
		if r.OldStub {
			p[12] |= 2
		}
		binary.BigEndian.PutUint16(p[13:], uint16(len(r.Key)))
		copy(p[15:], r.Key)
		q := p[15+len(r.Key):]
		binary.BigEndian.PutUint32(q[0:], uint32(len(r.Value)))
		copy(q[4:], r.Value)
		q = q[4+len(r.Value):]
		binary.BigEndian.PutUint32(q[0:], uint32(len(r.Old)))
		copy(q[4:], r.Old)
		if r.Old != nil {
			q[4+len(r.Old)] = 1
		}
	case TypeCLR:
		binary.BigEndian.PutUint32(p[0:], r.Table)
		binary.BigEndian.PutUint64(p[4:], uint64(r.Page))
		binary.BigEndian.PutUint16(p[12:], uint16(len(r.Key)))
		copy(p[14:], r.Key)
		q := p[14+len(r.Key):]
		binary.BigEndian.PutUint64(q[0:], uint64(r.Undo))
		if r.Stub {
			q[8] |= 1
		}
		if r.Restore {
			q[8] |= 2
		}
		binary.BigEndian.PutUint32(q[9:], uint32(len(r.Value)))
		copy(q[13:], r.Value)
	case TypeCommit:
		r.TS.Encode(p[0:])
		if r.HasTT {
			p[itime.EncodedLen] = 1
		}
	case TypeAbort:
	case TypePageImage:
		binary.BigEndian.PutUint64(p[0:], uint64(r.Page))
		binary.BigEndian.PutUint32(p[8:], uint32(len(r.Img)))
		copy(p[12:], r.Img)
	case TypeCheckpoint, TypeCatalog:
		binary.BigEndian.PutUint32(p[0:], uint32(len(r.Blob)))
		copy(p[4:], r.Blob)
	case TypeFreePage:
		binary.BigEndian.PutUint64(p[0:], uint64(r.Page))
	case TypeStamp:
		binary.BigEndian.PutUint32(p[0:], r.Table)
		binary.BigEndian.PutUint64(p[4:], uint64(r.Page))
		binary.BigEndian.PutUint16(p[12:], uint16(len(r.Key)))
		copy(p[14:], r.Key)
		r.TS.Encode(p[14+len(r.Key):])
	case TypeSMO:
		binary.BigEndian.PutUint32(p[0:], r.Table)
		binary.BigEndian.PutUint32(p[4:], uint32(len(r.Blob)))
		copy(p[8:], r.Blob)
		q := p[8+len(r.Blob):]
		binary.BigEndian.PutUint32(q[0:], uint32(len(r.Images)))
		q = q[4:]
		for i := range r.Images {
			binary.BigEndian.PutUint64(q[0:], uint64(r.Images[i].Page))
			binary.BigEndian.PutUint32(q[8:], uint32(len(r.Images[i].Img)))
			copy(q[12:], r.Images[i].Img)
			q = q[12+len(r.Images[i].Img):]
		}
	case TypeHistRun:
		binary.BigEndian.PutUint32(p[0:], r.Table)
		binary.BigEndian.PutUint64(p[4:], uint64(r.Page))
		binary.BigEndian.PutUint32(p[12:], uint32(len(r.Blob)))
		copy(p[16:], r.Blob)
	case TypeHistManifest:
		binary.BigEndian.PutUint32(p[0:], r.Table)
		binary.BigEndian.PutUint32(p[4:], uint32(len(r.Blob)))
		copy(p[8:], r.Blob)
	case TypePromote:
		binary.BigEndian.PutUint64(p[0:], r.Epoch)
		binary.BigEndian.PutUint64(p[8:], uint64(r.Fence))
	}
	binary.BigEndian.PutUint32(b[4:], crc32.Checksum(b[8:], crcTable))
	return dst
}

// decodeRecord parses one record from the front of b. It returns the record
// and its total length, or ErrCorruptRecord. The record shares no memory
// with b, so b may be reused for the next record.
func decodeRecord(b []byte) (*Record, int, error) {
	if len(b) < recHeaderLen {
		return nil, 0, fmt.Errorf("%w: short header", ErrCorruptRecord)
	}
	total := int(binary.BigEndian.Uint32(b[0:]))
	if total < recHeaderLen || total > MaxRecordLen || total > len(b) {
		return nil, 0, fmt.Errorf("%w: bad length %d", ErrCorruptRecord, total)
	}
	if got, want := crc32.Checksum(b[8:total], crcTable), binary.BigEndian.Uint32(b[4:]); got != want {
		return nil, 0, fmt.Errorf("%w: checksum", ErrCorruptRecord)
	}
	r := &Record{
		Type:    RecType(b[8]),
		TID:     itime.TID(binary.BigEndian.Uint64(b[9:])),
		PrevLSN: LSN(binary.BigEndian.Uint64(b[17:])),
	}
	p := b[recHeaderLen:total]
	bad := func() (*Record, int, error) {
		return nil, 0, fmt.Errorf("%w: truncated %v payload", ErrCorruptRecord, r.Type)
	}
	switch r.Type {
	case TypeInsertVersion:
		if len(p) < 15 {
			return bad()
		}
		r.Table = binary.BigEndian.Uint32(p[0:])
		r.Page = page.ID(binary.BigEndian.Uint64(p[4:]))
		r.Stub = p[12]&1 != 0
		r.OldStub = p[12]&2 != 0
		klen := int(binary.BigEndian.Uint16(p[13:]))
		if len(p) < 15+klen+4 {
			return bad()
		}
		r.Key = append([]byte(nil), p[15:15+klen]...)
		q := p[15+klen:]
		vlen := int(binary.BigEndian.Uint32(q[0:]))
		if len(q) < 4+vlen {
			return bad()
		}
		r.Value = append([]byte(nil), q[4:4+vlen]...)
		q = q[4+vlen:]
		if len(q) < 5 {
			return bad()
		}
		olen := int(binary.BigEndian.Uint32(q[0:]))
		if len(q) < 4+olen+1 {
			return bad()
		}
		if q[4+olen] == 1 {
			r.Old = make([]byte, olen)
			copy(r.Old, q[4:4+olen])
		}
	case TypeCLR:
		if len(p) < 14 {
			return bad()
		}
		r.Table = binary.BigEndian.Uint32(p[0:])
		r.Page = page.ID(binary.BigEndian.Uint64(p[4:]))
		klen := int(binary.BigEndian.Uint16(p[12:]))
		if len(p) < 14+klen+8 {
			return bad()
		}
		r.Key = append([]byte(nil), p[14:14+klen]...)
		q := p[14+klen:]
		if len(q) < 13 {
			return bad()
		}
		r.Undo = LSN(binary.BigEndian.Uint64(q[0:]))
		r.Stub = q[8]&1 != 0
		r.Restore = q[8]&2 != 0
		vlen := int(binary.BigEndian.Uint32(q[9:]))
		if len(q) < 13+vlen {
			return bad()
		}
		r.Value = append([]byte(nil), q[13:13+vlen]...)
	case TypeCommit:
		if len(p) < itime.EncodedLen+1 {
			return bad()
		}
		r.TS = itime.DecodeTimestamp(p)
		r.HasTT = p[itime.EncodedLen] == 1
	case TypeAbort:
	case TypePageImage:
		if len(p) < 12 {
			return bad()
		}
		r.Page = page.ID(binary.BigEndian.Uint64(p[0:]))
		n := int(binary.BigEndian.Uint32(p[8:]))
		if len(p) < 12+n {
			return bad()
		}
		r.Img = append([]byte(nil), p[12:12+n]...)
	case TypeCheckpoint, TypeCatalog:
		if len(p) < 4 {
			return bad()
		}
		n := int(binary.BigEndian.Uint32(p[0:]))
		if len(p) < 4+n {
			return bad()
		}
		r.Blob = append([]byte(nil), p[4:4+n]...)
	case TypeFreePage:
		if len(p) < 8 {
			return bad()
		}
		r.Page = page.ID(binary.BigEndian.Uint64(p[0:]))
	case TypeStamp:
		if len(p) < 14 {
			return bad()
		}
		r.Table = binary.BigEndian.Uint32(p[0:])
		r.Page = page.ID(binary.BigEndian.Uint64(p[4:]))
		klen := int(binary.BigEndian.Uint16(p[12:]))
		if len(p) < 14+klen+itime.EncodedLen {
			return bad()
		}
		r.Key = append([]byte(nil), p[14:14+klen]...)
		r.TS = itime.DecodeTimestamp(p[14+klen:])
	case TypeSMO:
		if len(p) < 8 {
			return bad()
		}
		r.Table = binary.BigEndian.Uint32(p[0:])
		bn := int(binary.BigEndian.Uint32(p[4:]))
		if bn < 0 || len(p) < 8+bn+4 {
			return bad()
		}
		if bn > 0 {
			r.Blob = append([]byte(nil), p[8:8+bn]...)
		}
		q := p[8+bn:]
		ni := int(binary.BigEndian.Uint32(q[0:]))
		q = q[4:]
		if ni < 0 || ni*12 > len(q) {
			return bad()
		}
		r.Images = make([]PageImg, 0, ni)
		for i := 0; i < ni; i++ {
			if len(q) < 12 {
				return bad()
			}
			id := page.ID(binary.BigEndian.Uint64(q[0:]))
			n := int(binary.BigEndian.Uint32(q[8:]))
			if n < 0 || len(q) < 12+n {
				return bad()
			}
			r.Images = append(r.Images, PageImg{Page: id, Img: append([]byte(nil), q[12:12+n]...)})
			q = q[12+n:]
		}
	case TypeHistRun:
		if len(p) < 16 {
			return bad()
		}
		r.Table = binary.BigEndian.Uint32(p[0:])
		r.Page = page.ID(binary.BigEndian.Uint64(p[4:]))
		n := int(binary.BigEndian.Uint32(p[12:]))
		if n < 0 || len(p) < 16+n {
			return bad()
		}
		r.Blob = append([]byte(nil), p[16:16+n]...)
	case TypeHistManifest:
		if len(p) < 8 {
			return bad()
		}
		r.Table = binary.BigEndian.Uint32(p[0:])
		n := int(binary.BigEndian.Uint32(p[4:]))
		if n < 0 || len(p) < 8+n {
			return bad()
		}
		r.Blob = append([]byte(nil), p[8:8+n]...)
	case TypePromote:
		if len(p) < 16 {
			return bad()
		}
		r.Epoch = binary.BigEndian.Uint64(p[0:])
		r.Fence = LSN(binary.BigEndian.Uint64(p[8:]))
	default:
		return nil, 0, fmt.Errorf("%w: unknown type %d", ErrCorruptRecord, b[8])
	}
	return r, total, nil
}
