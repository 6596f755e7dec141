// Package page implements Immortal DB's on-disk page formats: slotted data
// pages holding record versions with the paper's 14-byte versioning tail
// (Figure 1), intra-page version chains (Figure 2), the time-split and
// key-split operations (Figure 3), and the rectangle-described index pages of
// the time-split B-tree (Section 3.4).
//
// Pages marshal to and from fixed-size byte buffers. The first 8 bytes of
// every raw page are a frame header owned by the disk layer: a CRC32 checksum
// (4 bytes, written by the pager), the page type (1 byte), and 3 reserved
// bytes. Page payloads begin at PayloadOff.
package page

import (
	"errors"
	"fmt"

	"immortaldb/internal/itime"
)

// ID identifies a page within a page file. ID 0 is never a valid data page
// (it is the pager's meta page), so 0 doubles as the nil page pointer.
type ID uint64

// Type tags the content of a raw page.
type Type uint8

// Page types.
const (
	TypeInvalid Type = iota
	TypeMeta         // pager metadata
	TypeData         // slotted data page (current or historical)
	TypeIndex        // TSB-tree index page
	TypeBlob         // engine blob chain (catalog, etc.)
	TypeFree         // on the free list
)

func (t Type) String() string {
	switch t {
	case TypeMeta:
		return "meta"
	case TypeData:
		return "data"
	case TypeIndex:
		return "index"
	case TypeBlob:
		return "blob"
	case TypeFree:
		return "free"
	default:
		return fmt.Sprintf("invalid(%d)", uint8(t))
	}
}

// Frame layout constants.
const (
	// ChecksumOff is where the disk layer stores the page CRC.
	ChecksumOff = 0
	// TypeOff is the byte holding the page Type.
	TypeOff = 4
	// PayloadOff is where marshalled page payloads begin.
	PayloadOff = 8
)

// DefaultSize is the default page size, matching the paper's 8 KB pages.
const DefaultSize = 8192

// MinSize is the smallest supported page size; tiny pages are useful in
// tests to force frequent splits.
const MinSize = 256

// TailLen is the size of the per-record versioning data appended to each
// record version: version pointer VP (2 bytes), timestamp Ttime (8 bytes)
// and sequence number SN (4 bytes) — Figure 1b.
const TailLen = 14

// recHeaderLen is the per-record fixed overhead before the key/value bytes:
// key length (2), value length (2) and record flags (1).
const recHeaderLen = 5

// slotLen is the size of one slot array entry.
const slotLen = 2

// Errors returned by page operations.
var (
	// ErrPageFull reports that a record does not fit; the caller must split.
	ErrPageFull = errors.New("page: page full")
	// ErrTooLarge reports a record that cannot fit even in an empty page.
	ErrTooLarge = errors.New("page: record larger than page")
	// ErrCorrupt reports an unparseable page image.
	ErrCorrupt = errors.New("page: corrupt page image")
	// ErrNotFound reports a missing key or version.
	ErrNotFound = errors.New("page: not found")
)

// NoPrev marks the end of an intra-page version chain.
const NoPrev = int16(-1)

// Version is one record version. A version is born non-timestamped, carrying
// the TID of its updating transaction in the Ttime field; lazy timestamping
// later replaces the TID with the transaction's commit timestamp (Section
// 2.2, stage IV). A delete is a special version, the delete stub, that exists
// only to supply the end time of its predecessor (Section 1.2).
type Version struct {
	Key   []byte
	Value []byte
	Stub  bool // delete stub: marks the record deleted as of TS
	// Stamped reports whether the version carries its final timestamp (TS)
	// rather than the updating transaction's TID.
	Stamped bool
	TID     itime.TID       // updating transaction, valid when !Stamped
	TS      itime.Timestamp // start of lifetime, valid when Stamped
	Prev    int16           // index of the previous (older) version in Recs
}

// size returns the marshalled size of v, with or without the versioning tail.
func (v *Version) size(noTail bool) int {
	n := recHeaderLen + len(v.Key) + len(v.Value)
	if !noTail {
		n += TailLen
	}
	return n
}
