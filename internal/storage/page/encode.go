package page

import (
	"encoding/binary"
	"fmt"

	"immortaldb/internal/itime"
)

// Key length sentinel: a nil (unbounded) fence key is encoded as length
// 0xFFFF, distinguishing it from a present empty key.
const nilKeyLen = 0xFFFF

// Data page flag bits.
const (
	dataFlagCurrent = 1 << 0
	dataFlagNoTail  = 1 << 1
)

// Record flag bits.
const (
	recFlagStub    = 1 << 0
	recFlagStamped = 1 << 1
)

type encoder struct {
	buf []byte
	off int
}

func (e *encoder) u8(v uint8)   { e.buf[e.off] = v; e.off++ }
func (e *encoder) u16(v uint16) { binary.BigEndian.PutUint16(e.buf[e.off:], v); e.off += 2 }
func (e *encoder) u32(v uint32) { binary.BigEndian.PutUint32(e.buf[e.off:], v); e.off += 4 }
func (e *encoder) u64(v uint64) { binary.BigEndian.PutUint64(e.buf[e.off:], v); e.off += 8 }
func (e *encoder) ts(v itime.Timestamp) {
	v.Encode(e.buf[e.off:])
	e.off += itime.EncodedLen
}
func (e *encoder) bytes(b []byte) { copy(e.buf[e.off:], b); e.off += len(b) }
func (e *encoder) key(k []byte) {
	if k == nil {
		e.u16(nilKeyLen)
		return
	}
	e.u16(uint16(len(k)))
	e.bytes(k)
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("%w: truncated at offset %d (+%d)", ErrCorrupt, d.off, n)
		return false
	}
	return true
}

func (d *decoder) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) ts() itime.Timestamp {
	if !d.need(itime.EncodedLen) {
		return itime.Timestamp{}
	}
	v := itime.DecodeTimestamp(d.buf[d.off:])
	d.off += itime.EncodedLen
	return v
}

// bytesN returns the next n bytes as a sub-slice of the buffer being decoded,
// not a copy: the buffer belongs to the decoded page for its lifetime. The
// capacity is capped at n, so an append to the result reallocates instead of
// writing into the bytes that follow it.
func (d *decoder) bytesN(n int) []byte {
	if !d.need(n) {
		return nil
	}
	out := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return out
}

func (d *decoder) key() []byte {
	n := d.u16()
	if n == nilKeyLen {
		return nil
	}
	return d.bytesN(int(n))
}

// TypeOf reports the page type stored in a raw page buffer.
func TypeOf(buf []byte) Type {
	if len(buf) <= TypeOff {
		return TypeInvalid
	}
	return Type(buf[TypeOff])
}

// Marshal serializes the data page into buf, which must be the full page
// size. The frame header bytes (checksum, written later by the pager) are
// zeroed; the type byte is set.
func (p *DataPage) Marshal(buf []byte) error {
	if p.Used() > len(buf) {
		return fmt.Errorf("page %d: %w: %d > %d bytes", p.ID, ErrPageFull, p.Used(), len(buf))
	}
	clear(buf)
	buf[TypeOff] = byte(TypeData)
	e := &encoder{buf: buf, off: PayloadOff}
	e.u64(uint64(p.ID))
	var flags uint8
	if p.Current {
		flags |= dataFlagCurrent
	}
	if p.NoTail {
		flags |= dataFlagNoTail
	}
	e.u8(flags)
	e.u64(uint64(p.Hist))
	e.u64(p.LSN)
	e.ts(p.StartTS)
	e.ts(p.EndTS)
	e.u16(uint16(len(p.Recs)))
	e.u16(uint16(len(p.Slots)))
	e.key(p.LowKey)
	e.key(p.HighKey)
	for i := range p.Recs {
		v := &p.Recs[i]
		e.u16(uint16(len(v.Key)))
		e.u16(uint16(len(v.Value)))
		var rf uint8
		if v.Stub {
			rf |= recFlagStub
		}
		if v.Stamped {
			rf |= recFlagStamped
		}
		e.u8(rf)
		e.bytes(v.Key)
		e.bytes(v.Value)
		if !p.NoTail {
			// The 14-byte versioning tail of Figure 1b: VP, Ttime, SN. The
			// Ttime field holds the TID until the version is stamped.
			e.u16(uint16(v.Prev))
			if v.Stamped {
				e.u64(uint64(v.TS.Wall))
				e.u32(v.TS.Seq)
			} else {
				e.u64(uint64(v.TID))
				e.u32(0)
			}
		}
	}
	for _, s := range p.Slots {
		e.u16(uint16(s))
	}
	return nil
}

// dataHeader is the fixed header of a data page image.
type dataHeader struct {
	id             ID
	flags          uint8
	hist           ID
	lsn            uint64
	startTS, endTS itime.Timestamp
	nrecs, nslots  int
}

// parseDataHeader checks that buf holds a data page and decodes its fixed
// header. It is the one header parser behind UnmarshalData, DataHeader and
// ImageLSN.
func parseDataHeader(buf []byte) (dataHeader, error) {
	if TypeOf(buf) != TypeData {
		return dataHeader{}, fmt.Errorf("%w: not a data page (type %v)", ErrCorrupt, TypeOf(buf))
	}
	d := decoder{buf: buf, off: PayloadOff}
	h := dataHeader{
		id:      ID(d.u64()),
		flags:   d.u8(),
		hist:    ID(d.u64()),
		lsn:     d.u64(),
		startTS: d.ts(),
		endTS:   d.ts(),
		nrecs:   int(d.u16()),
		nslots:  int(d.u16()),
	}
	return h, d.err
}

// DataHeader returns the split time and history pointer of a data page image
// without decoding its records: all a history-chain walk needs from a page
// it only passes through.
func DataHeader(buf []byte) (startTS itime.Timestamp, hist ID, err error) {
	h, err := parseDataHeader(buf)
	return h.startTS, h.hist, err
}

// ImageLSN returns the page LSN from the fixed header of a data or index
// page image. ok is false for any other page type or a truncated header.
func ImageLSN(buf []byte) (lsn uint64, ok bool) {
	switch TypeOf(buf) {
	case TypeData:
		h, err := parseDataHeader(buf)
		return h.lsn, err == nil
	case TypeIndex:
		h, err := parseIndexHeader(buf)
		return h.lsn, err == nil
	default:
		return 0, false
	}
}

// UnmarshalData parses a data page from a raw page buffer. Every key, value
// and fence key of the result is a sub-slice of buf, so buf belongs to the
// page from here on: the caller must never write to it or reuse it.
func UnmarshalData(buf []byte) (*DataPage, error) {
	h, err := parseDataHeader(buf)
	if err != nil {
		return nil, err
	}
	p := &DataPage{
		ID:      h.id,
		LSN:     h.lsn,
		Size:    len(buf),
		Current: h.flags&dataFlagCurrent != 0,
		NoTail:  h.flags&dataFlagNoTail != 0,
		Hist:    h.hist,
		StartTS: h.startTS,
		EndTS:   h.endTS,
	}
	d := decoder{buf: buf, off: PayloadOff + fixedDataHeaderLen}
	p.LowKey = d.key()
	p.HighKey = d.key()
	if d.err != nil {
		return nil, d.err
	}
	nrecs, nslots := h.nrecs, h.nslots
	if nrecs > len(buf) || nslots > nrecs {
		return nil, fmt.Errorf("%w: implausible counts nrecs=%d nslots=%d", ErrCorrupt, nrecs, nslots)
	}
	tail := TailLen
	if p.NoTail {
		tail = 0
	}
	// Each record costs two bounds checks: one for its fixed header, one for
	// its key, value and tail together.
	off := d.off
	p.Recs = make([]Version, nrecs)
	for i := range p.Recs {
		if off+recHeaderLen > len(buf) {
			return nil, fmt.Errorf("%w: truncated at offset %d (+%d)", ErrCorrupt, off, recHeaderLen)
		}
		klen := int(binary.BigEndian.Uint16(buf[off:]))
		vlen := int(binary.BigEndian.Uint16(buf[off+2:]))
		rf := buf[off+4]
		off += recHeaderLen
		if n := klen + vlen + tail; off+n > len(buf) {
			return nil, fmt.Errorf("%w: truncated at offset %d (+%d)", ErrCorrupt, off, n)
		}
		v := &p.Recs[i]
		v.Key = buf[off : off+klen : off+klen]
		off += klen
		v.Value = buf[off : off+vlen : off+vlen]
		off += vlen
		v.Stub = rf&recFlagStub != 0
		if p.NoTail {
			v.Stamped, v.Prev = true, NoPrev
			continue
		}
		v.Stamped = rf&recFlagStamped != 0
		v.Prev = int16(binary.BigEndian.Uint16(buf[off:]))
		ttime := binary.BigEndian.Uint64(buf[off+2:])
		if v.Stamped {
			v.TS = itime.Timestamp{Wall: int64(ttime), Seq: binary.BigEndian.Uint32(buf[off+10:])}
		} else {
			v.TID = itime.TID(ttime)
		}
		off += TailLen
		if v.Prev != NoPrev && (v.Prev < 0 || int(v.Prev) >= nrecs) {
			return nil, fmt.Errorf("%w: version pointer %d out of range", ErrCorrupt, v.Prev)
		}
	}
	if off+slotLen*nslots > len(buf) {
		return nil, fmt.Errorf("%w: truncated at offset %d (+%d)", ErrCorrupt, off, slotLen*nslots)
	}
	p.Slots = make([]int16, nslots)
	for i := range p.Slots {
		s := int16(binary.BigEndian.Uint16(buf[off:]))
		if s < 0 || int(s) >= nrecs {
			return nil, fmt.Errorf("%w: slot %d out of range", ErrCorrupt, s)
		}
		p.Slots[i] = s
		off += slotLen
	}
	// The bytes consumed are exactly the marshalled size Used reports.
	p.cachedUsed = off
	return p, nil
}

// Marshal serializes the index page into buf (full page size).
func (p *IndexPage) Marshal(buf []byte) error {
	if p.Used() > len(buf) {
		return fmt.Errorf("index page %d: %w: %d > %d bytes", p.ID, ErrPageFull, p.Used(), len(buf))
	}
	clear(buf)
	buf[TypeOff] = byte(TypeIndex)
	e := &encoder{buf: buf, off: PayloadOff}
	e.u64(uint64(p.ID))
	e.u64(p.LSN)
	e.u16(p.Level)
	e.u16(uint16(len(p.Entries)))
	for i := range p.Entries {
		ent := &p.Entries[i]
		e.u64(uint64(ent.Child))
		if ent.Leaf {
			e.u8(1)
		} else {
			e.u8(0)
		}
		e.ts(ent.R.LowTS)
		e.ts(ent.R.HighTS)
		e.key(ent.R.LowKey)
		e.key(ent.R.HighKey)
	}
	return nil
}

// indexHeader is the fixed header of an index page image.
type indexHeader struct {
	id       ID
	lsn      uint64
	level    uint16
	nentries int
}

// parseIndexHeader checks that buf holds an index page and decodes its fixed
// header, for UnmarshalIndex and ImageLSN.
func parseIndexHeader(buf []byte) (indexHeader, error) {
	if TypeOf(buf) != TypeIndex {
		return indexHeader{}, fmt.Errorf("%w: not an index page (type %v)", ErrCorrupt, TypeOf(buf))
	}
	d := decoder{buf: buf, off: PayloadOff}
	h := indexHeader{id: ID(d.u64()), lsn: d.u64(), level: d.u16(), nentries: int(d.u16())}
	return h, d.err
}

// UnmarshalIndex parses an index page from a raw page buffer. Its fence keys
// are sub-slices of buf, which belongs to the page from here on, as with
// UnmarshalData.
func UnmarshalIndex(buf []byte) (*IndexPage, error) {
	h, err := parseIndexHeader(buf)
	if err != nil {
		return nil, err
	}
	n := h.nentries
	if n > len(buf) {
		return nil, fmt.Errorf("%w: implausible entry count %d", ErrCorrupt, n)
	}
	p := &IndexPage{ID: h.id, LSN: h.lsn, Size: len(buf), Level: h.level}
	d := decoder{buf: buf, off: PayloadOff + fixedIndexHeaderLen}
	p.Entries = make([]IndexEntry, n)
	for i := 0; i < n; i++ {
		ent := &p.Entries[i]
		ent.Child = ID(d.u64())
		ent.Leaf = d.u8() == 1
		ent.R.LowTS = d.ts()
		ent.R.HighTS = d.ts()
		ent.R.LowKey = d.key()
		ent.R.HighKey = d.key()
		if d.err != nil {
			return nil, d.err
		}
	}
	p.cur = make([]uint16, 0, n)
	p.reindex()
	return p, nil
}

// BlobPage is a page in a chain of opaque engine bytes (catalog storage).
type BlobPage struct {
	ID   ID
	Next ID
	Data []byte
}

// blobHeaderLen: id(8) next(8) len(4).
const blobHeaderLen = 8 + 8 + 4

// BlobCapacity returns how many data bytes fit in one blob page.
func BlobCapacity(pageSize int) int { return pageSize - PayloadOff - blobHeaderLen }

// Marshal serializes the blob page into buf (full page size).
func (p *BlobPage) Marshal(buf []byte) error {
	if PayloadOff+blobHeaderLen+len(p.Data) > len(buf) {
		return fmt.Errorf("blob page %d: %w", p.ID, ErrPageFull)
	}
	clear(buf)
	buf[TypeOff] = byte(TypeBlob)
	e := &encoder{buf: buf, off: PayloadOff}
	e.u64(uint64(p.ID))
	e.u64(uint64(p.Next))
	e.u32(uint32(len(p.Data)))
	e.bytes(p.Data)
	return nil
}

// UnmarshalBlob parses a blob page from a raw page buffer. Its Data is a
// sub-slice of buf, which belongs to the page from here on.
func UnmarshalBlob(buf []byte) (*BlobPage, error) {
	if TypeOf(buf) != TypeBlob {
		return nil, fmt.Errorf("%w: not a blob page (type %v)", ErrCorrupt, TypeOf(buf))
	}
	d := &decoder{buf: buf, off: PayloadOff}
	p := &BlobPage{}
	p.ID = ID(d.u64())
	p.Next = ID(d.u64())
	n := int(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	p.Data = d.bytesN(n)
	return p, d.err
}

// Unmarshal dispatches on the page type and returns the decoded page as one
// of *DataPage, *IndexPage or *BlobPage.
//
// Ownership: the decoded page aliases buf instead of copying out of it, so
// buf belongs to the page for the page's lifetime. It must never be pooled,
// reused or written to, and no code writes into a decoded key or value —
// mutators replace a value with a fresh slice, and every aliased slice has
// its capacity capped at its length so an append cannot spill into the next
// record.
func Unmarshal(buf []byte) (any, error) {
	switch TypeOf(buf) {
	case TypeData:
		return UnmarshalData(buf)
	case TypeIndex:
		return UnmarshalIndex(buf)
	case TypeBlob:
		return UnmarshalBlob(buf)
	default:
		return nil, fmt.Errorf("%w: undecodable page type %v", ErrCorrupt, TypeOf(buf))
	}
}
