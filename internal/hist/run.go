// Package hist implements the cold tier of history storage: immutable,
// prefix/delta-compressed, block-checksummed run files that historical
// TSB-tree pages migrate into once a time split has made them immutable,
// plus the per-table manifest that makes the hot/cold boundary crash-atomic.
//
// A run holds record versions sorted by (key, timestamp): within a block,
// keys are prefix-compressed against their predecessor and timestamps are
// delta-encoded, which is what makes "immortal" affordable — historical
// versions of one key differ little, and an 8 KB page holding a dozen of
// them shrinks to a few hundred bytes of run. Runs are levelled: migration
// produces small level-0 runs, the compactor merges a full level into one
// run of the next level, dropping (key, time) duplicates and, when a
// retention horizon is set, versions no AS OF query inside the horizon can
// reach.
package hist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"immortaldb/internal/itime"
)

// Entry is one historical record version inside a run: the unit migration
// extracts from a history page and compaction merges. All entries are
// stamped — unstamped versions never leave the hot tier.
type Entry struct {
	Key   []byte
	Value []byte
	TS    itime.Timestamp
	Stub  bool // delete stub: the record was deleted at TS
}

// Version is a lookup result: one version of a key, without the key.
type Version struct {
	Value []byte
	TS    itime.Timestamp
	Stub  bool
}

// RunMeta describes one run file inside a manifest.
type RunMeta struct {
	Seq   uint64
	Level uint8
	Count uint64 // entries in the run
	Bytes uint64 // encoded file size
	// MinKey/MaxKey and MinTS/MaxTS bound the run's contents, letting
	// lookups skip runs that cannot contain the point of interest.
	MinKey, MaxKey []byte
	MinTS, MaxTS   itime.Timestamp
}

// Run file layout. Everything is independently checksummed: each block
// carries a CRC over its payload and the footer carries one over the block
// index, so a torn or bit-flipped run is detected at read time, never
// trusted.
//
//	header (28 B): magic "IHR1" | tableID u32 | seq u64 | level u8 | pad[3] | entryCount u64
//	blocks:        [payloadLen u32 | crc32c(payload) u32 | payload]...
//	footer:        index payload | payloadLen u32 | crc32c(payload) u32 | magic "IHF1"
//
// Block payload: uvarint count, then per entry (sorted by key asc, TS asc):
//
//	uvarint sharedPrefix   (with the previous key in the block; 0 for the first)
//	uvarint suffixLen, suffix bytes
//	flags u8               (bit0 = stub)
//	varint wallDelta       (vs the previous entry's wall tick; first vs 0)
//	uvarint seq32
//	uvarint valueLen, value bytes
const (
	runMagic      = "IHR1"
	footMagic     = "IHF1"
	runHeaderLen  = 4 + 4 + 8 + 1 + 3 + 8
	footTailLen   = 4 + 4 + 4 // payloadLen, crc, magic
	blockHdrLen   = 4 + 4     // payloadLen, crc
	targetBlock   = 4096      // uncompressed payload bytes per block
	maxBlockBytes = 1 << 22   // decode-side sanity cap on one block
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports an undecodable run or manifest.
var ErrCorrupt = fmt.Errorf("hist: corrupt")

// blockRef is one entry of a run's block index.
type blockRef struct {
	firstKey []byte
	off      int64
	length   int // including the 8-byte block header
	count    int
}

// sortEntries orders entries by (key asc, TS asc) and drops exact
// (key, TS) duplicates — replicated spanning versions extracted from two
// chain pages, identical by construction.
func sortEntries(entries []Entry) []Entry {
	sort.SliceStable(entries, func(i, j int) bool {
		if c := bytes.Compare(entries[i].Key, entries[j].Key); c != 0 {
			return c < 0
		}
		return entries[i].TS.Less(entries[j].TS)
	})
	out := entries[:0]
	for i := range entries {
		if i > 0 && bytes.Equal(entries[i].Key, entries[i-1].Key) && entries[i].TS == entries[i-1].TS {
			continue
		}
		out = append(out, entries[i])
	}
	return out
}

// EncodeRun encodes entries into a run file image and its manifest entry.
// Entries are sorted and (key, TS)-deduplicated in place first.
func EncodeRun(tableID uint32, seq uint64, level uint8, entries []Entry) ([]byte, RunMeta, error) {
	entries = sortEntries(entries)
	if len(entries) == 0 {
		return nil, RunMeta{}, fmt.Errorf("hist: empty run")
	}

	buf := make([]byte, runHeaderLen)
	copy(buf, runMagic)
	binary.BigEndian.PutUint32(buf[4:], tableID)
	binary.BigEndian.PutUint64(buf[8:], seq)
	buf[16] = level
	binary.BigEndian.PutUint64(buf[20:], uint64(len(entries)))

	var refs []blockRef
	var payload []byte
	var prevKey []byte
	var prevWall int64
	var blockFirst []byte
	blockCount := 0

	flush := func() {
		if blockCount == 0 {
			return
		}
		var cnt [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(cnt[:], uint64(blockCount))
		full := make([]byte, 0, n+len(payload))
		full = append(full, cnt[:n]...)
		full = append(full, payload...)
		refs = append(refs, blockRef{
			firstKey: blockFirst,
			off:      int64(len(buf)),
			length:   blockHdrLen + len(full),
			count:    blockCount,
		})
		var hdr [blockHdrLen]byte
		binary.BigEndian.PutUint32(hdr[0:], uint32(len(full)))
		binary.BigEndian.PutUint32(hdr[4:], crc32.Checksum(full, crcTable))
		buf = append(buf, hdr[:]...)
		buf = append(buf, full...)
		payload = payload[:0]
		prevKey, prevWall = nil, 0
		blockFirst = nil
		blockCount = 0
	}

	meta := RunMeta{
		Seq: seq, Level: level, Count: uint64(len(entries)),
		MinKey: append([]byte(nil), entries[0].Key...),
		MaxKey: append([]byte(nil), entries[len(entries)-1].Key...),
		MinTS:  itime.Max,
	}
	for i := range entries {
		e := &entries[i]
		if e.TS.Less(meta.MinTS) {
			meta.MinTS = e.TS
		}
		if meta.MaxTS.Less(e.TS) {
			meta.MaxTS = e.TS
		}
		shared := 0
		if prevKey != nil {
			shared = sharedPrefix(prevKey, e.Key)
		}
		if blockCount == 0 {
			shared = 0
			blockFirst = append([]byte(nil), e.Key...)
		}
		payload = appendUvarint(payload, uint64(shared))
		payload = appendUvarint(payload, uint64(len(e.Key)-shared))
		payload = append(payload, e.Key[shared:]...)
		var flags byte
		if e.Stub {
			flags |= 1
		}
		payload = append(payload, flags)
		payload = appendVarint(payload, e.TS.Wall-prevWall)
		payload = appendUvarint(payload, uint64(e.TS.Seq))
		payload = appendUvarint(payload, uint64(len(e.Value)))
		payload = append(payload, e.Value...)
		prevKey, prevWall = e.Key, e.TS.Wall
		blockCount++
		if len(payload) >= targetBlock {
			flush()
		}
	}
	flush()

	// Footer: block index, its CRC, and the closing magic.
	var foot []byte
	foot = appendUvarint(foot, uint64(len(refs)))
	for i := range refs {
		foot = appendUvarint(foot, uint64(len(refs[i].firstKey)))
		foot = append(foot, refs[i].firstKey...)
		foot = appendUvarint(foot, uint64(refs[i].off))
		foot = appendUvarint(foot, uint64(refs[i].length))
		foot = appendUvarint(foot, uint64(refs[i].count))
	}
	buf = append(buf, foot...)
	var tail [footTailLen]byte
	binary.BigEndian.PutUint32(tail[0:], uint32(len(foot)))
	binary.BigEndian.PutUint32(tail[4:], crc32.Checksum(foot, crcTable))
	copy(tail[8:], footMagic)
	buf = append(buf, tail[:]...)

	meta.Bytes = uint64(len(buf))
	return buf, meta, nil
}

func sharedPrefix(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

func appendVarint(b []byte, v int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

// parseRunHeader validates the fixed header of a run image.
func parseRunHeader(b []byte) (tableID uint32, seq uint64, level uint8, count uint64, err error) {
	if len(b) < runHeaderLen {
		return 0, 0, 0, 0, fmt.Errorf("%w run: short header", ErrCorrupt)
	}
	if string(b[:4]) != runMagic {
		return 0, 0, 0, 0, fmt.Errorf("%w run: bad magic", ErrCorrupt)
	}
	tableID = binary.BigEndian.Uint32(b[4:])
	seq = binary.BigEndian.Uint64(b[8:])
	level = b[16]
	count = binary.BigEndian.Uint64(b[20:])
	return tableID, seq, level, count, nil
}

// parseRunFooter decodes the block index from the tail of a run. size is the
// full file length; tail holds at least the last footTailLen bytes plus the
// footer payload (callers pass the whole image, or a read of the tail).
func parseRunFooter(tail []byte, size int64) ([]blockRef, error) {
	if len(tail) < footTailLen {
		return nil, fmt.Errorf("%w run: short footer", ErrCorrupt)
	}
	t := tail[len(tail)-footTailLen:]
	if string(t[8:12]) != footMagic {
		return nil, fmt.Errorf("%w run: bad footer magic", ErrCorrupt)
	}
	plen := int(binary.BigEndian.Uint32(t[0:]))
	if plen < 0 || plen > len(tail)-footTailLen {
		return nil, fmt.Errorf("%w run: footer length %d", ErrCorrupt, plen)
	}
	payload := tail[len(tail)-footTailLen-plen : len(tail)-footTailLen]
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(t[4:]) {
		return nil, fmt.Errorf("%w run: footer checksum", ErrCorrupt)
	}
	nBlocks, n := binary.Uvarint(payload)
	if n <= 0 || nBlocks > uint64(len(payload)) {
		return nil, fmt.Errorf("%w run: block count", ErrCorrupt)
	}
	payload = payload[n:]
	refs := make([]blockRef, 0, nBlocks)
	for i := uint64(0); i < nBlocks; i++ {
		klen, n := binary.Uvarint(payload)
		if n <= 0 || klen > uint64(len(payload[n:])) {
			return nil, fmt.Errorf("%w run: footer key", ErrCorrupt)
		}
		key := append([]byte(nil), payload[n:n+int(klen)]...)
		payload = payload[n+int(klen):]
		off, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("%w run: footer offset", ErrCorrupt)
		}
		payload = payload[n:]
		length, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("%w run: footer block length", ErrCorrupt)
		}
		payload = payload[n:]
		cnt, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("%w run: footer block entry count", ErrCorrupt)
		}
		payload = payload[n:]
		if length > maxBlockBytes || off+length > uint64(size) || off < runHeaderLen {
			return nil, fmt.Errorf("%w run: block ref out of file", ErrCorrupt)
		}
		refs = append(refs, blockRef{firstKey: key, off: int64(off), length: int(length), count: int(cnt)})
	}
	return refs, nil
}

// blockCursor is the one decoder of the block format: it walks a block's
// prefix/delta encoding in place, one entry per next call, allocating nothing
// once its key buffer has grown to the longest key. key is that reusable
// buffer and val aliases the block, so both are valid only until the next
// call of next or reset; a reader copies out the versions it returns.
type blockCursor struct {
	rest []byte // undecoded remainder of the payload
	left uint64 // entries not yet decoded
	wall int64  // wall tick of the current entry, the base of the next delta

	key  []byte
	val  []byte
	ts   itime.Timestamp
	stub bool
}

// reset points the cursor before the first entry of block b (header +
// payload) after verifying its length and checksum.
func (c *blockCursor) reset(b []byte) error {
	if len(b) < blockHdrLen {
		return fmt.Errorf("%w block: short", ErrCorrupt)
	}
	plen := int(binary.BigEndian.Uint32(b[0:]))
	if plen < 0 || plen > len(b)-blockHdrLen || plen > maxBlockBytes {
		return fmt.Errorf("%w block: length %d", ErrCorrupt, plen)
	}
	payload := b[blockHdrLen : blockHdrLen+plen]
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(b[4:]) {
		return fmt.Errorf("%w block: checksum", ErrCorrupt)
	}
	count, n := binary.Uvarint(payload)
	if n <= 0 || count > uint64(len(payload)) {
		return fmt.Errorf("%w block: entry count", ErrCorrupt)
	}
	c.rest, c.left, c.wall = payload[n:], count, 0
	c.key, c.val = c.key[:0], nil
	return nil
}

// next decodes the following entry into the cursor; ok=false means the block
// is exhausted.
func (c *blockCursor) next() (ok bool, err error) {
	if c.left == 0 {
		return false, nil
	}
	p := c.rest
	shared, n := binary.Uvarint(p)
	if n <= 0 || shared > uint64(len(c.key)) {
		return false, fmt.Errorf("%w block: shared prefix", ErrCorrupt)
	}
	p = p[n:]
	slen, n := binary.Uvarint(p)
	if n <= 0 || slen > uint64(len(p[n:])) {
		return false, fmt.Errorf("%w block: suffix length", ErrCorrupt)
	}
	c.key = append(c.key[:shared], p[n:n+int(slen)]...)
	p = p[n+int(slen):]
	if len(p) < 1 {
		return false, fmt.Errorf("%w block: flags", ErrCorrupt)
	}
	c.stub = p[0]&1 != 0
	p = p[1:]
	wallDelta, n := binary.Varint(p)
	if n <= 0 {
		return false, fmt.Errorf("%w block: wall delta", ErrCorrupt)
	}
	p = p[n:]
	seq32, n := binary.Uvarint(p)
	if n <= 0 || seq32 > 1<<32-1 {
		return false, fmt.Errorf("%w block: seq", ErrCorrupt)
	}
	p = p[n:]
	vlen, n := binary.Uvarint(p)
	if n <= 0 || vlen > uint64(len(p[n:])) {
		return false, fmt.Errorf("%w block: value length", ErrCorrupt)
	}
	c.val = p[n : n+int(vlen)]
	c.rest = p[n+int(vlen):]
	c.wall += wallDelta
	c.ts = itime.Timestamp{Wall: c.wall, Seq: uint32(seq32)}
	c.left--
	return true, nil
}

// seek advances to the first following entry whose key is >= key; ok=false
// means the block holds none.
func (c *blockCursor) seek(key []byte) (ok bool, err error) {
	for {
		if ok, err = c.next(); !ok || bytes.Compare(c.key, key) >= 0 {
			return ok, err
		}
	}
}

// appendBlock materialises block b (header + payload) onto entries, copying
// every key and value out of the block.
func (c *blockCursor) appendBlock(entries []Entry, b []byte) ([]Entry, error) {
	if err := c.reset(b); err != nil {
		return nil, err
	}
	for {
		ok, err := c.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return entries, nil
		}
		entries = append(entries, Entry{
			Key:   append([]byte(nil), c.key...),
			Value: append([]byte(nil), c.val...),
			TS:    c.ts,
			Stub:  c.stub,
		})
	}
}

// DecodeRun decodes a complete run image back into its entries, validating
// every checksum on the way — the inverse of EncodeRun, used by compaction
// and by the fuzzer.
func DecodeRun(data []byte) (tableID uint32, seq uint64, level uint8, entries []Entry, err error) {
	tableID, seq, level, count, err := parseRunHeader(data)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	refs, err := parseRunFooter(data, int64(len(data)))
	if err != nil {
		return 0, 0, 0, nil, err
	}
	// The header's count is unverified until the end; an entry encodes to at
	// least six bytes, which bounds what a corrupt count can make us reserve.
	entries = make([]Entry, 0, min(count, uint64(len(data))/6))
	var c blockCursor
	for _, r := range refs {
		if r.off+int64(r.length) > int64(len(data)) {
			return 0, 0, 0, nil, fmt.Errorf("%w run: block past end", ErrCorrupt)
		}
		entries, err = c.appendBlock(entries, data[r.off:r.off+int64(r.length)])
		if err != nil {
			return 0, 0, 0, nil, err
		}
	}
	if uint64(len(entries)) != count {
		return 0, 0, 0, nil, fmt.Errorf("%w run: entry count %d != header %d", ErrCorrupt, len(entries), count)
	}
	return tableID, seq, level, entries, nil
}

// Compact sorts, (key, TS)-deduplicates and retention-filters entries for a
// merged run. When horizon is non-zero, versions no AS OF query at or after
// horizon can reach are dropped: for each key, everything strictly older
// than the newest version starting at or before horizon goes, and when that
// anchor version is itself a delete stub it goes too (absence from the cold
// tier reads as deleted, so the stub carries no information).
//
// Compact may only be used when entries cover the key's ENTIRE cold history:
// dropping a stub anchor while an older live version survives in another run
// would resurrect it. Partial merges use CompactPartial.
func Compact(entries []Entry, horizon itime.Timestamp) []Entry {
	return compactEntries(entries, horizon, true)
}

// CompactPartial is Compact for merges that see only part of a key's cold
// history (a subset of the table's runs): delete-stub anchors are kept, so an
// older version of the key surviving in an unmerged run cannot resurface.
func CompactPartial(entries []Entry, horizon itime.Timestamp) []Entry {
	return compactEntries(entries, horizon, false)
}

func compactEntries(entries []Entry, horizon itime.Timestamp, dropStubAnchor bool) []Entry {
	entries = sortEntries(entries)
	if horizon.IsZero() {
		return entries
	}
	out := entries[:0]
	for i := 0; i < len(entries); {
		j := i
		for j < len(entries) && bytes.Equal(entries[j].Key, entries[i].Key) {
			j++
		}
		// entries[i:j] is one key, TS ascending. Find the anchor: the newest
		// version with TS <= horizon.
		anchor := -1
		for k := i; k < j; k++ {
			if !entries[k].TS.After(horizon) {
				anchor = k
			}
		}
		start := i
		if anchor >= 0 {
			start = anchor
			if entries[anchor].Stub && dropStubAnchor {
				start = anchor + 1
			}
		}
		out = append(out, entries[start:j]...)
		i = j
	}
	return out
}
