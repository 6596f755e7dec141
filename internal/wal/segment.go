package wal

// The log is stored as a sequence of rotated segment files plus one small
// control file:
//
//	wal.log            control file: two generation-stamped checkpoint slots
//	wal.log.00000001   segment 1: header + records
//	wal.log.00000002   segment 2: header + records
//	...
//
// LSNs are logical byte offsets in the unbroken record stream, exactly as in
// the single-file layout (FirstLSN is still 16): segment seq covers
// [start, nextStart) and a record at lsn lives at file offset
// segHeaderLen + (lsn - start) of its segment. Records never span segments —
// rotation happens before an LSN is assigned — so a record is always one
// contiguous read. Checkpoint-driven truncation deletes whole dead segments
// from the front, which is how the engine gives space back to a full disk.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strconv"
	"strings"

	"immortaldb/internal/obs"
	"immortaldb/internal/storage/vfs"
)

// segMagic identifies a segment file ("IMMSEG\n" + format version).
const segMagic = 0x494d4d5345470a01

// segHeaderLen is the segment header: magic(8) seq(8) startLSN(8) crc(4)
// pad(4). The CRC covers the first 24 bytes, so a torn header — a crash
// during rotation — is detected and the segment discarded, which is safe
// because nothing in a segment can be acked before its header is durable.
const segHeaderLen = 32

// ctlMagic identifies the control file ("IMMWAL\n" + version 2; version 1
// was the single-file layout, refused on open with a clear error).
const ctlMagic = 0x494d4d57414c0a02

// Control file geometry: two slots in separate sectors, written alternately
// by generation, each magic(8) gen(8) checkpointLSN(8) crc(4). A torn write
// can destroy at most the slot being written; the other still names a valid
// checkpoint whose segments are all retained (truncation only runs after the
// new slot is durable).
const (
	ctlSlotLen    = 28
	ctlSlotStride = 512
)

// ErrBadSegment reports a segment file whose header fails validation.
var ErrBadSegment = errors.New("wal: bad segment header")

var segCRC = crc32.MakeTable(crc32.Castagnoli)

// segment is one log segment file. start is the LSN of its first record; the
// data of a sealed segment runs exactly to the next segment's start.
type segment struct {
	seq   uint64
	start LSN
	f     vfs.File
	path  string
	// prealloc records that the file has been extended to full capacity, so
	// record writes within it cannot hit ENOSPC.
	prealloc bool
	// dirty marks bytes ingested by a replica copy (IngestChunk) that have
	// not yet been fsynced by SyncIngested.
	dirty bool
}

func encodeSegHeader(seq uint64, start LSN) []byte {
	b := make([]byte, segHeaderLen)
	binary.BigEndian.PutUint64(b[0:], segMagic)
	binary.BigEndian.PutUint64(b[8:], seq)
	binary.BigEndian.PutUint64(b[16:], uint64(start))
	binary.BigEndian.PutUint32(b[24:], crc32.Checksum(b[:24], segCRC))
	return b
}

// decodeSegHeader validates a segment header. It must never panic on
// arbitrary input (fuzzed: FuzzSegmentHeader).
func decodeSegHeader(b []byte) (seq uint64, start LSN, err error) {
	if len(b) < segHeaderLen {
		return 0, 0, fmt.Errorf("%w: %d bytes, want %d", ErrBadSegment, len(b), segHeaderLen)
	}
	if got, want := crc32.Checksum(b[:24], segCRC), binary.BigEndian.Uint32(b[24:28]); got != want {
		return 0, 0, fmt.Errorf("%w: crc %08x != %08x", ErrBadSegment, got, want)
	}
	if m := binary.BigEndian.Uint64(b[0:]); m != segMagic {
		return 0, 0, fmt.Errorf("%w: magic %016x", ErrBadSegment, m)
	}
	seq = binary.BigEndian.Uint64(b[8:])
	start = LSN(binary.BigEndian.Uint64(b[16:]))
	if seq == 0 || start < FirstLSN {
		return 0, 0, fmt.Errorf("%w: seq %d start %d", ErrBadSegment, seq, start)
	}
	return seq, start, nil
}

// segPath names segment seq of the log at base.
func segPath(base string, seq uint64) string {
	return fmt.Sprintf("%s.%08d", base, seq)
}

// parseSegPath extracts the sequence number from a segment file name; ok is
// false for names that are not exactly base + "." + 8 digits (stray files
// matching the listing prefix are ignored, never deleted).
func parseSegPath(base, name string) (seq uint64, ok bool) {
	suffix, found := strings.CutPrefix(name, base+".")
	if !found || len(suffix) != 8 {
		return 0, false
	}
	n, err := strconv.ParseUint(suffix, 10, 64)
	if err != nil || n == 0 {
		return 0, false
	}
	return n, true
}

// loadChain opens the segment files of the log at path in seq order and
// returns the longest valid chain. Each segment's header must decode and name
// its file's seq, and each segment must continue the one before it: the next
// seq, and a later start. The first segment that fails ends the chain — a
// segment's header is durable before any record in it can be acked, so
// nothing from there on was ever acknowledged — and it and every later file
// are returned as dead, untouched. loadChain changes nothing at path: Open
// deletes the dead suffix, read-only readers just skip it.
func loadChain(fsys vfs.FS, path string) (segs []*segment, dead []string, err error) {
	names, err := fsys.List(path + ".")
	if err != nil {
		return nil, nil, fmt.Errorf("wal: list segments: %w", err)
	}
	type cand struct {
		seq  uint64
		name string
	}
	var cands []cand
	for _, name := range names {
		if seq, ok := parseSegPath(path, name); ok {
			cands = append(cands, cand{seq, name})
		}
	}
	// List returns sorted names and seqs are fixed-width, so cands are in
	// ascending seq order already; validate rather than assume.
	for i := 1; i < len(cands); i++ {
		if cands[i].seq <= cands[i-1].seq {
			return nil, nil, fmt.Errorf("wal: segment listing out of order at %s", cands[i].name)
		}
	}
	for i, c := range cands {
		f, err := fsys.OpenFile(c.name)
		if err != nil {
			closeChain(segs)
			return nil, nil, fmt.Errorf("wal: open segment %s: %w", c.name, err)
		}
		hdr := make([]byte, segHeaderLen)
		_, rerr := f.ReadAt(hdr, 0)
		seq, start, derr := decodeSegHeader(hdr)
		bad := rerr != nil && rerr != io.EOF || derr != nil || seq != c.seq
		if !bad && len(segs) > 0 {
			prev := segs[len(segs)-1]
			bad = seq != prev.seq+1 || start <= prev.start
		}
		if bad {
			f.Close()
			for _, d := range cands[i:] {
				dead = append(dead, d.name)
			}
			break
		}
		segs = append(segs, &segment{seq: seq, start: start, f: f, path: c.name})
	}
	return segs, dead, nil
}

func closeChain(segs []*segment) {
	for _, seg := range segs {
		seg.f.Close()
	}
}

// fileEnd is the LSN just past the last segment's file — where its records
// must end at the latest. Only the last segment is measured by its size: a
// sealed one was preallocated to full capacity, so its records end at the
// next segment's start, wherever its zero tail runs to.
func fileEnd(segs []*segment) (LSN, error) {
	last := segs[len(segs)-1]
	size, err := last.f.Size()
	if err != nil {
		return 0, fmt.Errorf("wal: size %s: %w", last.path, err)
	}
	return last.start + LSN(size-segHeaderLen), nil
}

// walkReadAhead is the read size of a segment walk. Records are decoded one
// at a time from a stream, so a walk reads at most this far past the last
// record — not through a preallocated segment's zero tail.
const walkReadAhead = 64 << 10

// walk decodes the records of the chain segs in [from, end) in order,
// calling fn (if non-nil) with each; from is clamped up to the first
// retained byte. A segment's records end at the next segment's start, the
// last segment's at end. walk returns the LSN it stopped at: end when every
// byte decoded, otherwise the start of the first bytes that are not a whole
// record — a torn tail, a hole in a sealed segment, a record still in
// flight, a preallocated zero tail. What a stop short of end means is the
// caller's call. Read errors and fn's errors end the walk and are returned.
func walk(segs []*segment, from, end LSN, fn func(*Record) error) (LSN, error) {
	if from < segs[0].start {
		from = segs[0].start
	}
	at := from
	var buf []byte // one record at a time: decodeRecord copies out what it keeps
	for i := segIndex(segs, from); i < len(segs) && at < end; i++ {
		seg := segs[i]
		hi := end
		if i+1 < len(segs) && segs[i+1].start < hi {
			hi = segs[i+1].start
		}
		rd := bufio.NewReaderSize(io.NewSectionReader(seg.f, segHeaderLen+int64(at-seg.start), int64(hi-at)), walkReadAhead)
		for at < hi {
			// Read a record only if its length prefix is plausible.
			prefix, err := rd.Peek(4)
			if err == nil {
				total := int(binary.BigEndian.Uint32(prefix))
				if total < recHeaderLen || total > MaxRecordLen || LSN(total) > hi-at {
					break
				}
				buf = slices.Grow(buf[:0], total)[:total]
				_, err = io.ReadFull(rd, buf)
			}
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				break
			}
			if err != nil {
				obs.IOError("read", vfs.ErrClass(err))
				return at, fmt.Errorf("wal: read %s: %w", seg.path, err)
			}
			r, n, err := decodeRecord(buf)
			if err != nil {
				break
			}
			if fn != nil {
				r.LSN = at
				if err := fn(r); err != nil {
					return r.LSN, err
				}
			}
			at += LSN(n)
		}
		if at < hi {
			break
		}
	}
	return at, nil
}

func encodeCtlSlot(gen uint64, ckpt LSN) []byte {
	b := make([]byte, ctlSlotLen)
	binary.BigEndian.PutUint64(b[0:], ctlMagic)
	binary.BigEndian.PutUint64(b[8:], gen)
	binary.BigEndian.PutUint64(b[16:], uint64(ckpt))
	binary.BigEndian.PutUint32(b[24:], crc32.Checksum(b[:24], segCRC))
	return b
}

func decodeCtlSlot(b []byte) (gen uint64, ckpt LSN, ok bool) {
	if len(b) < ctlSlotLen {
		return 0, 0, false
	}
	if crc32.Checksum(b[:24], segCRC) != binary.BigEndian.Uint32(b[24:28]) {
		return 0, 0, false
	}
	if binary.BigEndian.Uint64(b[0:]) != ctlMagic {
		return 0, 0, false
	}
	return binary.BigEndian.Uint64(b[8:]), LSN(binary.BigEndian.Uint64(b[16:])), true
}
