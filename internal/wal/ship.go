package wal

import (
	"errors"
	"fmt"

	"immortaldb/internal/storage/vfs"
)

// This file is the log's replication surface. A primary ships its durable
// byte prefix to followers chunk by chunk (ShipRead); a follower writes the
// same bytes into an identical local segment chain (IngestChunk), so its
// copy of the log is byte-for-byte a prefix of the primary's. Follower crash
// recovery therefore needs no new machinery: reopening the copied chain runs
// the ordinary torn-tail scan, and resync resumes from wherever it ends.

// ErrShipGap reports a ship request below the primary's first retained
// record: checkpoint truncation reclaimed the segments the follower still
// needs, so it must re-seed from a base snapshot instead of the log.
var ErrShipGap = errors.New("wal: requested LSN below first retained segment")

// ErrSealed reports ingestion into a sealed log — a primary's, or a
// promoted copy cut at the fence: the log appends its own timeline, which no
// shipped byte may ever extend.
var ErrSealed = errors.New("wal: log sealed, ingestion refused")

// Seal latches the log against ingestion: every IngestChunk fails with
// ErrSealed from here on. A primary seals its log at open, and Promote seals
// a replica's copy at the fence, so a late chunk from a retired pull loop —
// or a zombie shipper — can never graft foreign bytes onto the local
// timeline (or trip the ingest latch and refuse the primary's own appends).
func (l *Log) Seal() {
	l.mu.Lock()
	l.sealed = true
	l.mu.Unlock()
}

// ShipChunk is one shipped span of the log. The bytes lie entirely inside
// one segment of the primary's chain, identified by (Seq, SegStart) so the
// follower can reproduce the same rotation points. At is the logical offset
// of Data[0]; a chunk with empty Data means the follower is caught up with
// the primary's durable prefix.
type ShipChunk struct {
	Seq      uint64 // segment sequence number
	SegStart LSN    // first LSN of that segment
	At       LSN    // logical offset of Data[0]
	Data     []byte
}

// ShipRead reads up to max bytes of the durable log starting at from. The
// returned chunk never crosses a segment boundary and never includes bytes
// past FlushedLSN, so every byte shipped is already crash-durable on the
// primary — a follower can never get ahead of what the primary would itself
// recover. At the durable end it returns an empty chunk positioned at from.
func (l *Log) ShipRead(from LSN, max int) (ShipChunk, error) {
	if max <= 0 {
		return ShipChunk{}, fmt.Errorf("wal: ship read of %d bytes", max)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ShipChunk{}, ErrClosed
	}
	if from < FirstLSN {
		from = FirstLSN
	}
	if from < l.segs[0].start {
		return ShipChunk{}, fmt.Errorf("%w: %d < %d", ErrShipGap, from, l.segs[0].start)
	}
	if from > l.flushed {
		return ShipChunk{}, fmt.Errorf("wal: ship read at %d past durable end %d", from, l.flushed)
	}
	i := segIndex(l.segs, from)
	seg := l.segs[i]
	if from == l.flushed {
		// Caught up. If the durable end sits exactly on a rotation point the
		// next byte belongs to the next segment; report that segment's
		// coordinates so the follower rotates in lockstep.
		if i+1 < len(l.segs) && l.segs[i+1].start == from {
			seg = l.segs[i+1]
		}
		return ShipChunk{Seq: seg.seq, SegStart: seg.start, At: from}, nil
	}
	hi := l.flushed
	if i+1 < len(l.segs) && l.segs[i+1].start < hi {
		hi = l.segs[i+1].start
	}
	if hi <= from {
		// from sits exactly at this segment's end; the next segment holds the
		// byte. (Only reachable when rotation happened at from < flushed.)
		seg = l.segs[i+1]
		hi = l.flushed
		if i+2 < len(l.segs) && l.segs[i+2].start < hi {
			hi = l.segs[i+2].start
		}
	}
	n := int(hi - from)
	if n > max {
		n = max
	}
	buf := make([]byte, n)
	if _, err := seg.f.ReadAt(buf, segHeaderLen+int64(from-seg.start)); err != nil {
		return ShipChunk{}, fmt.Errorf("wal: ship read %s at %d: %w", seg.path, from, err)
	}
	return ShipChunk{Seq: seg.seq, SegStart: seg.start, At: from, Data: buf}, nil
}

// IngestChunk appends one shipped chunk to a follower's log copy. Chunks
// must arrive contiguously (ch.At == End()); when the chunk belongs to the
// next segment of the primary's chain, the local chain rotates at the same
// point before writing. Ingested bytes are readable immediately (Scan,
// ReadAt) but only crash-durable after SyncIngested; a crash in between is
// healed by the ordinary torn-tail scan on reopen.
//
// A log that has ingested is a replica copy: ordinary Append is refused, so
// the copy can never diverge from the primary's byte stream.
func (l *Log) IngestChunk(ch ShipChunk) error {
	if len(ch.Data) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.fail != nil {
		return l.failedErrLocked()
	}
	if l.sealed {
		return ErrSealed
	}
	if len(l.buf) > 0 {
		return fmt.Errorf("wal: ingest into a log with buffered appends")
	}
	if ch.At != l.end {
		return fmt.Errorf("wal: ingest at %d, log ends at %d", ch.At, l.end)
	}
	l.ingest = true
	active := l.segs[len(l.segs)-1]
	if ch.Seq != active.seq {
		// Primary rotated: mirror it. A fresh empty local segment whose
		// header was never matched by shipped bytes (the empty seg 1 of a
		// brand-new copy receiving a post-truncation chain) is replaced.
		if active.start == l.end && len(l.segs) == 1 && ch.SegStart == l.end {
			if ch.Seq != active.seq {
				if err := l.fsys.Remove(active.path); err == nil {
					active.f.Close()
					l.segs = l.segs[:0]
				} else {
					return fmt.Errorf("wal: replace placeholder segment: %v", err)
				}
			}
		} else if ch.Seq != active.seq+1 || ch.SegStart != l.end {
			return fmt.Errorf("wal: ingest segment %d@%d does not follow %d@%d (end %d)",
				ch.Seq, ch.SegStart, active.seq, active.start, l.end)
		}
		if err := l.addSegment(ch.Seq, ch.SegStart, false); err != nil {
			return err
		}
		active = l.segs[len(l.segs)-1]
	} else if ch.SegStart != active.start {
		return fmt.Errorf("wal: ingest segment %d start %d, local start %d", ch.Seq, ch.SegStart, active.start)
	}
	off := segHeaderLen + int64(ch.At-active.start)
	if _, err := active.f.WriteAt(ch.Data, off); err != nil {
		err = fmt.Errorf("wal: ingest write %s: %w", active.path, err)
		l.fail = err
		return err
	}
	active.dirty = true
	l.end += LSN(len(ch.Data))
	// Readable-but-unsynced bytes count as flushed on a replica: flushed
	// gates the pool's write-ahead check, and the replica's authority on
	// durability is the primary, which only ships its own durable prefix.
	l.flushed = l.end
	l.bufStart = l.end
	l.appends++
	return nil
}

// ResetIngest re-roots an empty log copy at (seq, start): the placeholder
// first segment of a freshly-created log is replaced by one matching the
// primary's chain, so a base-seeded follower can ingest a log suffix that
// begins mid-history (the primary truncated everything before its base
// checkpoint). Only an empty log — no record ever appended or ingested —
// can be re-rooted.
func (l *Log) ResetIngest(seq uint64, start LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if len(l.segs) != 1 || l.end != l.segs[0].start || len(l.buf) > 0 {
		return fmt.Errorf("wal: reset of a non-empty log (end %d)", l.end)
	}
	if start < FirstLSN || seq == 0 {
		return fmt.Errorf("wal: reset to segment %d@%d", seq, start)
	}
	old := l.segs[0]
	old.f.Close()
	if err := l.fsys.Remove(old.path); err != nil {
		return fmt.Errorf("wal: reset remove %s: %w", old.path, err)
	}
	l.segs = l.segs[:0]
	if err := l.addSegment(seq, start, false); err != nil {
		return err
	}
	l.ingest = true
	l.end, l.flushed, l.bufStart = start, start, start
	return nil
}

// SyncIngested fsyncs every segment written by IngestChunk since the last
// call. A replica calls it before moving its checkpoint pointer, mirroring
// the primary's flush-before-checkpoint ordering.
func (l *Log) SyncIngested() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.fail != nil {
		return l.failedErrLocked()
	}
	for _, seg := range l.segs {
		if !seg.dirty {
			continue
		}
		if !l.NoSync {
			if err := seg.f.Sync(); err != nil {
				err = fmt.Errorf("wal: sync ingested %s: %w", seg.path, err)
				l.fail = err
				return err
			}
			l.syncs++
		}
		seg.dirty = false
	}
	return nil
}

// TrimIngestTail seals the readable end of a follower's log copy at a record
// boundary. Starting from a known boundary at or below the ingested end
// (clamped up to the first retained byte), it walks complete records forward
// and cuts the log at the first incomplete one — the half-shipped record a
// dead primary will never finish. End, FlushedLSN and the append position all
// move back to the cut, and the stale partial bytes past it are truncated
// from the tail segment so no future crash scan can resurrect them. from must
// lie on a record boundary (a replica's applied LSN always does). Returns the
// boundary the log now ends at — the promotion fence.
func (l *Log) TrimIngestTail(from LSN) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.fail != nil {
		return 0, l.failedErrLocked()
	}
	if len(l.buf) > 0 {
		return 0, fmt.Errorf("wal: trim of a log with buffered appends")
	}
	if from > l.end {
		return 0, fmt.Errorf("wal: trim from %d past end %d", from, l.end)
	}
	boundary, err := walk(l.segs, from, l.end, nil)
	if err != nil {
		return 0, err
	}
	if boundary < l.end {
		seg := l.segs[segIndex(l.segs, boundary)]
		if err := seg.f.Truncate(segHeaderLen + int64(boundary-seg.start)); err != nil {
			err = fmt.Errorf("wal: trim truncate %s: %w", seg.path, err)
			l.fail = err
			return 0, err
		}
		seg.prealloc = false // shrunk: the next Append re-extends it
	}
	l.end, l.flushed, l.bufStart = boundary, boundary, boundary
	return boundary, nil
}

// Promote seals a follower's log copy and reopens it for ordinary appends —
// the log half of promoting a replica to primary. The ingested stream is
// trimmed to its last complete record (TrimIngestTail) and the ingest latch
// cleared, so Append works again; the caller then appends the promotion
// record at the returned fence before accepting any write. Promote does not
// require that the log ever ingested: a copy reopened after a crash
// mid-promotion has only the on-disk chain, and promoting it again is the
// recovery path.
func (l *Log) Promote(from LSN) (LSN, error) {
	fence, err := l.TrimIngestTail(from)
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	l.ingest = false
	l.sealed = true
	l.mu.Unlock()
	return fence, nil
}

// SegmentStart returns the (seq, start) coordinates of the segment that
// contains lsn — or, when lsn is the current end of an exactly-full chain,
// of the segment that will contain the next byte.
func (l *Log) SegmentStart(lsn LSN) (seq uint64, start LSN, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, 0, ErrClosed
	}
	if lsn < l.segs[0].start {
		return 0, 0, fmt.Errorf("%w: %d < %d", ErrShipGap, lsn, l.segs[0].start)
	}
	seg := l.segs[segIndex(l.segs, lsn)]
	return seg.seq, seg.start, nil
}

// ScanComplete is Scan for a replica's log copy. Shipped chunks can split a
// record, so the readable end of an ingesting log may sit mid-record; the
// scan stops silently at the first incomplete record instead of failing —
// the rest of it is simply still in flight.
func (l *Log) ScanComplete(from LSN, fn func(*Record) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	end := l.end
	segs := l.segs
	l.mu.Unlock()
	_, err := walk(segs, from, end, fn)
	return err
}

// The three functions below read the retained chain at path without
// opening, and therefore without changing, it: the chain is loaded by the
// same loadChain as Open and walked by the same walk, minus Open's repairs.
// A dead suffix is skipped, not deleted, and a torn tail is where history
// ends, not an error. Point-in-time restore reads a source database — live or
// crashed — through them, never touching its log or its control file.

// openRetained loads the chain at path and returns it with the end of its
// last segment's file.
func openRetained(fsys vfs.FS, path string) ([]*segment, LSN, error) {
	segs, _, err := loadChain(fsys, path)
	if err != nil {
		return nil, 0, err
	}
	if len(segs) == 0 {
		return nil, 0, fmt.Errorf("wal: no segments at %s", path)
	}
	end, err := fileEnd(segs)
	if err != nil {
		closeChain(segs)
		return nil, 0, err
	}
	return segs, end, nil
}

// RetainedStart returns the first LSN of the oldest segment at path. It lets
// restore verify the chain reaches back to the beginning of history before
// replaying it.
func RetainedStart(fsys vfs.FS, path string) (LSN, error) {
	segs, _, err := openRetained(fsys, path)
	if err != nil {
		return 0, err
	}
	defer closeChain(segs)
	return segs[0].start, nil
}

// ScanRetained calls fn with every record of the chain at path, in order,
// up to its first undecodable byte; returning an error stops the scan.
func ScanRetained(fsys vfs.FS, path string, fn func(*Record) error) error {
	segs, end, err := openRetained(fsys, path)
	if err != nil {
		return err
	}
	defer closeChain(segs)
	_, err = walk(segs, segs[0].start, end, fn)
	return err
}

// CopyRetained copies the raw chain at path into dst — a fresh, empty log —
// stopping at upto (an exclusive bound on a record boundary) or at the
// chain's first undecodable byte, whichever comes first. The copy reproduces
// the source's exact segment geometry via IngestChunk, so the destination is
// byte-for-byte a prefix of the source. Point-in-time restore uses it to cut
// a database's history at a chosen commit.
func CopyRetained(fsys vfs.FS, path string, upto LSN, dst *Log) error {
	const copyChunk = 1 << 20
	segs, end, err := openRetained(fsys, path)
	if err != nil {
		return err
	}
	defer closeChain(segs)
	if upto < end {
		end = upto
	}
	if end, err = walk(segs, segs[0].start, end, nil); err != nil {
		return err
	}
	for i, at := 0, segs[0].start; at < end; i++ {
		seg := segs[i]
		hi := end
		if i+1 < len(segs) && segs[i+1].start < hi {
			hi = segs[i+1].start
		}
		for at < hi {
			buf := make([]byte, min(hi-at, copyChunk))
			if _, err := seg.f.ReadAt(buf, segHeaderLen+int64(at-seg.start)); err != nil {
				return fmt.Errorf("wal: copy read %s: %w", seg.path, err)
			}
			if err := dst.IngestChunk(ShipChunk{Seq: seg.seq, SegStart: seg.start, At: at, Data: buf}); err != nil {
				return err
			}
			at += LSN(len(buf))
		}
	}
	return nil
}
