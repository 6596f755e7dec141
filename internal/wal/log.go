package wal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"immortaldb/internal/itime"
	"immortaldb/internal/obs"
	"immortaldb/internal/storage/vfs"
)

// Observability: append and fsync latency distributions plus how many commit
// hardenings each group-commit flush round satisfied (the batching win made
// visible). Process-global, aggregated across Log instances.
var obsAppendSample atomic.Uint64

var (
	obsAppendLat = obs.NewHistogram("immortaldb_wal_append_seconds",
		"Latency of appending one record to the WAL buffer.", obs.LatencyBuckets)
	obsFsyncLat = obs.NewHistogram("immortaldb_wal_fsync_seconds",
		"Latency of one WAL fsync.", obs.LatencyBuckets)
	obsGroupBatch = obs.NewHistogram("immortaldb_wal_group_batch",
		"Commit hardenings per group-commit flush round (leader plus joined followers).", obs.CountBuckets)
)

// FirstLSN is the LSN of the first record ever appended. LSNs are logical
// offsets in the unbroken record stream; the value 16 is kept from the
// single-file layout so LSN arithmetic and on-disk record formats are
// unchanged by segmentation.
const FirstLSN = LSN(16)

// DefaultSegmentSize is the data capacity of one segment file before the log
// rotates to a new one.
const DefaultSegmentSize = 16 << 20

// ErrClosed reports use of a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrFailed reports use of a log that has taken an I/O failure on its write
// path. The state is sticky by design: once a write or fsync has failed, the
// kernel may have dropped the dirty pages, so a later "successful" fsync
// proves nothing (the fsyncgate trap). The only way back to a trustworthy
// log is reopen + recovery, which re-reads what is actually on disk.
var ErrFailed = errors.New("wal: log failed, reopen required")

// Log is the write-ahead log: rotated segment files plus a control file (see
// segment.go for the layout). Appends are buffered in memory until Flush;
// FlushedLSN tells the buffer pool how far the log is durable (the WAL
// protocol: a page may be written only when the log covering its changes has
// been flushed).
//
// Appends stay cheap and concurrent: l.mu covers only the in-memory buffer.
// The write+fsync of a flush happens outside l.mu, serialized by flushMu, so
// new records can be appended while a sync is in flight — the property group
// commit (SyncTo) depends on.
type Log struct {
	mu       sync.Mutex // in-memory state: buf, offsets, segments, counters
	flushMu  sync.Mutex // serializes flush rounds: file writes stay ordered
	fsys     vfs.FS
	path     string
	ctl      vfs.File   // control file (checkpoint slots)
	segs     []*segment // ascending by start; the last is the active segment
	ctlGen   uint64
	buf      []byte // pending appended bytes
	bufStart LSN    // logical offset of buf[0]
	end      LSN    // next append position
	flushed  LSN    // durable up to here (exclusive)
	ckpt     LSN    // last checkpoint record, 0 if none
	fail     error  // sticky first write-path failure; nil while healthy
	closed   bool
	// flushing is set while a flush round holds captured bytes it has not
	// finished writing: they are neither in buf nor readable from the files.
	flushing bool
	// ingest marks a replica's log copy (set by the first IngestChunk).
	// Ordinary appends are refused: the copy must stay byte-identical to a
	// prefix of the primary's stream.
	ingest bool
	// sealed marks a promoted log: Promote cut the ingested stream at the
	// fence and this log now appends its own timeline, so any further
	// ingestion — a late chunk from a retired pull loop, a zombie shipper —
	// is refused instead of grafting foreign bytes past the fence.
	sealed bool
	// NoSync skips fsync on Flush; used by benchmarks where the paper's
	// workload measures CPU and buffer behaviour rather than disk latency.
	NoSync bool
	// CommitEvery bounds the extra latency a group-commit leader adds waiting
	// for followers to join its fsync. Zero (the default) never waits: the
	// leader flushes immediately, and batching arises from committers that
	// arrive while its sync is in flight.
	CommitEvery time.Duration
	// Clock is the timeline the CommitEvery window is waited out on
	// (default itime.Real()). Must be set before use.
	Clock itime.Timeline
	// SegmentSize is the data capacity of a segment before rotation; zero
	// means DefaultSegmentSize. Must be set before use.
	SegmentSize int64
	// LowWater is extra free space (beyond the new segment itself) the
	// filesystem must report for a rotation to proceed, reserving headroom
	// for page and checkpoint writes. Only enforced when the FS implements
	// vfs.FreeSpacer. Must be set before use.
	LowWater int64

	// Group-commit dispatcher state. gcRound counts completed flush rounds so
	// followers can wait for "the round after mine started".
	gcMu     sync.Mutex
	gcCond   *sync.Cond
	gcLeader bool
	gcRound  uint64
	// gcJoiners counts followers parked on the in-flight round; the leader
	// reads-and-resets it to observe the round's batch size. A follower that
	// joins after the round captured the buffer inflates the count by one —
	// histogram noise, not bookkeeping.
	gcJoiners uint64

	appends uint64
	syncs   uint64
	grouped uint64 // SyncTo calls satisfied by another caller's fsync
}

// Open opens or creates the log at path on the real filesystem. On open it
// scans for the last valid record, truncating any torn tail left by a crash.
func Open(path string) (*Log, error) {
	return OpenFS(vfs.OS(), path)
}

// OpenFS is Open on an arbitrary filesystem — vfs.OS for production,
// vfs.SimFS for crash testing. It reads the control file, discovers and
// validates the segment files, and scans the retained records to find the
// end of log, truncating any torn tail.
func OpenFS(fsys vfs.FS, path string) (*Log, error) {
	l := &Log{fsys: fsys, path: path, Clock: itime.Real()}
	if err := l.openCtl(); err != nil {
		return nil, err
	}
	if err := l.openSegments(); err != nil {
		l.ctl.Close()
		return nil, err
	}
	if err := l.scanSegments(); err != nil {
		l.closeFiles()
		return nil, err
	}
	if l.ckpt >= l.end || (l.ckpt != 0 && l.ckpt < l.segs[0].start) {
		l.ckpt = 0 // checkpoint pointer outside the retained log: ignore it
	}
	l.bufStart = l.end
	l.flushed = l.end
	return l, nil
}

// openCtl opens or creates the control file and loads the newest valid
// checkpoint slot.
func (l *Log) openCtl() error {
	ctl, err := l.fsys.OpenFile(l.path)
	if err != nil {
		return fmt.Errorf("wal: open %s: %w", l.path, err)
	}
	l.ctl = ctl
	size, err := ctl.Size()
	if err != nil {
		ctl.Close()
		return fmt.Errorf("wal: size %s: %w", l.path, err)
	}
	if size == 0 {
		if err := l.writeCtlSlot(1, 0, true); err != nil {
			ctl.Close()
			return err
		}
		l.ctlGen = 1
		return nil
	}
	b := make([]byte, ctlSlotStride+ctlSlotLen)
	if n, err := ctl.ReadAt(b, 0); err != nil && err != io.EOF {
		ctl.Close()
		return fmt.Errorf("wal: read %s: %w", l.path, err)
	} else {
		b = b[:n]
	}
	if len(b) >= 8 && binary.BigEndian.Uint64(b) == 0x494d4d57414c0a01 {
		ctl.Close()
		return fmt.Errorf("wal: %s is a v1 single-file log (unsupported)", l.path)
	}
	found := false
	for slot := 0; slot < 2; slot++ {
		off := slot * ctlSlotStride
		if off+ctlSlotLen > len(b) {
			continue
		}
		if gen, ckpt, ok := decodeCtlSlot(b[off : off+ctlSlotLen]); ok && gen > l.ctlGen {
			l.ctlGen, l.ckpt, found = gen, ckpt, true
		}
	}
	if !found {
		// Both slots unreadable (first-ever slot write torn by a crash, or
		// foreign bytes at this path). Records are still recoverable from
		// the segment scan; restart the checkpoint pointer from zero.
		if err := l.writeCtlSlot(1, 0, true); err != nil {
			ctl.Close()
			return err
		}
		l.ctlGen, l.ckpt = 1, 0
	}
	return nil
}

// writeCtlSlot writes one checkpoint slot. Slots alternate by generation so
// a torn write never destroys the last durable checkpoint pointer.
func (l *Log) writeCtlSlot(gen uint64, ckpt LSN, sync bool) error {
	off := int64((gen - 1) % 2 * ctlSlotStride)
	if _, err := l.ctl.WriteAt(encodeCtlSlot(gen, ckpt), off); err != nil {
		obs.IOError("write", vfs.ErrClass(err))
		return fmt.Errorf("wal: write checkpoint slot: %w", err)
	}
	if sync {
		if err := l.ctl.Sync(); err != nil {
			obs.IOError("sync", vfs.ErrClass(err))
			return fmt.Errorf("wal: sync checkpoint slot: %w", err)
		}
	}
	return nil
}

// openSegments loads the segment chain (loadChain) and deletes its dead
// suffix: the first segment with a bad header or a sequence/start
// discontinuity and everything after it.
func (l *Log) openSegments() error {
	segs, dead, err := loadChain(l.fsys, l.path)
	if err != nil {
		return err
	}
	l.segs = segs
	for _, name := range dead {
		if err := l.fsys.Remove(name); err != nil {
			l.closeSegs()
			return fmt.Errorf("wal: remove dead segment %s: %w", name, err)
		}
	}
	if len(l.segs) == 0 {
		return l.addSegment(1, FirstLSN, false)
	}
	return nil
}

// addSegment creates and makes durable a new empty segment file starting at
// start. With preallocate set, the file is extended to its full capacity now
// so a full disk fails the rotation — before any LSN is assigned — instead
// of a later record write.
func (l *Log) addSegment(seq uint64, start LSN, preallocate bool) error {
	path := segPath(l.path, seq)
	f, err := l.fsys.OpenFile(path)
	if err != nil {
		obs.IOError("open", vfs.ErrClass(err))
		return fmt.Errorf("wal: create segment %s: %w", path, err)
	}
	abort := func(op string, err error) error {
		obs.IOError(op, vfs.ErrClass(err))
		f.Close()
		l.fsys.Remove(path)
		return fmt.Errorf("wal: init segment %s: %w", path, err)
	}
	if _, err := f.WriteAt(encodeSegHeader(seq, start), 0); err != nil {
		return abort("write", err)
	}
	if preallocate {
		if err := f.Truncate(segHeaderLen + l.segmentSize()); err != nil {
			return abort("truncate", err)
		}
	}
	if err := f.Sync(); err != nil {
		return abort("sync", err)
	}
	l.segs = append(l.segs, &segment{seq: seq, start: start, f: f, path: path, prealloc: preallocate})
	return nil
}

func (l *Log) segmentSize() int64 {
	if l.SegmentSize > 0 {
		return l.SegmentSize
	}
	return DefaultSegmentSize
}

// scanSegments walks every retained record to find the end of log. A decode
// failure inside a sealed segment (a hole: sectors lost under data that was
// never sync-acked) or in the last segment (a torn tail) truncates the log
// there; later segments cannot contain acked records — their syncs are
// ordered after the failed range's — and are deleted.
func (l *Log) scanSegments() error {
	end, err := fileEnd(l.segs)
	if err != nil {
		return err
	}
	if l.end, err = walk(l.segs, l.segs[0].start, end, nil); err != nil {
		return err
	}
	// The segment holding the end is trimmed to it — the last one always
	// (its preallocated tail is not log), an earlier one at a hole — and any
	// later segments are dropped.
	i := segIndex(l.segs, l.end)
	seg := l.segs[i]
	if err := seg.f.Truncate(segHeaderLen + int64(l.end-seg.start)); err != nil {
		return fmt.Errorf("wal: truncate torn tail %s: %w", seg.path, err)
	}
	for _, dead := range l.segs[i+1:] {
		dead.f.Close()
		if err := l.fsys.Remove(dead.path); err != nil {
			return fmt.Errorf("wal: remove dead segment %s: %w", dead.path, err)
		}
	}
	l.segs = l.segs[:i+1]
	return nil
}

func (l *Log) closeSegs() {
	closeChain(l.segs)
	l.segs = nil
}

func (l *Log) closeFiles() {
	l.closeSegs()
	if l.ctl != nil {
		l.ctl.Close()
	}
}

// failedErrLocked wraps the sticky first failure; callers hold l.mu.
func (l *Log) failedErrLocked() error {
	return fmt.Errorf("%w (first failure: %v)", ErrFailed, l.fail)
}

// setFail ends a flush round that could not write or sync its bytes and
// latches the first such failure. Every later Append, Flush, SyncTo and
// SetCheckpoint returns ErrFailed until the log is reopened. The round's
// captured bytes are lost, so readers stop waiting for them (flushing); what
// earlier rounds wrote stays readable for undo.
func (l *Log) setFail(err error) error {
	l.mu.Lock()
	l.flushing = false
	if l.fail == nil {
		l.fail = err
	}
	l.mu.Unlock()
	return err
}

// Failed returns the sticky first write-path failure, nil while healthy.
func (l *Log) Failed() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fail
}

// segIndex returns the index of the segment containing lsn; segs must be
// non-empty and lsn >= segs[0].start.
func segIndex(segs []*segment, lsn LSN) int {
	i := len(segs) - 1
	for i > 0 && segs[i].start > lsn {
		i--
	}
	return i
}

// Append adds r to the log buffer and returns its LSN. The record is not
// durable until Flush (or FlushTo past it). When the active segment is full
// Append first rotates to a new one; a rotation failure (including a clean
// ErrNoSpace from the free-space low-water check) is returned before any
// LSN is assigned, so the failed record simply does not exist.
func (l *Log) Append(r *Record) (LSN, error) {
	// Sampled 1-in-16: an append is a sub-microsecond buffer copy, and two
	// clock reads per record would cost more than the work being measured.
	// Quantiles over a 1/16 systematic sample are statistically the same.
	if obsAppendSample.Add(1)&15 == 0 {
		defer obsAppendLat.ObserveSince(obs.Now())
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.fail != nil {
		return 0, l.failedErrLocked()
	}
	if l.ingest {
		return 0, fmt.Errorf("wal: append to a replica log copy")
	}
	// Exact-fit rotation: a record that would overflow the active segment's
	// preallocated capacity goes into a fresh one instead (unless the
	// segment is empty — a record bigger than a whole segment still gets
	// one to itself). Flushes therefore never grow a segment file, so a
	// full disk surfaces here, before the LSN exists, not mid-flush.
	recLen := int64(r.encodedLen())
	active := l.segs[len(l.segs)-1]
	if int64(l.end-active.start)+recLen > l.segmentSize() && l.end > active.start {
		if err := l.rotateLocked(active, r.Type == TypeCheckpoint); err != nil {
			return 0, err
		}
	} else if !active.prealloc {
		if err := l.preallocLocked(active); err != nil {
			return 0, err
		}
	}
	lsn := l.end
	r.LSN = lsn
	l.buf = r.encode(l.buf)
	l.end += LSN(r.encodedLen())
	l.appends++
	return lsn, nil
}

// rotateLocked opens the next segment. Before touching the disk it applies
// the low-water free-space check: if the filesystem can report free space
// and there is not room for the new segment plus LowWater headroom, the
// rotation fails with ErrNoSpace — a clean, contained refusal at
// segment-extend time rather than a torn write later.
//
// A checkpoint record is exempt (and its segment is not preallocated): the
// checkpoint is the record that moves the reclamation bound, so it is the
// engine's only way OUT of a full disk. Gating it behind free space would
// deadlock recovery — the post-recovery checkpoint could never land, so
// TruncateBefore could never free the dead segments that would have made
// room for it. The emergency segment only consumes the header plus the
// record itself; the next ordinary append preallocates it to full size,
// after checkpoint-driven truncation has (normally) freed space again.
func (l *Log) rotateLocked(active *segment, emergency bool) error {
	short := false
	need := segHeaderLen + l.segmentSize() + l.LowWater
	if fsp, ok := l.fsys.(vfs.FreeSpacer); ok {
		if free, known := fsp.FreeBytes(); known && free < need {
			if !emergency {
				obs.IOError("truncate", vfs.ClassNoSpace)
				return fmt.Errorf("wal: rotate to segment %d: free space %d below low water %d: %w",
					active.seq+1, free, need, vfs.ErrNoSpace)
			}
			short = true
		}
	}
	return l.addSegment(active.seq+1, l.end, !short)
}

// preallocLocked extends a segment that was opened without preallocation —
// the first segment of a fresh log, or the tail segment after a reopen
// trimmed it — to full capacity, so that a full disk is detected now rather
// than by a mid-flush write. No sync: the extension reads back as zeros and
// losing it in a crash just re-runs this on reopen.
func (l *Log) preallocLocked(seg *segment) error {
	want := segHeaderLen + l.segmentSize()
	size, err := seg.f.Size()
	if err != nil {
		return fmt.Errorf("wal: size %s: %w", seg.path, err)
	}
	if size < want {
		if err := seg.f.Truncate(want); err != nil {
			obs.IOError("truncate", vfs.ErrClass(err))
			return fmt.Errorf("wal: preallocate %s: %w", seg.path, err)
		}
	}
	seg.prealloc = true
	return nil
}

// writeRange writes buf, whose first byte is at logical offset start, into
// the segments that cover it, returning the segments touched in ascending
// order. segs is a snapshot taken with the buffer.
func writeRange(segs []*segment, buf []byte, start LSN) ([]*segment, error) {
	var touched []*segment
	cur := start
	i := segIndex(segs, cur)
	for len(buf) > 0 {
		seg := segs[i]
		n := len(buf)
		if i+1 < len(segs) {
			if avail := int64(segs[i+1].start - cur); int64(n) > avail {
				n = int(avail)
			}
		}
		if _, err := seg.f.WriteAt(buf[:n], segHeaderLen+int64(cur-seg.start)); err != nil {
			obs.IOError("write", vfs.ErrClass(err))
			return touched, fmt.Errorf("wal: write %s: %w", seg.path, err)
		}
		touched = append(touched, seg)
		cur += LSN(n)
		buf = buf[n:]
		i++
	}
	return touched, nil
}

// Flush writes all buffered records and makes them durable (unless NoSync).
func (l *Log) Flush() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	return l.flushRoundLocked()
}

// flushRoundLocked runs one flush round: it takes ownership of the pending
// buffer under l.mu, writes and syncs it with l.mu released, then advances
// the durable watermark. The caller holds flushMu, so concurrent flushers
// with overlapping ranges are ordered — a later round can only write bytes
// appended after the earlier round's capture, never the same file range
// twice with different content.
//
// Any write or sync failure latches the log failed (setFail): after a failed
// fsync the kernel may have dropped the dirty pages, so retrying the round
// and trusting a later clean fsync would claim durability for bytes that
// never reached the platter. The watermark therefore never advances past a
// failure, and the log refuses all further writes until reopened.
func (l *Log) flushRoundLocked() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.fail != nil {
		err := l.failedErrLocked()
		l.mu.Unlock()
		return err
	}
	buf := l.buf
	start := l.bufStart
	end := l.end
	segs := l.segs
	l.buf = nil
	l.bufStart = end
	l.flushing = len(buf) > 0
	l.mu.Unlock()

	touched, err := writeRange(segs, buf, start)
	if err != nil {
		return l.setFail(err)
	}
	nsyncs := 0
	if !l.NoSync && len(touched) > 0 {
		syncStart := obs.Now()
		// Oldest segment first: a record is only considered durable when
		// every byte before it is, so syncs must land in log order.
		for _, seg := range touched {
			if err := seg.f.Sync(); err != nil {
				obs.IOError("sync", vfs.ErrClass(err))
				return l.setFail(fmt.Errorf("wal: sync %s: %w", seg.path, err))
			}
			nsyncs++
		}
		obsFsyncLat.ObserveSince(syncStart)
	}
	l.mu.Lock()
	l.flushing = false
	l.syncs += uint64(nsyncs)
	if end > l.flushed {
		l.flushed = end
	}
	l.mu.Unlock()
	return nil
}

// settle makes every appended byte readable from the segment files: pending
// appends are flushed, and a flush round in flight on another goroutine —
// which has detached the buffer but may not have written it yet — is waited
// out (Flush queues behind it on flushMu). With nothing pending and no round
// in flight it costs one mutex round trip and no I/O.
func (l *Log) settle() error {
	l.mu.Lock()
	unwritten := len(l.buf) > 0 || l.flushing
	l.mu.Unlock()
	if !unwritten {
		return nil
	}
	return l.Flush()
}

// FlushTo ensures the record at lsn (and everything before it) is durable.
// It is the buffer pool's write-ahead check. flushed always sits on a record
// boundary, so the record at lsn is durable exactly when lsn < flushed: a
// record appended immediately after a flush starts AT the flushed offset and
// is still entirely in the buffer — lsn == flushed means not yet written.
func (l *Log) FlushTo(lsn LSN) error {
	l.mu.Lock()
	covered := lsn < l.flushed
	l.mu.Unlock()
	if covered {
		return nil
	}
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	// A round that completed while this caller waited for flushMu may already
	// have covered lsn; re-flushing would only burn an extra fsync.
	l.mu.Lock()
	covered = lsn < l.flushed
	l.mu.Unlock()
	if covered {
		return nil
	}
	return l.flushRoundLocked()
}

// SyncTo makes the record at lsn durable — the commit path's durability
// point. Concurrent callers share fsyncs (group commit): they elect a
// leader, which runs one flush round covering everything appended so far,
// while followers park; when the round ends, every caller whose record it
// covered returns on that single shared fsync, and anyone left over competes
// to lead the next round. A lone caller leads a round of its own.
//
// Before its round the leader waits CommitEvery if that is set. Otherwise,
// when the round will fsync, it yields the processor once. Committers already
// on the run queue then append before the round captures the buffer: a
// goroutine blocked in a short fsync keeps its P until the runtime retakes
// it, so on few-core boxes concurrent committers would otherwise rarely
// overlap a round. The yield also keeps a lone durable writer from starving
// the other goroutines of its process, such as a paced reader. Under NoSync
// there is no fsync to share or wait on, and the yield is skipped: it is
// not free, since it wakes an idle P even when nothing else can run.
func (l *Log) SyncTo(lsn LSN) error {
	l.gcMu.Lock()
	if l.gcCond == nil {
		l.gcCond = sync.NewCond(&l.gcMu)
	}
	waited := false
	for {
		l.mu.Lock()
		covered := lsn < l.flushed
		closed := l.closed
		failed := l.fail != nil
		var failErr error
		if failed {
			failErr = l.failedErrLocked()
		}
		l.mu.Unlock()
		if closed {
			l.gcMu.Unlock()
			return ErrClosed
		}
		if failed {
			// A follower must never treat a round that failed — even one led
			// by someone else — as durability for its own record.
			l.gcMu.Unlock()
			return failErr
		}
		if covered {
			if waited {
				l.grouped++
			}
			l.gcMu.Unlock()
			return nil
		}
		if !l.gcLeader {
			l.gcLeader = true
			l.gcMu.Unlock()
			if l.CommitEvery > 0 {
				l.Clock.Sleep(context.Background(), l.CommitEvery)
			} else if !l.NoSync {
				runtime.Gosched()
			}
			err := func() error {
				l.flushMu.Lock()
				defer l.flushMu.Unlock()
				return l.flushRoundLocked()
			}()
			l.gcMu.Lock()
			l.gcLeader = false
			l.gcRound++
			batch := 1 + l.gcJoiners
			l.gcJoiners = 0
			l.gcCond.Broadcast()
			l.gcMu.Unlock()
			obsGroupBatch.Observe(float64(batch))
			return err
		}
		// Follow: wait out the in-flight round, then re-check. If the round
		// failed or started before our append, the loop elects us leader and
		// we get the flush error (or success) firsthand.
		l.gcJoiners++
		round := l.gcRound
		for l.gcRound == round {
			l.gcCond.Wait()
		}
		waited = true
	}
}

// GroupedSyncs returns how many SyncTo calls were satisfied by an fsync
// another caller issued — the group-commit batching win.
func (l *Log) GroupedSyncs() uint64 {
	l.gcMu.Lock()
	defer l.gcMu.Unlock()
	return l.grouped
}

// FlushedLSN returns the durable prefix end.
func (l *Log) FlushedLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushed
}

// End returns the LSN one past the last appended record — the "end of log"
// the VTT snapshots when a transaction's timestamping completes (Section
// 2.2, garbage collection).
func (l *Log) End() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.end
}

// Checkpoint returns the LSN of the last checkpoint record, 0 if none.
func (l *Log) Checkpoint() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ckpt
}

// SetCheckpoint durably records lsn as the checkpoint pointer in the control
// file. The checkpoint record itself must already be flushed.
func (l *Log) SetCheckpoint(lsn LSN) error {
	if err := l.FlushTo(lsn); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.fail != nil {
		return l.failedErrLocked()
	}
	if err := l.writeCtlSlot(l.ctlGen+1, lsn, !l.NoSync); err != nil {
		return err
	}
	if !l.NoSync {
		l.syncs++
	}
	l.ctlGen++
	l.ckpt = lsn
	return nil
}

// TruncateBefore deletes segments every record of which lies below bound —
// checkpoint-driven log reclamation, and the engine's escape hatch from a
// full disk. The caller guarantees bound is at or below the recovery scan
// floor (RedoScanStart and the oldest undo chain of any live transaction);
// as defense in depth the bound is additionally clamped to the checkpoint
// pointer. The active segment is never deleted.
func (l *Log) TruncateBefore(bound LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.ckpt != 0 && bound > l.ckpt {
		bound = l.ckpt
	}
	for len(l.segs) >= 2 && l.segs[1].start <= bound {
		seg := l.segs[0]
		if err := l.fsys.Remove(seg.path); err != nil {
			obs.IOError("remove", vfs.ErrClass(err))
			return fmt.Errorf("wal: remove %s: %w", seg.path, err)
		}
		seg.f.Close()
		l.segs = l.segs[1:]
	}
	return nil
}

// SegmentCount returns the number of live segment files.
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// FirstRetained returns the LSN of the oldest record still on disk (records
// below it were reclaimed by TruncateBefore).
func (l *Log) FirstRetained() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segs) == 0 {
		return FirstLSN
	}
	return l.segs[0].start
}

// ReadAt reads the single record at lsn. Pending appends are flushed first
// so undo can read what it just wrote.
func (l *Log) ReadAt(lsn LSN) (*Record, error) {
	if err := l.settle(); err != nil {
		return nil, err
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	end := l.end
	first := l.segs[0].start
	var seg *segment
	if lsn >= first && lsn < end {
		seg = l.segs[segIndex(l.segs, lsn)]
	}
	l.mu.Unlock()
	if lsn < FirstLSN || lsn >= end {
		return nil, fmt.Errorf("wal: LSN %d out of range [%d,%d)", lsn, FirstLSN, end)
	}
	if seg == nil {
		return nil, fmt.Errorf("wal: LSN %d below first retained record %d", lsn, first)
	}
	phys := segHeaderLen + int64(lsn-seg.start)
	var hdr [4]byte
	if _, err := seg.f.ReadAt(hdr[:], phys); err != nil {
		obs.IOError("read", vfs.ErrClass(err))
		return nil, fmt.Errorf("wal: read at %d: %w", lsn, err)
	}
	total := binary.BigEndian.Uint32(hdr[:])
	if total < recHeaderLen || total > MaxRecordLen {
		return nil, fmt.Errorf("%w: at %d", ErrCorruptRecord, lsn)
	}
	buf := make([]byte, total)
	if _, err := seg.f.ReadAt(buf, phys); err != nil {
		obs.IOError("read", vfs.ErrClass(err))
		return nil, fmt.Errorf("wal: read at %d: %w", lsn, err)
	}
	r, _, err := decodeRecord(buf)
	if err != nil {
		return nil, err
	}
	r.LSN = lsn
	return r, nil
}

// Scan calls fn for every record from lsn (inclusive) to the end of the log,
// in order. Pending appends are flushed first; a from below the first
// retained record is clamped to it. fn returning an error stops the scan and
// returns that error.
func (l *Log) Scan(from LSN, fn func(*Record) error) error {
	if err := l.settle(); err != nil {
		return err
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	end := l.end
	segs := l.segs
	l.mu.Unlock()
	stop, err := walk(segs, from, end, fn)
	if err == nil && stop < end {
		err = fmt.Errorf("wal: scan at %d: %w", stop, ErrCorruptRecord)
	}
	return err
}

// Stats returns append and fsync counters.
func (l *Log) Stats() (appends, syncs uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends, l.syncs
}

// Size returns the logical log size in bytes — everything ever appended,
// pending appends included, truncated segments still counted (LSNs are
// cumulative offsets).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(l.end)
}

// CloseNoFlush closes the log files abruptly, discarding buffered appends —
// it simulates a process crash for recovery testing. Records already flushed
// (every committed transaction's) remain on disk.
func (l *Log) CloseNoFlush() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	var err error
	for _, seg := range l.segs {
		if cerr := seg.f.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := l.ctl.Close(); err == nil {
		err = cerr
	}
	l.mu.Unlock()
	l.gcMu.Lock()
	if l.gcCond != nil {
		l.gcRound++
		l.gcCond.Broadcast()
	}
	l.gcMu.Unlock()
	return err
}

// Close flushes and closes the log. A log in the failed state skips the
// flush — its buffered records can no longer be made trustworthy — and just
// releases the files.
func (l *Log) Close() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	var err error
	if l.fail == nil && len(l.buf) > 0 {
		touched, werr := writeRange(l.segs, l.buf, l.bufStart)
		if werr != nil {
			err = werr
		} else {
			l.bufStart += LSN(len(l.buf))
			l.buf = nil
			if !l.NoSync {
				for _, seg := range touched {
					if serr := seg.f.Sync(); serr != nil {
						err = fmt.Errorf("wal: sync %s: %w", seg.path, serr)
						break
					}
					l.syncs++
				}
			}
			if err == nil {
				l.flushed = l.bufStart
			}
		}
	}
	for _, seg := range l.segs {
		if cerr := seg.f.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := l.ctl.Close(); err == nil {
		err = cerr
	}
	l.closed = true
	l.mu.Unlock()
	// Wake any group-commit followers so they observe closed and return.
	l.gcMu.Lock()
	if l.gcCond != nil {
		l.gcRound++
		l.gcCond.Broadcast()
	}
	l.gcMu.Unlock()
	return err
}
