package wal

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"immortaldb/internal/itime"
	"immortaldb/internal/storage/vfs"
)

// fillRecord is a ~60-byte record for driving rotation with few appends.
func fillRecord(tid uint64) *Record {
	return &Record{Type: TypeInsertVersion, TID: itime.TID(tid), Table: 1, Page: 3,
		Key: []byte("key"), Value: []byte("value-payload-for-rotation-tests")}
}

func TestSegmentRotationAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.SegmentSize = 256
	var lsns []LSN
	for i := 0; i < 40; i++ {
		lsn, err := l.Append(fillRecord(uint64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := l.SegmentCount(); n < 3 {
		t.Fatalf("segments = %d, want several with 256-byte capacity", n)
	}
	// Every record must be readable across segment boundaries.
	for i, lsn := range lsns {
		r, err := l.ReadAt(lsn)
		if err != nil {
			t.Fatalf("ReadAt(%d): %v", lsn, err)
		}
		if r.TID != itime.TID(i+1) {
			t.Fatalf("ReadAt(%d).TID = %d, want %d", lsn, r.TID, i+1)
		}
	}
	end := l.End()
	segs := l.SegmentCount()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.End() != end {
		t.Fatalf("end after reopen = %d, want %d", l2.End(), end)
	}
	if l2.SegmentCount() != segs {
		t.Fatalf("segments after reopen = %d, want %d", l2.SegmentCount(), segs)
	}
	var got []LSN
	if err := l2.Scan(0, func(r *Record) error { got = append(got, r.LSN); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(lsns) {
		t.Fatalf("scanned %d records, want %d", len(got), len(lsns))
	}
	for i := range got {
		if got[i] != lsns[i] {
			t.Fatalf("scan LSN[%d] = %d, want %d", i, got[i], lsns[i])
		}
	}
}

func TestTornTailInSealedSegmentDropsLaterSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.SegmentSize = 256
	for i := 0; i < 40; i++ {
		l.Append(fillRecord(uint64(i + 1)))
	}
	l.Flush()
	if l.SegmentCount() < 3 {
		t.Fatalf("segments = %d, want several", l.SegmentCount())
	}
	l.Close()

	// Tear a hole in segment 2: everything from the hole on must go, later
	// segments included (their records were never ack-able before segment
	// 2's sync).
	seg2 := segPath(path, 2)
	st, err := os.Stat(seg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg2, st.Size()-7); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if n := l2.SegmentCount(); n != 2 {
		t.Fatalf("segments after hole = %d, want 2", n)
	}
	if _, err := os.Stat(segPath(path, 3)); !os.IsNotExist(err) {
		t.Fatalf("segment 3 should have been removed, stat err = %v", err)
	}
	// The survivors must still scan cleanly and the log must accept appends.
	n := 0
	if err := l2.Scan(0, func(*Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no records survived")
	}
	if _, err := l2.Append(fillRecord(99)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestRetainedReadersCrossRotations pins the extent rule for the read-only
// readers: a sealed segment is preallocated to full capacity, so its records
// end at the next segment's start, and its zero tail is not a torn tail.
// ScanRetained must see every record Scan sees, and CopyRetained must copy
// all of them.
func TestRetainedReadersCrossRotations(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SegmentSize = 256
	for i := 0; i < 40; i++ {
		if _, err := l.Append(fillRecord(uint64(i + 1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := l.SegmentCount(); n < 3 {
		t.Fatalf("segments = %d, want several", n)
	}
	lsns := func(scan func(fn func(*Record) error) error) []LSN {
		t.Helper()
		var got []LSN
		if err := scan(func(r *Record) error { got = append(got, r.LSN); return nil }); err != nil {
			t.Fatal(err)
		}
		return got
	}
	want := lsns(func(fn func(*Record) error) error { return l.Scan(0, fn) })
	got := lsns(func(fn func(*Record) error) error { return ScanRetained(vfs.OS(), path, fn) })
	if len(want) != 40 || !slices.Equal(got, want) {
		t.Fatalf("ScanRetained LSNs %v, Scan %v", got, want)
	}
	if start, err := RetainedStart(vfs.OS(), path); err != nil || start != FirstLSN {
		t.Fatalf("RetainedStart = %d, %v; want %d", start, err, FirstLSN)
	}
	dst, err := Open(filepath.Join(dir, "copy.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := CopyRetained(vfs.OS(), path, l.End(), dst); err != nil {
		t.Fatal(err)
	}
	if copied := lsns(func(fn func(*Record) error) error { return dst.Scan(0, fn) }); !slices.Equal(copied, want) {
		t.Fatalf("copied LSNs %v, want %v", copied, want)
	}
}

// readCountFS counts the bytes read from WAL segment files.
type readCountFS struct {
	vfs.FS
	segBytes atomic.Int64
}

type readCountFile struct {
	vfs.File
	n *atomic.Int64 // nil for files that are not segments
}

func (fs *readCountFS) OpenFile(name string) (vfs.File, error) {
	f, err := fs.FS.OpenFile(name)
	rf := readCountFile{File: f}
	if strings.Contains(name, "wal.log.") {
		rf.n = &fs.segBytes
	}
	return rf, err
}

func (f readCountFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	if f.n != nil {
		f.n.Add(int64(n))
	}
	return n, err
}

// TestReopenReadsRecordsNotPreallocatedTail: the active segment is
// preallocated to the full default segment size on its first append, and
// Close leaves it so. Reopening must read the few records in it, not the
// megabytes of zeros behind them.
func TestReopenReadsRecordsNotPreallocatedTail(t *testing.T) {
	fs := &readCountFS{FS: vfs.NewSim(1)}
	l, err := OpenFS(fs, "db/wal.log")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := l.Append(fillRecord(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := fs.OpenFile(segPath("db/wal.log", 1))
	if err != nil {
		t.Fatal(err)
	}
	if size, _ := seg.Size(); size < DefaultSegmentSize {
		t.Fatalf("segment is %d bytes: want it preallocated to %d, or the test shows nothing", size, DefaultSegmentSize)
	}
	seg.Close()

	fs.segBytes.Store(0)
	l, err = OpenFS(fs, "db/wal.log")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := fs.segBytes.Load(); got >= 1<<20 {
		t.Fatalf("reopen read %d bytes of segment data for 5 records, want < 1 MiB", got)
	}
	n := 0
	if err := l.Scan(FirstLSN, func(*Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("reopened log holds %d records, want 5", n)
	}
}

func TestTruncateBeforeReclaimsSegments(t *testing.T) {
	fs := vfs.NewSim(1)
	l, err := OpenFS(fs, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SegmentSize = 256
	for i := 0; i < 40; i++ {
		l.Append(fillRecord(uint64(i + 1)))
	}
	l.Flush()
	before := l.SegmentCount()
	if before < 3 {
		t.Fatalf("segments = %d, want several", before)
	}
	// A checkpoint near the end lets everything below it go.
	ckptLSN, _ := l.Append(&Record{Type: TypeCheckpoint, Blob: []byte("ck")})
	if err := l.SetCheckpoint(ckptLSN); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateBefore(ckptLSN); err != nil {
		t.Fatal(err)
	}
	after := l.SegmentCount()
	if after >= before {
		t.Fatalf("segments %d -> %d, want fewer", before, after)
	}
	first := l.FirstRetained()
	if first <= FirstLSN {
		t.Fatalf("first retained = %d, want > %d", first, FirstLSN)
	}
	// The files are really gone.
	names, err := fs.List("wal.log.")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != after {
		t.Fatalf("files on disk = %d, segments = %d", len(names), after)
	}
	// Reads below the boundary fail loudly; scans clamp to it.
	if _, err := l.ReadAt(FirstLSN); err == nil {
		t.Fatal("ReadAt below first retained should fail")
	}
	n := 0
	if err := l.Scan(0, func(*Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("scan after truncation returned nothing")
	}
	// The checkpoint segment itself must survive.
	if _, err := l.ReadAt(ckptLSN); err != nil {
		t.Fatalf("checkpoint record lost: %v", err)
	}

	// And the truncated log must reopen cleanly.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenFS(fs, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.FirstRetained() != first {
		t.Fatalf("first retained after reopen = %d, want %d", l2.FirstRetained(), first)
	}
	if l2.Checkpoint() != ckptLSN {
		t.Fatalf("checkpoint after reopen = %d, want %d", l2.Checkpoint(), ckptLSN)
	}
}

func TestRotationENOSPCFailsCleanly(t *testing.T) {
	fs := vfs.NewSim(1)
	fs.SetCapacity(2048)
	l, err := OpenFS(fs, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SegmentSize = 512
	var lastErr error
	appended := 0
	for i := 0; i < 200; i++ {
		if _, err := l.Append(fillRecord(uint64(i + 1))); err != nil {
			lastErr = err
			break
		}
		appended++
	}
	if lastErr == nil {
		t.Fatal("append never hit the capacity limit")
	}
	if !vfs.IsNoSpace(lastErr) {
		t.Fatalf("rotation failure class = %q (%v), want enospc", vfs.ErrClass(lastErr), lastErr)
	}
	// A clean refusal: nothing was assigned an LSN, the log is not failed,
	// and everything appended before the wall is still flushable.
	if ferr := l.Failed(); ferr != nil {
		t.Fatalf("clean ENOSPC rotation latched the log failed: %v", ferr)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := l.Scan(0, func(*Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != appended {
		t.Fatalf("scan found %d records, want %d", n, appended)
	}
}

func TestSyncFailureLatchesLogFailed(t *testing.T) {
	fs := vfs.NewSim(1)
	l, err := OpenFS(fs, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	durable, err := l.Append(fillRecord(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	flushed := l.FlushedLSN()
	if _, err := l.Append(fillRecord(1)); err != nil {
		t.Fatal(err)
	}
	fs.InjectFault(vfs.Fault{Op: vfs.OpSync, File: "wal.log.", Count: 1})
	if err := l.Flush(); err == nil {
		t.Fatal("flush with failing fsync should error")
	}
	// The fault has cleared (Count: 1) but the log must stay failed: the
	// dropped dirty pages mean a later clean fsync proves nothing.
	if _, err := l.Append(fillRecord(2)); !errors.Is(err, ErrFailed) {
		t.Fatalf("append after failed fsync = %v, want ErrFailed", err)
	}
	if err := l.Flush(); !errors.Is(err, ErrFailed) {
		t.Fatalf("flush after failed fsync = %v, want ErrFailed", err)
	}
	if err := l.SyncTo(flushed); !errors.Is(err, ErrFailed) {
		t.Fatalf("SyncTo after failed fsync = %v, want ErrFailed", err)
	}
	if got := l.FlushedLSN(); got != flushed {
		t.Fatalf("flushed advanced from %d to %d past a failed fsync", flushed, got)
	}
	// Undo on a failed log still reads what earlier rounds made durable.
	if _, err := l.ReadAt(durable); err != nil {
		t.Fatalf("ReadAt of a durable record on a failed log: %v", err)
	}
	stop := errors.New("stop")
	if err := l.Scan(durable, func(*Record) error { return stop }); err != stop {
		t.Fatalf("Scan from a durable record on a failed log: %v", err)
	}
}

func TestCtlSlotFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	lsn, _ := l.Append(&Record{Type: TypeCheckpoint, Blob: []byte("ck")})
	if err := l.SetCheckpoint(lsn); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Tear the slot that write landed in (gen 2 -> slot 1): the reopen must
	// fall back to the gen-1 slot rather than trusting garbage.
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF, 0xFF, 0xFF, 0xFF}, ctlSlotStride+8); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Checkpoint(); got != 0 {
		t.Fatalf("checkpoint after torn slot = %d, want 0 (gen-1 fallback)", got)
	}
	// The records themselves are intact.
	if _, err := l2.ReadAt(lsn); err != nil {
		t.Fatalf("record lost with torn ctl slot: %v", err)
	}
}

func TestTornSegmentHeaderDroppedOnReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.SegmentSize = 256
	for i := 0; i < 12; i++ {
		l.Append(fillRecord(uint64(i + 1)))
	}
	l.Flush()
	segs := l.SegmentCount()
	if segs < 2 {
		t.Fatalf("segments = %d, want >= 2", segs)
	}
	end := l.End()
	l.Close()

	// A crash during rotation leaves a segment whose header never became
	// durable. Fake one past the end: reopen must delete it and keep the
	// valid prefix.
	junk := segPath(path, uint64(segs+1))
	if err := os.WriteFile(junk, []byte("not a segment header at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := os.Stat(junk); !os.IsNotExist(err) {
		t.Fatalf("torn-header segment not removed, stat err = %v", err)
	}
	if l2.End() != end {
		t.Fatalf("end = %d, want %d", l2.End(), end)
	}
}

func TestSegHeaderRoundTrip(t *testing.T) {
	b := encodeSegHeader(7, 12345)
	seq, start, err := decodeSegHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 || start != 12345 {
		t.Fatalf("round trip = (%d, %d)", seq, start)
	}
	b[9] ^= 0x40
	if _, _, err := decodeSegHeader(b); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("corrupt header err = %v, want ErrBadSegment", err)
	}
	if _, _, err := decodeSegHeader(b[:10]); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("short header err = %v, want ErrBadSegment", err)
	}
}

func TestParseSegPath(t *testing.T) {
	base := "dir/wal.log"
	for seq, want := range map[string]uint64{
		segPath(base, 1):        1,
		segPath(base, 12345678): 12345678,
		base + ".0000001":       0, // 7 digits
		base + ".000000001":     0, // 9 digits
		base + ".0000000x":      0,
		base + ".00000000":      0, // seq zero is invalid
		base + "00000001":       0, // missing dot
		"other.00000001":        0,
	} {
		got, ok := parseSegPath(base, seq)
		if want == 0 && ok {
			t.Fatalf("parseSegPath(%q) accepted (seq %d)", seq, got)
		}
		if want != 0 && (!ok || got != want) {
			t.Fatalf("parseSegPath(%q) = (%d, %v), want %d", seq, got, ok, want)
		}
	}
	if p := segPath(base, 42); p != base+".00000042" {
		t.Fatalf("segPath = %q", p)
	}
}
