package wal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"immortaldb/internal/itime"
	"immortaldb/internal/storage/vfs"
)

func openDurable(t *testing.T) *Log {
	t.Helper()
	l, err := Open(t.TempDir() + "/wal.log")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func commitRec(tid itime.TID) *Record {
	return &Record{Type: TypeCommit, TID: tid, TS: itime.Timestamp{Wall: int64(tid), Seq: 1}}
}

// TestSyncToSerial checks that SyncTo, called by one committer at a time,
// makes each record durable on an fsync of its own. Group commit is always
// on; the subtest name records that mode.
func TestSyncToSerial(t *testing.T) {
	t.Run("group=true", func(t *testing.T) {
		l := openDurable(t)
		for i := 1; i <= 5; i++ {
			lsn, err := l.Append(commitRec(itime.TID(i)))
			if err != nil {
				t.Fatal(err)
			}
			if err := l.SyncTo(lsn); err != nil {
				t.Fatal(err)
			}
			if got := l.FlushedLSN(); got <= lsn {
				t.Fatalf("after SyncTo(%d): flushed=%d, record not durable", lsn, got)
			}
		}
		if _, syncs := l.Stats(); syncs != 5 {
			t.Fatalf("serial SyncTo calls: want 5 fsyncs, got %d", syncs)
		}
	})
}

// TestGroupCommitShared drives many concurrent committers through SyncTo and
// checks every record became durable while some fsyncs were shared — the
// leader/follower batching. Whether two committers actually overlap inside a
// sync round is up to the scheduler (on a single-core box 400 goroutine
// commits can serialize perfectly), so the workload repeats, switching to a
// non-zero CommitEvery — the leader then waits out a window in which
// followers must pile up — if opportunistic rounds batch nothing; the
// durability checks hold on every round regardless.
func TestGroupCommitShared(t *testing.T) {
	l := openDurable(t)
	const committers, commits, rounds = 8, 50, 5
	next := itime.TID(0)
	total := 0
	for round := 0; round < rounds; round++ {
		if round == 2 {
			// Two opportunistic rounds batched nothing: force overlap.
			l.CommitEvery = 500 * time.Microsecond
		}
		var wg sync.WaitGroup
		errs := make(chan error, committers)
		for g := 0; g < committers; g++ {
			wg.Add(1)
			base := next + itime.TID(g*commits)
			go func(base itime.TID) {
				defer wg.Done()
				for i := 0; i < commits; i++ {
					lsn, err := l.Append(commitRec(base + itime.TID(i) + 1))
					if err != nil {
						errs <- err
						return
					}
					if err := l.SyncTo(lsn); err != nil {
						errs <- err
						return
					}
					if got := l.FlushedLSN(); got <= lsn {
						errs <- fmt.Errorf("SyncTo(%d) returned with flushed=%d", lsn, got)
						return
					}
				}
			}(base)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		next += itime.TID(committers * commits)
		total += committers * commits
		appends, syncs := l.Stats()
		if int(appends) != total {
			t.Fatalf("appends = %d, want %d", appends, total)
		}
		if l.GroupedSyncs() > 0 {
			t.Logf("%d commits, %d fsyncs, %d piggybacked", appends, syncs, l.GroupedSyncs())
			break
		}
		if round == rounds-1 {
			t.Errorf("group commit batched nothing: %d fsyncs for %d commits", syncs, appends)
		}
	}

	// Everything must actually be on disk in append order.
	var n int
	if err := l.Scan(FirstLSN, func(r *Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != total {
		t.Fatalf("scan found %d records, want %d", n, total)
	}
}

// TestGroupCommitMaxDelay checks the CommitEvery knob: a lone committer still
// completes (the delay bounds added latency, it is not a required quorum).
func TestGroupCommitMaxDelay(t *testing.T) {
	l := openDurable(t)
	l.CommitEvery = 2 * time.Millisecond
	lsn, err := l.Append(commitRec(1))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := l.SyncTo(lsn); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < l.CommitEvery {
		t.Fatalf("leader flushed after %v, before the %v max-delay window", el, l.CommitEvery)
	}
	if got := l.FlushedLSN(); got <= lsn {
		t.Fatalf("record not durable after SyncTo: flushed=%d", got)
	}
}

// TestDoubleFlushOverlap is the regression test for the buffer-handoff race
// the dispatcher exposes: two flushers targeting overlapping LSN ranges must
// be idempotent (no range is written twice with different bytes, no record is
// lost) and ordered (flushed never moves past bytes not yet written). It
// hammers concurrent Append+FlushTo/Flush pairs and then verifies the log
// scans back exactly the records appended.
func TestDoubleFlushOverlap(t *testing.T) {
	l := openDurable(t)
	const flushers, rounds = 6, 80
	var wg sync.WaitGroup
	var total atomic.Uint64
	errs := make(chan error, flushers)
	for g := 0; g < flushers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				lsn, err := l.Append(commitRec(itime.TID(g*rounds + i + 1)))
				if err != nil {
					errs <- err
					return
				}
				total.Add(1)
				// Alternate full flushes and targeted ones so rounds overlap:
				// several goroutines ask for ranges covering each other.
				if i%2 == 0 {
					err = l.Flush()
				} else {
					err = l.FlushTo(lsn)
				}
				if err != nil {
					errs <- err
					return
				}
				if got := l.FlushedLSN(); got <= lsn {
					errs <- fmt.Errorf("flush returned with lsn %d not durable (flushed=%d)", lsn, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	seen := make(map[itime.TID]bool)
	if err := l.Scan(FirstLSN, func(r *Record) error {
		if r.Type != TypeCommit {
			return fmt.Errorf("unexpected record type %d at %d", r.Type, r.LSN)
		}
		if seen[r.TID] {
			return fmt.Errorf("record for TID %d appears twice", r.TID)
		}
		seen[r.TID] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if uint64(len(seen)) != total.Load() {
		t.Fatalf("scan found %d records, appended %d", len(seen), total.Load())
	}
}

// TestFlushToSkipsRedundantSync checks that a FlushTo whose range was covered
// by a concurrent round does not issue its own fsync (the idempotence half of
// the double-flush audit, observable through the sync counter).
func TestFlushToSkipsRedundantSync(t *testing.T) {
	l := openDurable(t)
	lsn, err := l.Append(commitRec(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	_, before := l.Stats()
	for i := 0; i < 3; i++ {
		if err := l.FlushTo(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if _, after := l.Stats(); after != before {
		t.Fatalf("covered FlushTo issued %d extra fsyncs", after-before)
	}
}

// gatedFS blocks segment writes while armed, holding a flush round between
// its capture of the buffer and the bytes reaching the file.
type gatedFS struct {
	vfs.FS
	armed   atomic.Bool
	entered chan struct{} // a write reached the gate
	release chan struct{} // closed to let it through
}

type gatedFile struct {
	vfs.File
	fs *gatedFS
}

func (fs *gatedFS) OpenFile(name string) (vfs.File, error) {
	f, err := fs.FS.OpenFile(name)
	return gatedFile{f, fs}, err
}

func (f gatedFile) WriteAt(p []byte, off int64) (int, error) {
	if f.fs.armed.CompareAndSwap(true, false) {
		close(f.fs.entered)
		<-f.fs.release
	}
	return f.File.WriteAt(p, off)
}

// TestReadersWaitOutInFlightFlushRound: a flush round detaches the buffer
// under l.mu and writes it outside; a rollback's ReadAt (or a Scan) arriving
// in between must wait for the round, not read the segment's preallocated
// zeros as a corrupt record.
func TestReadersWaitOutInFlightFlushRound(t *testing.T) {
	for _, read := range []struct {
		name string
		fn   func(l *Log, lsn LSN) (itime.TID, error)
	}{
		{"ReadAt", func(l *Log, lsn LSN) (itime.TID, error) {
			r, err := l.ReadAt(lsn)
			if err != nil {
				return 0, err
			}
			return r.TID, nil
		}},
		{"Scan", func(l *Log, lsn LSN) (tid itime.TID, err error) {
			err = l.Scan(lsn, func(r *Record) error { tid = r.TID; return nil })
			return tid, err
		}},
	} {
		t.Run(read.name, func(t *testing.T) {
			fs := &gatedFS{FS: vfs.NewSim(1), entered: make(chan struct{}), release: make(chan struct{})}
			l, err := OpenFS(fs, "wal.log")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			lsn, err := l.Append(commitRec(7))
			if err != nil {
				t.Fatal(err)
			}
			fs.armed.Store(true)
			flushed := make(chan error, 1)
			go func() { flushed <- l.Flush() }()
			<-fs.entered // the round owns the bytes; the file still reads zeros

			type result struct {
				tid itime.TID
				err error
			}
			done := make(chan result, 1)
			go func() {
				tid, err := read.fn(l, lsn)
				done <- result{tid, err}
			}()
			select {
			case res := <-done:
				close(fs.release) // or the deferred Close queues behind the round forever
				t.Fatalf("read returned (tid %d, err %v) while the flush round still held the bytes", res.tid, res.err)
			case <-time.After(20 * time.Millisecond):
			}
			close(fs.release)
			if err := <-flushed; err != nil {
				t.Fatal(err)
			}
			if res := <-done; res.err != nil || res.tid != 7 {
				t.Fatalf("read after the round = (tid %d, err %v), want tid 7", res.tid, res.err)
			}
		})
	}
}
