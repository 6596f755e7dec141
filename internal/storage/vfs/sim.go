package vfs

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
)

// SectorSize is the atomic persistence unit of the simulated disk. A write
// that has not been Synced persists across a crash sector by sector: each
// 512-byte sector independently either reaches the platter or is lost, which
// is exactly how an 8 KB page write tears on real hardware.
const SectorSize = 512

// Errors returned by the simulated disk.
var (
	// ErrCrashed reports that the simulated machine has crashed: the
	// operation — and every operation after it until Reboot — does nothing.
	ErrCrashed = errors.New("vfs: simulated crash")
	// ErrInjectedSync is returned by a Sync chosen for transient failure
	// injection; durability does NOT advance.
	ErrInjectedSync = errors.New("vfs: injected sync failure")
	// ErrInjectedIO is the EIO-class error of a sustained fault: the
	// operation fails and does nothing.
	ErrInjectedIO = errors.New("vfs: injected I/O error")
	// ErrNoSpace is the ENOSPC-class error: a write or truncate that would
	// grow a file fails atomically, either injected or because the simulated
	// disk's capacity is exhausted.
	ErrNoSpace = errors.New("vfs: no space left on device")
)

// Fault operation kinds for sustained fault injection.
const (
	OpRead     = "read"
	OpWrite    = "write"
	OpSync     = "sync"
	OpTruncate = "truncate"
	OpRemove   = "remove"
	OpAny      = "any"
)

// Fault is one sustained fault: starting at the StartOp-th I/O operation
// (counting reads, writes, syncs, truncates and removes across all files),
// every matching operation fails with Err until Count failures have been
// delivered (Count < 0: the fault never clears). Unlike SetCrashAt, a fault
// does not stop the machine — the engine keeps running against a disk that
// keeps erroring, which is what the degradation policy must contain.
type Fault struct {
	// Op selects the operation kind ("read", "write", "sync", "truncate",
	// "remove", or "any").
	Op string
	// File, when non-empty, restricts the fault to files whose name contains
	// it as a substring.
	File string
	// Err is the error delivered; nil defaults to ErrInjectedIO.
	Err error
	// StartOp is the 1-based global I/O operation index at which the fault
	// becomes active (0: immediately).
	StartOp int64
	// Count is how many matching operations fail before the fault clears
	// (transient-then-clearing); negative means it never clears (permanent).
	Count int64
	// DropDirty models the "fsyncgate" kernel behaviour on a failed Sync:
	// the dirty pages are silently dropped and marked clean, so a LATER Sync
	// succeeds without ever persisting them. Reads still see the data (it is
	// in the page cache); a crash loses it.
	DropDirty bool
}

func (f *Fault) matches(op, file string) bool {
	if f.Count == 0 {
		return false // exhausted
	}
	if f.Op != OpAny && f.Op != op {
		return false
	}
	if f.File != "" && !strings.Contains(file, f.File) {
		return false
	}
	return true
}

// Op is one recorded mutation on the simulated disk.
type Op struct {
	Index int64 // 1-based global mutation index
	File  string
	Kind  string // "write" | "sync" | "truncate"
	Off   int64  // write offset / truncate size
	Len   int64  // write length
}

func (o Op) String() string {
	switch o.Kind {
	case "write":
		return fmt.Sprintf("#%d %s write [%d,+%d)", o.Index, o.File, o.Off, o.Len)
	case "truncate":
		return fmt.Sprintf("#%d %s truncate to %d", o.Index, o.File, o.Off)
	default:
		return fmt.Sprintf("#%d %s %s", o.Index, o.File, o.Kind)
	}
}

// SimFS is an in-memory simulated disk with deterministic fault injection.
// Every mutation (WriteAt, Sync, Truncate) across all its files is numbered;
// SetCrashAt arms a crash at a chosen mutation index. After the crash, all
// I/O fails with ErrCrashed until Reboot, which resolves unsynced writes the
// way a power loss does: each dirty sector independently persists or is
// lost, chosen by a rand.Rand seeded from (seed, crash index) so a failure
// replays exactly from those two numbers.
type SimFS struct {
	mu      sync.Mutex
	seed    int64
	files   map[string]*simFile
	ops     int64 // mutations executed so far
	crashAt int64 // 1-based index of the mutation that crashes; 0 = never
	crashed bool
	syncErr map[int64]bool // sync ops that fail transiently (no crash)

	// Sustained fault state. ioOps counts EVERY operation (reads included),
	// separately from the mutation counter that numbers crash points, so
	// arming a fault never shifts the crash matrix's coordinates.
	ioOps    int64
	faults   []*Fault
	capacity int64 // total bytes the disk can hold; 0 = unlimited

	trace    []Op // ring buffer of recent mutations
	traceCap int
	traceLen int
}

// NewSim returns an empty simulated disk. seed drives every random choice
// the FS ever makes (there are none until a crash is resolved).
func NewSim(seed int64) *SimFS {
	return &SimFS{
		seed:     seed,
		files:    make(map[string]*simFile),
		syncErr:  make(map[int64]bool),
		traceCap: 64,
	}
}

// Seed returns the seed the FS was created with.
func (fs *SimFS) Seed() int64 { return fs.seed }

// SetCrashAt arms a crash at the n-th mutation (1-based). Zero disarms.
func (fs *SimFS) SetCrashAt(n int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.crashAt = n
}

// InjectSyncError makes the n-th mutation, if it is a Sync, fail with
// ErrInjectedSync without crashing the disk or advancing durability.
func (fs *SimFS) InjectSyncError(n int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.syncErr[n] = true
}

// InjectFault arms one sustained fault. Multiple faults may be armed; the
// first match (in injection order) delivers its error.
func (fs *SimFS) InjectFault(f Fault) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	cp := f
	if cp.Err == nil {
		cp.Err = ErrInjectedIO
	}
	fs.faults = append(fs.faults, &cp)
}

// ClearFaults disarms all sustained faults (the fault "clears": an operator
// replaced the disk, the full volume was expanded). Crash arming and
// capacity are untouched.
func (fs *SimFS) ClearFaults() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.faults = nil
}

// SetCapacity bounds the disk's total size in bytes: any write or truncate
// that would grow the files past it fails with ErrNoSpace, atomically.
// Removing files (or truncating down) frees space. Zero removes the bound.
func (fs *SimFS) SetCapacity(bytes int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.capacity = bytes
}

// FreeBytes implements FreeSpacer against the capacity model.
func (fs *SimFS) FreeBytes() (int64, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.capacity == 0 {
		return 0, false
	}
	free := fs.capacity - fs.usedLocked()
	if free < 0 {
		free = 0
	}
	return free, true
}

// usedLocked sums the volatile size of every file. Caller holds fs.mu.
func (fs *SimFS) usedLocked() int64 {
	var used int64
	for _, f := range fs.files {
		used += int64(len(f.data))
	}
	return used
}

// faultFor numbers one I/O operation and returns the injected error for it,
// if a fault matches. Caller holds fs.mu.
func (fs *SimFS) faultFor(op, file string) (*Fault, error) {
	fs.ioOps++
	for _, f := range fs.faults {
		if !f.matches(op, file) {
			continue
		}
		if f.StartOp > 0 && fs.ioOps < f.StartOp {
			continue
		}
		if f.Count > 0 {
			f.Count--
		}
		return f, f.Err
	}
	return nil, nil
}

// OpCount returns how many mutations have executed.
func (fs *SimFS) OpCount() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.ops
}

// IOOpCount returns how many I/O operations (reads included) have executed —
// the coordinate system sustained faults are scheduled on.
func (fs *SimFS) IOOpCount() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.ioOps
}

// Crashed reports whether the simulated machine is down.
func (fs *SimFS) Crashed() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.crashed
}

// Trace returns the most recent mutations, oldest first.
func (fs *SimFS) Trace() []Op {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.traceLen < len(fs.trace) {
		return append([]Op(nil), fs.trace[:fs.traceLen]...)
	}
	// Ring wrapped: oldest entry is at traceLen % cap.
	start := fs.traceLen % fs.traceCap
	out := make([]Op, 0, fs.traceCap)
	out = append(out, fs.trace[start:]...)
	out = append(out, fs.trace[:start]...)
	return out
}

// Crash forces an immediate crash, as if the power failed between
// operations.
func (fs *SimFS) Crash() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.crashed = true
}

// Reboot brings the machine back up after a crash: for every file, synced
// content survives intact, and each unsynced (dirty) sector independently
// either persisted or is lost — the choice drawn from a generator seeded by
// (seed, crash op index), so the same (seed, point) pair always yields the
// same surviving bytes. Fault injection is disarmed; subsequent I/O behaves
// like a healthy disk.
func (fs *SimFS) Reboot() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	rng := rand.New(rand.NewSource(fs.seed*1_000_003 + fs.ops))
	names := make([]string, 0, len(fs.files))
	for name := range fs.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fs.files[name]
		survived := append([]byte(nil), f.durable...)
		sectors := make([]int64, 0, len(f.dirty))
		for s := range f.dirty {
			sectors = append(sectors, s)
		}
		sort.Slice(sectors, func(i, j int) bool { return sectors[i] < sectors[j] })
		for _, s := range sectors {
			if rng.Intn(2) == 0 {
				continue // this sector never reached the disk
			}
			lo := s * SectorSize
			hi := lo + SectorSize
			if lo >= int64(len(f.data)) {
				continue
			}
			if hi > int64(len(f.data)) {
				hi = int64(len(f.data))
			}
			if hi > int64(len(survived)) {
				grown := make([]byte, hi)
				copy(grown, survived)
				survived = grown
			}
			copy(survived[lo:hi], f.data[lo:hi])
		}
		f.data = survived
		f.durable = append([]byte(nil), survived...)
		f.synced = int64(len(survived))
		f.dirty = make(map[int64]struct{})
	}
	fs.crashed = false
	fs.crashAt = 0
	fs.syncErr = make(map[int64]bool)
	fs.faults = nil // the replacement hardware is healthy; capacity persists
}

// OpenFile implements FS. Opening is not a mutation and never crashes the
// machine, but fails if it is already down.
func (fs *SimFS) OpenFile(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, ErrCrashed
	}
	f, ok := fs.files[name]
	if !ok {
		f = &simFile{fs: fs, name: name, dirty: make(map[int64]struct{})}
		fs.files[name] = f
	}
	return f, nil
}

// List implements FS: names of existing files with the given prefix, sorted.
func (fs *SimFS) List(prefix string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, ErrCrashed
	}
	var out []string
	for name := range fs.files {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Remove implements FS. Like a real unlink followed by a directory fsync,
// removal is durable immediately; it is a numbered mutation so the crash
// matrix can land on it.
func (fs *SimFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return ErrCrashed
	}
	if _, err := fs.faultFor(OpRemove, name); err != nil {
		return err
	}
	if _, ok := fs.files[name]; !ok {
		return nil
	}
	_, crash := fs.record(name, "remove", 0, 0)
	if crash {
		fs.crashed = true
		return ErrCrashed
	}
	delete(fs.files, name)
	return nil
}

// record numbers one mutation, traces it, and reports whether it is the
// armed crash point. Caller holds fs.mu.
func (fs *SimFS) record(file, kind string, off, n int64) (int64, bool) {
	fs.ops++
	op := Op{Index: fs.ops, File: file, Kind: kind, Off: off, Len: n}
	if len(fs.trace) < fs.traceCap {
		fs.trace = append(fs.trace, op)
	} else {
		fs.trace[fs.traceLen%fs.traceCap] = op
	}
	fs.traceLen++
	return fs.ops, fs.crashAt != 0 && fs.ops == fs.crashAt
}

// simFile is one file on the simulated disk. data is the volatile view (what
// reads observe while the machine is up); durable is the last synced image;
// dirty marks sectors written since the last successful Sync. durable and
// data agree on their first synced bytes outside the dirty sectors, so Sync
// copies only those sectors and the bytes past synced.
type simFile struct {
	fs      *SimFS
	name    string
	data    []byte
	durable []byte
	dirty   map[int64]struct{}
	synced  int64
}

func (f *simFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return 0, ErrCrashed
	}
	if _, err := f.fs.faultFor(OpRead, f.name); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("vfs: negative offset %d", off)
	}
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *simFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return 0, ErrCrashed
	}
	if off < 0 {
		return 0, fmt.Errorf("vfs: negative offset %d", off)
	}
	// Injected and capacity failures are atomic: nothing is written, no
	// sector goes dirty. The op is not a crash-matrix mutation (it did not
	// mutate), so arming faults never shifts crash coordinates.
	if _, err := f.fs.faultFor(OpWrite, f.name); err != nil {
		return 0, err
	}
	end := off + int64(len(p))
	if grow := end - int64(len(f.data)); grow > 0 && f.fs.capacity > 0 {
		if f.fs.usedLocked()+grow > f.fs.capacity {
			return 0, ErrNoSpace
		}
	}
	_, crash := f.fs.record(f.name, "write", off, int64(len(p)))
	if end > int64(len(f.data)) {
		grown := make([]byte, end)
		copy(grown, f.data)
		f.data = grown
	}
	copy(f.data[off:end], p)
	for s := off / SectorSize; s*SectorSize < end; s++ {
		f.dirty[s] = struct{}{}
	}
	if crash {
		// The write was in flight when the power failed: its sectors are
		// dirty and Reboot decides which of them survive.
		f.fs.crashed = true
		return 0, ErrCrashed
	}
	return len(p), nil
}

func (f *simFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return ErrCrashed
	}
	if flt, err := f.fs.faultFor(OpSync, f.name); err != nil {
		if flt.DropDirty {
			// fsyncgate: the kernel reports the failure once, drops the dirty
			// pages, and marks them clean — the data stays readable in the
			// page cache but will NEVER reach the platter. A later Sync
			// "succeeds" vacuously.
			f.dirty = make(map[int64]struct{})
			// The dropped sectors are no longer tracked, so the next
			// successful Sync copies the whole file, dropped bytes included.
			f.synced = 0
		}
		// Without DropDirty the sectors stay dirty: durability simply did
		// not advance.
		return err
	}
	op, crash := f.fs.record(f.name, "sync", 0, 0)
	if crash {
		f.fs.crashed = true
		return ErrCrashed
	}
	if f.fs.syncErr[op] {
		return ErrInjectedSync
	}
	for s := range f.dirty {
		if lo := s * SectorSize; lo < f.synced {
			copy(f.durable[lo:min(lo+SectorSize, f.synced)], f.data[lo:])
		}
	}
	f.durable = append(f.durable[:f.synced], f.data[f.synced:]...)
	f.synced = int64(len(f.data))
	f.dirty = make(map[int64]struct{})
	return nil
}

func (f *simFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return ErrCrashed
	}
	if size < 0 {
		return fmt.Errorf("vfs: negative size %d", size)
	}
	if _, err := f.fs.faultFor(OpTruncate, f.name); err != nil {
		return err
	}
	if grow := size - int64(len(f.data)); grow > 0 && f.fs.capacity > 0 {
		if f.fs.usedLocked()+grow > f.fs.capacity {
			return ErrNoSpace
		}
	}
	_, crash := f.fs.record(f.name, "truncate", size, 0)
	if crash {
		f.fs.crashed = true
		return ErrCrashed
	}
	switch {
	case size < int64(len(f.data)):
		f.data = f.data[:size]
		f.synced = min(f.synced, size)
		for s := range f.dirty {
			if s*SectorSize >= size {
				delete(f.dirty, s)
			}
		}
	case size > int64(len(f.data)):
		grown := make([]byte, size)
		copy(grown, f.data)
		f.data = grown
		// Growth is metadata plus implied zeros; like a real filesystem the
		// new length is not durable until Sync, which falls out naturally:
		// durable keeps the old length and Reboot reverts to it.
	}
	return nil
}

func (f *simFile) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return 0, ErrCrashed
	}
	return int64(len(f.data)), nil
}

func (f *simFile) Close() error {
	// Closing flushes nothing on the simulated disk: only Sync persists.
	return nil
}
