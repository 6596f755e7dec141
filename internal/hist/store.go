package hist

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"immortaldb/internal/obs"
	"immortaldb/internal/storage/vfs"
)

var (
	obsColdLookups = obs.NewCounter("immortaldb_hist_cold_lookups_total",
		"Point lookups that consulted the cold run tier.")
	obsColdHits = obs.NewCounter("immortaldb_hist_cold_hits_total",
		"Cold-tier lookups that found a version.")
	obsRunsProbed = obs.NewCounter("immortaldb_hist_runs_probed_total",
		"Runs a cold read opened an iterator on after the key and time bounds of their manifest entry let them through.")
	obsBlocksRead = obs.NewCounter("immortaldb_hist_blocks_read_total",
		"Run blocks read, checksummed and decoded by cold reads.")
	obsBlockBytes = obs.NewCounter("immortaldb_hist_block_bytes_read_total",
		"Bytes of run blocks read by cold reads.")
	obsRunsWritten = obs.NewCounter("immortaldb_hist_runs_written_total",
		"Run files written (migration and compaction).")
	obsRunBytes = obs.NewCounter("immortaldb_hist_run_bytes_written_total",
		"Bytes of run files written.")
)

// Store is a database's cold history tier: per-table sets of immutable run
// files plus the manifest naming them. One Store lives inside each DB; the
// engine migrates pages in through WriteRun/Install, recovery and replicas
// replay the same transitions through ApplyRunRecord/ApplyManifestRecord,
// and the TSB read path calls Lookup/Newest/KeyHistory/ScanAsOf when a
// history chain ends without covering the requested time.
//
// The run FILES are the durability authority — WriteRun and Install fsync
// before returning, and Install's dual-slot manifest write is the atomic
// flip. The WAL records exist to make the transitions idempotent under
// redo and visible to replicas.
type Store struct {
	fs  vfs.FS
	dir string

	mu     sync.RWMutex
	tables map[uint32]*tier
}

// tier is one table's loaded manifest plus open readers for its runs.
type tier struct {
	man  Manifest
	runs map[uint64]*runFile
}

// runFile is an open run with its block index resident.
type runFile struct {
	meta   RunMeta
	f      vfs.File
	blocks []blockRef
}

// NewStore returns a Store over dir. No I/O happens until LoadTable.
func NewStore(fs vfs.FS, dir string) *Store {
	return &Store{fs: fs, dir: dir, tables: map[uint32]*tier{}}
}

func (s *Store) runName(tid uint32, seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("hist.%d.run.%d", tid, seq))
}

func (s *Store) runPrefix(tid uint32) string {
	return filepath.Join(s.dir, fmt.Sprintf("hist.%d.run.", tid))
}

func (s *Store) manifestName(tid uint32, ver uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("hist.%d.manifest.%d", tid, ver%2))
}

// readAll reads a whole file through the vfs.
func readAll(f vfs.File) ([]byte, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	b := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(b, 0); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// writeFile writes data as the entire content of name and fsyncs it.
// vfs.OpenFile creates absent files, so this works for both fresh writes
// and idempotent redo rewrites.
func (s *Store) writeFile(name string, data []byte) error {
	f, err := s.fs.OpenFile(name)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.WriteAt(data, 0); err != nil {
		return err
	}
	if err := f.Truncate(int64(len(data))); err != nil {
		return err
	}
	return f.Sync()
}

// openRun opens the run file described by meta and loads its block index.
// The name must exist (callers discover files via List or just wrote them);
// a created-empty file fails footer validation, which is the safety net
// against OpenFile's create-if-absent behavior.
func (s *Store) openRun(tid uint32, meta RunMeta) (*runFile, error) {
	f, err := s.fs.OpenFile(s.runName(tid, meta.Seq))
	if err != nil {
		return nil, err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	// Read the header and the whole footer region in one tail read. The
	// footer length is unknown until the tail is read, so read generously:
	// index entries are tiny, and re-reading on a miss is fine.
	hdr := make([]byte, runHeaderLen)
	if size < int64(runHeaderLen+footTailLen) {
		f.Close()
		return nil, fmt.Errorf("%w run %d/%d: file too small (%d bytes)", ErrCorrupt, tid, meta.Seq, size)
	}
	if _, err := f.ReadAt(hdr, 0); err != nil {
		f.Close()
		return nil, err
	}
	gotTID, gotSeq, _, _, err := parseRunHeader(hdr)
	if err != nil {
		f.Close()
		return nil, err
	}
	if gotTID != tid || gotSeq != meta.Seq {
		f.Close()
		return nil, fmt.Errorf("%w run %d/%d: header says %d/%d", ErrCorrupt, tid, meta.Seq, gotTID, gotSeq)
	}
	tailLen := int64(footTailLen)
	if size < tailLen {
		tailLen = size
	}
	tail := make([]byte, tailLen)
	if _, err := f.ReadAt(tail, size-tailLen); err != nil {
		f.Close()
		return nil, err
	}
	var blocks []blockRef
	if len(tail) >= footTailLen {
		plen := int64(uint32(tail[0])<<24 | uint32(tail[1])<<16 | uint32(tail[2])<<8 | uint32(tail[3]))
		if plen < 0 || plen > size-int64(footTailLen) {
			f.Close()
			return nil, fmt.Errorf("%w run %d/%d: footer length", ErrCorrupt, tid, meta.Seq)
		}
		full := make([]byte, plen+int64(footTailLen))
		if _, err := f.ReadAt(full, size-int64(len(full))); err != nil {
			f.Close()
			return nil, err
		}
		blocks, err = parseRunFooter(full, size)
		if err != nil {
			f.Close()
			return nil, err
		}
	}
	return &runFile{meta: meta, f: f, blocks: blocks}, nil
}

// LoadTable (re)loads a table's tier from disk: it picks the manifest slot
// with the highest valid version and opens the runs it lists. Absent
// manifests mean an empty tier. Files are discovered via List — never by
// opening names blind, which would create them.
func (s *Store) LoadTable(tid uint32) error {
	prefix := filepath.Join(s.dir, fmt.Sprintf("hist.%d.manifest.", tid))
	names, err := s.fs.List(prefix)
	if err != nil {
		return err
	}
	var best Manifest
	for _, name := range names {
		f, err := s.fs.OpenFile(name)
		if err != nil {
			return err
		}
		b, rerr := readAll(f)
		f.Close()
		if rerr != nil {
			return rerr
		}
		m, derr := DecodeManifest(b)
		if derr != nil || m.TableID != tid {
			// A torn slot from a crashed install: the other slot decides.
			continue
		}
		if m.Ver > best.Ver {
			best = m
		}
	}
	t := &tier{man: best, runs: map[uint64]*runFile{}}
	if best.Ver > 0 {
		for _, rm := range best.Runs {
			rf, err := s.openRun(tid, rm)
			if err != nil {
				for _, open := range t.runs {
					open.f.Close()
				}
				return err
			}
			t.runs[rm.Seq] = rf
		}
	}
	s.mu.Lock()
	old := s.tables[tid]
	s.tables[tid] = t
	s.mu.Unlock()
	closeTier(old)
	return nil
}

func closeTier(t *tier) {
	if t == nil {
		return
	}
	for _, r := range t.runs {
		r.f.Close()
	}
}

// Manifest returns the table's current manifest (zero-value if never
// installed or not loaded).
func (s *Store) Manifest(tid uint32) Manifest {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t := s.tables[tid]; t != nil {
		return t.man
	}
	return Manifest{TableID: tid}
}

// WriteRun persists a run image under (tid, seq) and fsyncs it. Idempotent:
// rewriting the same (seq, data) is a no-op in effect.
func (s *Store) WriteRun(tid uint32, seq uint64, data []byte) error {
	if err := s.writeFile(s.runName(tid, seq), data); err != nil {
		return err
	}
	obsRunsWritten.Inc()
	obsRunBytes.Add(uint64(len(data)))
	return nil
}

// Install makes m the table's manifest: it writes the image to slot
// m.Ver%2, fsyncs it, and swaps the in-memory tier to the new run set,
// opening newly referenced runs (their files must already be written). This
// is the commit point of a migration or compaction.
func (s *Store) Install(tid uint32, m Manifest) error {
	if err := s.writeFile(s.manifestName(tid, m.Ver), EncodeManifest(m)); err != nil {
		return err
	}
	return s.swapTier(tid, m)
}

// swapTier points the in-memory tier at m, reusing already-open run readers
// and opening the rest.
func (s *Store) swapTier(tid uint32, m Manifest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.tables[tid]
	t := &tier{man: m, runs: map[uint64]*runFile{}}
	for _, rm := range m.Runs {
		if old != nil {
			if rf, ok := old.runs[rm.Seq]; ok {
				t.runs[rm.Seq] = rf
				continue
			}
		}
		rf, err := s.openRun(tid, rm)
		if err != nil {
			for seq, open := range t.runs {
				if old == nil || old.runs[seq] == nil {
					open.f.Close()
				}
			}
			return err
		}
		t.runs[rm.Seq] = rf
	}
	s.tables[tid] = t
	if old != nil {
		for seq, rf := range old.runs {
			if t.runs[seq] == nil {
				rf.f.Close()
			}
		}
	}
	return nil
}

// ApplyRunRecord replays a TypeHistRun WAL record: rewrite the run file.
// Safe to repeat; recovery may replay records already reflected on disk.
func (s *Store) ApplyRunRecord(tid uint32, seq uint64, data []byte) error {
	return s.writeFile(s.runName(tid, seq), data)
}

// ApplyManifestRecord replays a TypeHistManifest WAL record: install the
// carried manifest if it is newer than the one loaded. Replicas use this as
// their only install path.
func (s *Store) ApplyManifestRecord(tid uint32, blob []byte) error {
	m, err := DecodeManifest(blob)
	if err != nil {
		return err
	}
	if m.TableID != tid {
		return fmt.Errorf("%w manifest record: table %d carries manifest for %d", ErrCorrupt, tid, m.TableID)
	}
	s.mu.RLock()
	loaded := s.tables[tid] != nil
	s.mu.RUnlock()
	if !loaded {
		// Redo may replay a record OLDER than the manifest already on disk
		// (versions two apart share a slot, so blindly writing would clobber
		// the newer image). Learn the disk state first; stale replays then
		// fall out as no-ops below.
		if err := s.LoadTable(tid); err != nil {
			return err
		}
	}
	s.mu.RLock()
	cur := uint64(0)
	if t := s.tables[tid]; t != nil {
		cur = t.man.Ver
	}
	s.mu.RUnlock()
	if m.Ver <= cur {
		return nil
	}
	if err := s.writeFile(s.manifestName(tid, m.Ver), blob); err != nil {
		return err
	}
	return s.swapTier(tid, m)
}

// RemoveRuns deletes the named run files — called only after a manifest
// that no longer lists them is durably installed.
func (s *Store) RemoveRuns(tid uint32, seqs []uint64) error {
	for _, seq := range seqs {
		if err := s.fs.Remove(s.runName(tid, seq)); err != nil {
			return err
		}
	}
	return nil
}

// Cleanup removes run files on disk that the current manifest does not
// reference: leftovers of a migration or compaction that crashed between
// writing runs and installing the manifest, or after install but before
// removal of replaced runs.
func (s *Store) Cleanup(tid uint32) error {
	names, err := s.fs.List(s.runPrefix(tid))
	if err != nil {
		return err
	}
	s.mu.RLock()
	live := map[uint64]bool{}
	if t := s.tables[tid]; t != nil {
		for _, rm := range t.man.Runs {
			live[rm.Seq] = true
		}
	}
	s.mu.RUnlock()
	for _, name := range names {
		seqStr := name[strings.LastIndexByte(name, '.')+1:]
		seq, perr := strconv.ParseUint(seqStr, 10, 64)
		if perr != nil {
			continue
		}
		if live[seq] {
			continue
		}
		if err := s.fs.Remove(name); err != nil {
			return err
		}
	}
	return nil
}

// RunEntries fully decodes one run — compaction's input path.
func (s *Store) RunEntries(tid uint32, seq uint64) ([]Entry, error) {
	s.mu.RLock()
	t := s.tables[tid]
	var rf *runFile
	if t != nil {
		rf = t.runs[seq]
	}
	s.mu.RUnlock()
	if rf == nil {
		return nil, fmt.Errorf("hist: run %d/%d not loaded", tid, seq)
	}
	b, err := readAll(rf.f)
	if err != nil {
		return nil, err
	}
	_, _, _, entries, err := DecodeRun(b)
	return entries, err
}

// Totals reports the live run count and byte total across loaded tables.
func (s *Store) Totals() (runs int, bytes uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, t := range s.tables {
		runs += len(t.man.Runs)
		for i := range t.man.Runs {
			bytes += t.man.Runs[i].Bytes
		}
	}
	return runs, bytes
}

// Close releases all open run readers.
func (s *Store) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.tables {
		closeTier(t)
	}
	s.tables = map[uint32]*tier{}
}
