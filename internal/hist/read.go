package hist

import (
	"bytes"
	"sort"
	"sync"

	"immortaldb/internal/itime"
)

// The cold read path. Every read walks runs through a runIter: a block
// cursor over a pooled buffer that loads, checksums and decodes one block at
// a time, so a read allocates only the versions it hands to its caller.

// runIter yields, in (key, TS) order, the entries of one run whose key lies
// between lo and hi (nil bounds are open; hi is inclusive when hiIncl).
// The current entry is cur's; like cur's it is valid until the next call.
type runIter struct {
	rf       *runFile
	lo, hi   []byte
	hiIncl   bool
	blk      int  // next block to load
	skipping bool // no entry >= lo seen yet
	done     bool

	buf []byte // block buffer, reused across blocks and reads
	cur blockCursor

	// held is a version the consumer keeps across next calls. Its value
	// aliases buf until the block is replaced, then moves to scratch.
	held    Version
	scratch []byte

	// Scan state (nextKey): whether the run has a key to offer, that key
	// (held is its newest version), and whether cur already stands on the
	// first entry of the following key.
	has     bool
	key     []byte
	pending bool
}

var iterPool = sync.Pool{New: func() any { return new(runIter) }}

// iterate returns a pooled iterator positioned before the first entry of rf
// in range, or nil when rf's manifest bounds show it holds no version of a
// key in range at or before ts. The caller puts the iterator back with
// release.
func (rf *runFile) iterate(lo, hi []byte, hiIncl bool, ts itime.Timestamp) *runIter {
	if lo != nil && bytes.Compare(rf.meta.MaxKey, lo) < 0 || ts.Less(rf.meta.MinTS) {
		return nil
	}
	if hi != nil {
		if c := bytes.Compare(rf.meta.MinKey, hi); c > 0 || c == 0 && !hiIncl {
			return nil
		}
	}
	obsRunsProbed.Inc()
	it := iterPool.Get().(*runIter)
	it.rf, it.lo, it.hi, it.hiIncl = rf, lo, hi, hiIncl
	it.skipping, it.done, it.pending, it.cur.left = lo != nil, false, false, 0
	// One key's versions can span several consecutive blocks, all carrying
	// that firstKey, so start before the FIRST block whose firstKey >= lo:
	// its predecessor may hold lo in its tail.
	it.blk = 0
	if lo != nil {
		it.blk = sort.Search(len(rf.blocks), func(i int) bool {
			return bytes.Compare(rf.blocks[i].firstKey, lo) >= 0
		})
		if it.blk > 0 {
			it.blk--
		}
	}
	return it
}

func (it *runIter) release() {
	it.rf, it.lo, it.hi, it.held = nil, nil, nil, Version{}
	iterPool.Put(it)
}

// past reports whether key lies beyond the iterator's upper bound.
func (it *runIter) past(key []byte) bool {
	if it.hi == nil {
		return false
	}
	c := bytes.Compare(key, it.hi)
	return c > 0 || c == 0 && !it.hiIncl
}

// load reads block it.blk into the iterator's buffer and points cur at it.
func (it *runIter) load() error {
	// The held value aliases the buffer about to be overwritten.
	it.scratch = append(it.scratch[:0], it.held.Value...)
	it.held.Value = it.scratch
	ref := it.rf.blocks[it.blk]
	if cap(it.buf) < ref.length {
		it.buf = make([]byte, ref.length)
	}
	b := it.buf[:ref.length]
	if _, err := it.rf.f.ReadAt(b, ref.off); err != nil {
		return err
	}
	obsBlocksRead.Inc()
	obsBlockBytes.Add(uint64(ref.length))
	it.blk++
	return it.cur.reset(b)
}

// next advances to the following in-range entry, loading blocks as needed.
func (it *runIter) next() (bool, error) {
	for !it.done {
		var ok bool
		var err error
		if it.skipping {
			ok, err = it.cur.seek(it.lo)
		} else {
			ok, err = it.cur.next()
		}
		if err != nil {
			return false, err
		}
		if ok {
			it.skipping = false
			it.done = it.past(it.cur.key)
			return !it.done, nil
		}
		// Block exhausted. A block whose firstKey is past the bound holds
		// only out-of-range keys, so it is never read.
		if it.blk >= len(it.rf.blocks) || it.past(it.rf.blocks[it.blk].firstKey) {
			it.done = true
			return false, nil
		}
		if err := it.load(); err != nil {
			return false, err
		}
	}
	return false, nil
}

// hold makes the current entry the held version.
func (it *runIter) hold() {
	it.held = Version{Value: it.cur.val, TS: it.cur.ts, Stub: it.cur.stub}
}

// nextKey advances to the next key that has a version with TS <= ts and
// holds the newest such version; it.key is that key. has=false afterwards
// means the run is exhausted.
func (it *runIter) nextKey(ts itime.Timestamp) error {
	it.has = false
	for !it.has {
		if !it.pending {
			if ok, err := it.next(); !ok {
				return err
			}
		}
		it.key = append(it.key[:0], it.cur.key...)
		it.pending = false
		for !it.pending {
			// Versions of one key ascend in time: the last one at or before
			// ts is the answer, the rest are walked only to reach the next key.
			if !it.cur.ts.After(ts) {
				it.hold()
				it.has = true
			}
			ok, err := it.next()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			it.pending = !bytes.Equal(it.cur.key, it.key)
		}
	}
	return nil
}

// Lookup returns the newest cold version of key with TS <= ts, across all
// of the table's runs. ok=false means the cold tier holds no such version —
// for an exhausted history chain that means the record did not exist at ts.
// The returned value is the caller's.
func (s *Store) Lookup(tid uint32, key []byte, ts itime.Timestamp) (Version, bool, error) {
	obsColdLookups.Inc()
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.tables[tid]
	if t == nil {
		return Version{}, false, nil
	}
	var best Version
	found := false
	for i := range t.man.Runs {
		rf := t.runs[t.man.Runs[i].Seq]
		// A run whose newest version is no newer than the best so far cannot
		// improve on it ((key, TS) duplicates across runs are identical).
		if found && !best.TS.Less(rf.meta.MaxTS) {
			continue
		}
		it := rf.iterate(key, key, true, ts)
		if it == nil {
			continue
		}
		hit := false
		var err error
		for {
			var ok bool
			if ok, err = it.next(); !ok || it.cur.ts.After(ts) {
				break
			}
			it.hold()
			hit = true
		}
		if hit && (!found || best.TS.Less(it.held.TS)) {
			best.Value = append(best.Value[:0], it.held.Value...)
			best.TS, best.Stub, found = it.held.TS, it.held.Stub, true
		}
		it.release()
		if err != nil {
			return Version{}, false, err
		}
	}
	if found {
		obsColdHits.Inc()
	}
	return best, found, nil
}

// Newest returns the newest cold version of key regardless of time.
func (s *Store) Newest(tid uint32, key []byte) (Version, bool, error) {
	return s.Lookup(tid, key, itime.Max)
}

// KeyHistory returns every cold version of key, newest first, with
// (key, TS) duplicates across runs collapsed.
func (s *Store) KeyHistory(tid uint32, key []byte) ([]Version, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.tables[tid]
	if t == nil {
		return nil, nil
	}
	var all []Version
	for i := range t.man.Runs {
		rf := t.runs[t.man.Runs[i].Seq]
		it := rf.iterate(key, key, true, itime.Max)
		if it == nil {
			continue
		}
		var ok bool
		var err error
		for ok, err = it.next(); ok; ok, err = it.next() {
			all = append(all, Version{Value: append([]byte(nil), it.cur.val...), TS: it.cur.ts, Stub: it.cur.stub})
		}
		it.release()
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[j].TS.Less(all[i].TS) })
	out := all[:0]
	for _, v := range all {
		if len(out) == 0 || out[len(out)-1].TS != v.TS {
			out = append(out, v)
		}
	}
	return out, nil
}

// ScanAsOf visits, in key order, the newest version with TS <= ts of every
// key in [lo, hi) present in the cold tier (nil bounds are open): a k-way
// merge of one iterator per run, so every block is read once and nothing is
// collected or sorted. Delete stubs ARE visited — the caller decides
// whether absence-at-ts means skip. fn returning false stops the scan. The
// key passed to fn is valid only during the call; the version's value is the
// caller's.
func (s *Store) ScanAsOf(tid uint32, lo, hi []byte, ts itime.Timestamp, fn func(key []byte, v Version) bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.tables[tid]
	if t == nil {
		return nil
	}
	its := make([]*runIter, 0, len(t.man.Runs))
	defer func() {
		for _, it := range its {
			it.release()
		}
	}()
	for i := range t.man.Runs {
		rf := t.runs[t.man.Runs[i].Seq]
		it := rf.iterate(lo, hi, false, ts)
		if it == nil {
			continue
		}
		its = append(its, it)
		if err := it.nextKey(ts); err != nil {
			return err
		}
	}
	for {
		// The smallest key wins; among runs holding it, the newest version.
		var w *runIter
		for _, it := range its {
			if !it.has {
				continue
			}
			if w != nil {
				if c := bytes.Compare(it.key, w.key); c > 0 || c == 0 && !w.held.TS.Less(it.held.TS) {
					continue
				}
			}
			w = it
		}
		if w == nil {
			return nil
		}
		v := w.held
		v.Value = append([]byte(nil), v.Value...)
		if !fn(w.key, v) {
			return nil
		}
		// Step every run standing on that key, the winner last: stepping it
		// overwrites the key the others are compared with.
		for _, it := range its {
			if it != w && it.has && bytes.Equal(it.key, w.key) {
				if err := it.nextKey(ts); err != nil {
					return err
				}
			}
		}
		if err := w.nextKey(ts); err != nil {
			return err
		}
	}
}
