package tsb

import (
	"bytes"
	"fmt"
	"sort"

	"immortaldb/internal/buffer"
	"immortaldb/internal/itime"
	"immortaldb/internal/storage/page"
)

// Result is a read outcome: a copy of the visible version, if any. Deleted
// records (visible version is a delete stub) report Found=false with
// Deleted=true.
type Result struct {
	Key     []byte
	Value   []byte
	TS      itime.Timestamp // start time of the version (zero if unstamped)
	TID     itime.TID       // writer, when the version is the reader's own uncommitted write
	Found   bool
	Deleted bool
}

func resultFrom(v *page.Version) Result {
	if v == nil {
		return Result{}
	}
	r := Result{
		Key:     append([]byte(nil), v.Key...),
		Value:   append([]byte(nil), v.Value...),
		Found:   !v.Stub,
		Deleted: v.Stub,
	}
	if v.Stamped {
		r.TS = v.TS
	} else {
		r.TID = v.TID
	}
	return r
}

// pageNeedsStamp reports whether dp carries versions whose transactions have
// committed but which are not yet timestamped. The caller holds the frame's
// shared latch (or any exclusive lock over the page).
func (t *Tree) pageNeedsStamp(dp *page.DataPage) bool {
	if t.cfg.Stamper == nil {
		return false
	}
	for i := range dp.Recs {
		v := &dp.Recs[i]
		if v.Stamped {
			continue
		}
		if _, ok := t.cfg.Stamper.Resolve(v.TID); ok {
			return true
		}
	}
	return false
}

// maybeStamp lazily timestamps dp's committed versions in place ("if a
// transaction reads a non-timestamped version, we timestamp it" — Section
// 2.2). It runs under the tree's SHARED lock: concurrent readers of the same
// page are excluded by the frame's latch, not the tree lock, so AS OF scans
// and snapshot reads on other pages proceed in parallel. The caller holds a
// pin on lf (which also keeps the buffer pool from flushing the page
// mid-stamp: flushes skip pinned frames).
func (t *Tree) maybeStamp(lf *buffer.Frame, dp *page.DataPage) {
	if t.cfg.Stamper == nil {
		return
	}
	lf.RLatch()
	need := t.pageNeedsStamp(dp)
	lf.RUnlatch()
	if !need {
		return
	}
	lf.Latch()
	// Re-check under the exclusive latch: another reader may have stamped
	// the page while we waited (stampPage then finds nothing — benign).
	if t.stampPage(dp) {
		t.cfg.Pool.MarkDirty(lf, dp.LSN)
	}
	lf.Unlatch()
}

// lookInLatched is lookIn under the frame's shared latch when dp is a
// current page (the only pages mutated in place — by stamping — under the
// shared tree lock). Historical pages are immutable outside the tree's
// exclusive lock and need no latch.
func (t *Tree) lookInLatched(lf *buffer.Frame, dp *page.DataPage, key []byte, ts itime.Timestamp, self itime.TID) Result {
	if !dp.Current {
		return t.lookIn(dp, key, ts, self)
	}
	lf.RLatch()
	defer lf.RUnlatch()
	return t.lookIn(dp, key, ts, self)
}

// ReadKey returns the version of key visible at ts. ts == itime.Max reads
// the current state. self, when non-zero, makes the reading transaction's
// own uncommitted writes visible (they have no timestamp yet).
//
// Reads run entirely under the shared tree lock; when a visited page holds
// committed-but-unstamped versions, the read trigger of lazy timestamping
// stamps them in place under the page frame's exclusive latch, so reads of
// other pages — and the commit pipeline — are never blocked by it.
func (t *Tree) ReadKey(key []byte, ts itime.Timestamp, self itime.TID) (Result, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.cfg.NoTail {
		return t.readNoTail(key)
	}
	if t.cfg.Mode == ModeTSB && !ts.IsMax() {
		return t.readDirect(key, ts, self)
	}
	return t.readViaChain(key, ts, self)
}

func (t *Tree) readNoTail(key []byte) (Result, error) {
	path, lf, err := t.descend(key, itime.Max)
	if err != nil {
		return Result{}, err
	}
	defer t.cfg.Pool.Release(lf)
	defer t.releasePath(path)
	dp := lf.Data()
	s, found := dp.FindSlot(key)
	if !found {
		return Result{}, nil
	}
	return resultFrom(dp.Latest(s)), nil
}

// readDirect descends straight to the page covering (key, ts) — ModeTSB.
func (t *Tree) readDirect(key []byte, ts itime.Timestamp, self itime.TID) (Result, error) {
	path, lf, err := t.descend(key, ts)
	if err != nil {
		return Result{}, err
	}
	defer t.cfg.Pool.Release(lf)
	defer t.releasePath(path)
	dp := lf.Data()
	if dp.Current {
		t.maybeStamp(lf, dp)
	}
	return t.lookInLatched(lf, dp, key, ts, self), nil
}

// readViaChain finds the current page and walks its history chain back to
// the page whose time range covers ts — the paper's prototype access path.
func (t *Tree) readViaChain(key []byte, ts itime.Timestamp, self itime.TID) (Result, error) {
	hops := 0
	defer func() { obsChainReadHops.Observe(float64(hops)) }()
	path, lf, err := t.descend(key, itime.Max)
	if err != nil {
		return Result{}, err
	}
	t.releasePath(path)
	dp := lf.Data()
	t.maybeStamp(lf, dp)
	// "We check the current page's split time. If as of time is later than
	// split time, the version we want is in the current page. Otherwise we
	// follow the page chain" (Section 4.2).
	if ts.Less(dp.StartTS) {
		id := dp.Hist
		t.cfg.Pool.Release(lf)
		for lf = nil; lf == nil; hops++ {
			if id == 0 {
				// The chain ends here without covering ts: either before the
				// beginning of history, or the older pages have migrated to
				// the cold tier.
				return t.coldRead(key, ts)
			}
			if id, lf, err = t.hop(id, ts); err != nil {
				return Result{}, err
			}
		}
		dp = lf.Data()
	}
	res := t.lookInLatched(lf, dp, key, ts, self)
	t.cfg.Pool.Release(lf)
	return res, nil
}

// hop takes one step down a history chain towards the page covering ts. If
// id is that page it comes back pinned; otherwise only id's header was read
// and next is its history pointer.
func (t *Tree) hop(id page.ID, ts itime.Timestamp) (next page.ID, f *buffer.Frame, err error) {
	t.chainHops.Add(1)
	return t.cfg.Pool.Hop(id, func(startTS itime.Timestamp) bool { return !ts.Less(startTS) })
}

// lookIn finds the visible version of key in dp at ts, honouring the
// reader's own uncommitted writes.
func (t *Tree) lookIn(dp *page.DataPage, key []byte, ts itime.Timestamp, self itime.TID) Result {
	s, found := dp.FindSlot(key)
	if !found {
		return Result{}
	}
	if self != 0 && dp.Current {
		// The newest version may be the reader's own in-flight write.
		for i := dp.Slots[s]; i != page.NoPrev; i = dp.Recs[i].Prev {
			v := &dp.Recs[i]
			if v.Stamped {
				break
			}
			if v.TID == self {
				return resultFrom(v)
			}
		}
	}
	v, ok := dp.VersionAsOf(s, ts)
	if !ok {
		return Result{}
	}
	return resultFrom(v)
}

// LatestInfo reports the newest version of key — its timestamp (or writer
// TID if unstamped) and whether it is a delete stub. The write-conflict
// check of snapshot isolation uses it (first committer wins).
//
// The newest version normally lives on the key's current page, but a time
// split drops delete stubs older than the split time from the current page
// entirely (absence there already means "deleted"), leaving the record's
// newest version on a history page. A conflict check that stopped at the
// current page would miss a deletion committed after the caller's snapshot.
// `since` bounds the caller's indifference: versions at or before it never
// matter, so the history chain is walked only when the current page has
// time-split after `since` — otherwise absence from the current page proves
// no version newer than `since` exists. Pass itime.Max to never walk.
func (t *Tree) LatestInfo(key []byte, since itime.Timestamp) (ts itime.Timestamp, tid itime.TID, stub, found bool, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	path, lf, err := t.descend(key, itime.Max)
	if err != nil {
		return itime.Timestamp{}, 0, false, false, err
	}
	t.releasePath(path)
	dp := lf.Data()
	t.maybeStamp(lf, dp)
	lf.RLatch()
	s, ok := dp.FindSlot(key)
	if ok {
		v := dp.Latest(s)
		lf.RUnlatch()
		t.cfg.Pool.Release(lf)
		if v.Stamped {
			return v.TS, 0, v.Stub, true, nil
		}
		return itime.Timestamp{}, v.TID, v.Stub, true, nil
	}
	lf.RUnlatch()
	if !since.Less(dp.StartTS) {
		// No time split after `since`: a version newer than `since` would
		// still be on the current page, so absence is authoritative.
		t.cfg.Pool.Release(lf)
		return itime.Timestamp{}, 0, false, false, nil
	}
	// Walk the history chain to the nearest page still holding the key; its
	// newest version (a migrated delete stub, for keys dead at the split) is
	// the record's newest version overall. Historical pages are immutable,
	// so no latch is needed past the current page.
	for {
		hist := dp.Hist
		t.cfg.Pool.Release(lf)
		if hist == 0 {
			// Chain exhausted: the key's newest surviving version, if any,
			// migrated to the cold tier (always stamped there).
			if t.cfg.Hist == nil {
				return itime.Timestamp{}, 0, false, false, nil
			}
			v, ok, cerr := t.cfg.Hist.Newest(key)
			if cerr != nil || !ok {
				return itime.Timestamp{}, 0, false, false, cerr
			}
			return v.TS, 0, v.Stub, true, nil
		}
		lf, err = t.cfg.Pool.Fetch(hist)
		if err != nil {
			return itime.Timestamp{}, 0, false, false, err
		}
		t.chainHops.Add(1)
		dp = lf.Data()
		if dp == nil {
			t.cfg.Pool.Release(lf)
			return itime.Timestamp{}, 0, false, false, fmt.Errorf("tsb: history chain hit non-data page %d", hist)
		}
		if s, ok := dp.FindSlot(key); ok {
			v := dp.Latest(s)
			t.cfg.Pool.Release(lf)
			if v.Stamped {
				return v.TS, 0, v.Stub, true, nil
			}
			return itime.Timestamp{}, v.TID, v.Stub, true, nil
		}
	}
}

// ScanAsOf calls fn for every record alive at ts with lo <= key < hi (nil
// bounds are unbounded), in ascending key order. ts == itime.Max scans the
// current state. fn returning false stops the scan.
func (t *Tree) ScanAsOf(lo, hi []byte, ts itime.Timestamp, self itime.TID, fn func(Result) bool) error {
	t.mu.RLock()
	results, err := t.collectScan(lo, hi, ts, self)
	t.mu.RUnlock()
	if err != nil {
		return err
	}
	for i := range results {
		if !fn(results[i]) {
			return nil
		}
	}
	return nil
}

// collectScan returns the scan's rows in key order: the rows of the hot
// pages covering ts merged with one ordered cold scan per run of adjacent
// cold ranges.
func (t *Tree) collectScan(lo, hi []byte, ts itime.Timestamp, self itime.TID) ([]Result, error) {
	// Collect the set of data pages whose region intersects the scan, plus
	// the key ranges whose history at ts lives only in the cold tier.
	pages, cold, err := t.pagesForScan(lo, hi, ts)
	if err != nil {
		return nil, err
	}
	var hot []Result
	ordered := true
	for _, pid := range pages {
		lf, err := t.cfg.Pool.Fetch(pid)
		if err != nil {
			return nil, err
		}
		dp := lf.Data()
		if dp == nil {
			t.cfg.Pool.Release(lf)
			return nil, fmt.Errorf("tsb: scan hit non-data page %d", pid)
		}
		if dp.Current {
			t.maybeStamp(lf, dp)
			lf.RLatch()
		}
		for s := range dp.Slots {
			k := dp.Recs[dp.Slots[s]].Key
			if lo != nil && bytes.Compare(k, lo) < 0 {
				continue
			}
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				continue
			}
			if res := t.lookIn(dp, k, ts, self); res.Found {
				ordered = ordered && (len(hot) == 0 || bytes.Compare(hot[len(hot)-1].Key, res.Key) < 0)
				hot = append(hot, res)
			}
		}
		if dp.Current {
			lf.RUnlatch()
		}
		t.cfg.Pool.Release(lf)
	}
	if !ordered {
		// Index entries, and so the pages, come in no key order. Replicated
		// spanning versions can surface the same key from two pages; keep
		// the first (the copies are identical by construction).
		sort.SliceStable(hot, func(i, j int) bool { return bytes.Compare(hot[i].Key, hot[j].Key) < 0 })
		uniq := hot[:1]
		for _, r := range hot[1:] {
			if !bytes.Equal(uniq[len(uniq)-1].Key, r.Key) {
				uniq = append(uniq, r)
			}
		}
		hot = uniq
	}
	if len(cold) == 0 {
		return hot, nil
	}
	// Cold ranges: key partitions whose chain ended before covering ts. No
	// surviving chain page holds their keys at ts (sibling chains sharing a
	// suffix converge on the same covering page), so a key answered hot
	// keeps priority; stubs read as absent. Adjacent partitions become one
	// cold scan, so the run blocks at their borders are read once.
	sort.Slice(cold, func(i, j int) bool {
		return cold[i].lo == nil || cold[j].lo != nil && bytes.Compare(cold[i].lo, cold[j].lo) < 0
	})
	var out []Result
	h := 0
	for i := 0; i < len(cold); {
		cr := cold[i]
		for i++; i < len(cold) && cr.hi != nil && bytes.Compare(cold[i].lo, cr.hi) <= 0; i++ {
			cr.hi = cold[i].hi
		}
		err := t.cfg.Hist.ScanAsOf(cr.lo, cr.hi, ts, func(k []byte, v ColdVersion) bool {
			for ; h < len(hot) && bytes.Compare(hot[h].Key, k) < 0; h++ {
				out = append(out, hot[h])
			}
			if !v.Stub && (h == len(hot) || !bytes.Equal(hot[h].Key, k)) {
				out = append(out, coldResult(k, v))
			}
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	return append(out, hot[h:]...), nil
}

// coldRange is a key range whose as-of-ts versions live in the cold tier.
type coldRange struct{ lo, hi []byte }

// pagesForScan returns the data pages an as-of-ts scan over [lo, hi) must
// visit — via the index in ModeTSB, via current pages plus chain walks in
// ModeChain — plus, in chain mode, the key ranges whose chain ended without
// covering ts: their versions at ts, if any, migrated to the cold tier. For
// NoTail tables there is no time dimension. The caller holds the tree lock
// (shared or exclusive); nothing is mutated.
func (t *Tree) pagesForScan(lo, hi []byte, ts itime.Timestamp) ([]page.ID, []coldRange, error) {
	var out []page.ID
	var cold []coldRange
	seen := make(map[page.ID]bool)
	add := func(id page.ID) {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}

	if t.cfg.Mode == ModeTSB && !ts.IsMax() && !t.cfg.NoTail {
		// Direct: walk the index collecting children whose rect contains ts.
		var walk func(id page.ID) error
		walk = func(id page.ID) error {
			f, err := t.cfg.Pool.Fetch(id)
			if err != nil {
				return err
			}
			defer t.cfg.Pool.Release(f)
			if ip := f.Index(); ip != nil {
				for _, e := range ip.ChildrenForTime(lo, hi, ts) {
					if err := walk(e.Child); err != nil {
						return err
					}
				}
				return nil
			}
			add(f.ID())
			return nil
		}
		root, rootIsLeaf := t.root, t.rootIsLeaf
		if rootIsLeaf {
			add(root)
			return out, nil, nil
		}
		if err := walk(root); err != nil {
			return nil, nil, err
		}
		return out, nil, nil
	}

	// Chain mode (and all current scans): find current pages, then follow
	// each history chain back to the page covering ts.
	currents, err := t.currentPages(lo, hi)
	if err != nil {
		return nil, nil, err
	}
	for _, cid := range currents {
		f, err := t.cfg.Pool.Fetch(cid)
		if err != nil {
			return nil, nil, err
		}
		dp := f.Data()
		if dp == nil {
			t.cfg.Pool.Release(f)
			return nil, nil, fmt.Errorf("tsb: chain hit non-data page %d", cid)
		}
		// The current page's fences bound the partition this chain serves;
		// clipped against the scan bounds they become the cold range if the
		// chain ends uncovered.
		partLo, partHi := clipLo(dp.LowKey, lo), clipHi(dp.HighKey, hi)
		covers, id := !ts.Less(dp.StartTS), dp.Hist
		t.cfg.Pool.Release(f)
		if covers {
			add(cid)
			continue
		}
		// Past the current page only headers are read, up to the page
		// covering ts, which the pool decodes and caches for collectScan. A
		// page already seen covers ts: a sibling chain sharing this suffix
		// got there first.
		for id != 0 && !seen[id] {
			next, hf, err := t.hop(id, ts)
			if err != nil {
				return nil, nil, err
			}
			if hf != nil {
				t.cfg.Pool.Release(hf)
				add(id)
				break
			}
			id = next
		}
		if id == 0 && t.cfg.Hist != nil {
			cold = append(cold, coldRange{lo: partLo, hi: partHi})
		}
	}
	return out, cold, nil
}

// clipLo returns the tighter (larger) of a page's low fence and the scan's
// low bound; nil means unbounded.
func clipLo(fence, lo []byte) []byte {
	if fence == nil {
		return lo
	}
	if lo == nil || bytes.Compare(fence, lo) > 0 {
		return fence
	}
	return lo
}

// clipHi returns the tighter (smaller) of a page's high fence and the
// scan's exclusive high bound; nil means unbounded.
func clipHi(fence, hi []byte) []byte {
	if fence == nil {
		return hi
	}
	if hi == nil || bytes.Compare(fence, hi) < 0 {
		return fence
	}
	return hi
}

// currentPages returns the IDs of current data pages intersecting [lo, hi).
func (t *Tree) currentPages(lo, hi []byte) ([]page.ID, error) {
	root, rootIsLeaf := t.root, t.rootIsLeaf
	if rootIsLeaf {
		return []page.ID{root}, nil
	}
	var out []page.ID
	seen := make(map[page.ID]bool)
	var walk func(id page.ID) error
	walk = func(id page.ID) error {
		f, err := t.cfg.Pool.Fetch(id)
		if err != nil {
			return err
		}
		defer t.cfg.Pool.Release(f)
		ip := f.Index()
		if ip == nil {
			dp := f.Data()
			if dp != nil && dp.Current && !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
			return nil
		}
		for _, e := range ip.ChildrenForTime(lo, hi, itime.Max) {
			if err := walk(e.Child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	return out, nil
}

// VersionInfo is one entry of a key's time-travel history.
type VersionInfo struct {
	Value   []byte
	TS      itime.Timestamp
	Stub    bool
	Stamped bool
	TID     itime.TID
}

// History returns every version of key, newest first — the "time travel"
// functionality of Section 4.2. Replicated copies (from time splits) are
// collapsed.
func (t *Tree) History(key []byte) ([]VersionInfo, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.historyLocked(key)
}

func (t *Tree) historyLocked(key []byte) ([]VersionInfo, error) {
	if t.cfg.NoTail {
		return nil, fmt.Errorf("tsb: no history on a conventional table")
	}
	// Walk from the current page back through the whole chain (chain mode
	// always works; TSB mode could use ChildrenForKey, but the chain is
	// complete by construction and keeps this path mode-independent).
	path, lf, err := t.descend(key, itime.Max)
	if err != nil {
		return nil, err
	}
	t.releasePath(path)
	var out []VersionInfo
	seenStart := make(map[itime.Timestamp]bool)
	for {
		dp := lf.Data()
		if dp == nil {
			t.cfg.Pool.Release(lf)
			return nil, fmt.Errorf("tsb: history chain hit non-data page")
		}
		if dp.Current {
			t.maybeStamp(lf, dp)
			lf.RLatch()
		}
		if s, found := dp.FindSlot(key); found {
			for _, i := range dp.Chain(s) {
				v := &dp.Recs[i]
				if v.Stamped {
					if seenStart[v.TS] {
						continue
					}
					seenStart[v.TS] = true
				}
				out = append(out, VersionInfo{
					Value:   append([]byte(nil), v.Value...),
					TS:      v.TS,
					Stub:    v.Stub,
					Stamped: v.Stamped,
					TID:     v.TID,
				})
			}
		}
		if dp.Current {
			lf.RUnlatch()
		}
		hist := dp.Hist
		t.cfg.Pool.Release(lf)
		if hist == 0 {
			// Chain exhausted: append the key's versions that migrated to the
			// cold tier. seenStart already collapses replicated copies that
			// exist both in a surviving chain page and in a run.
			if t.cfg.Hist != nil {
				cold, cerr := t.cfg.Hist.KeyHistory(key)
				if cerr != nil {
					return nil, cerr
				}
				for _, v := range cold {
					if seenStart[v.TS] {
						continue
					}
					seenStart[v.TS] = true
					out = append(out, VersionInfo{
						Value:   v.Value,
						TS:      v.TS,
						Stub:    v.Stub,
						Stamped: true,
					})
				}
			}
			break
		}
		lf, err = t.cfg.Pool.Fetch(hist)
		if err != nil {
			return nil, err
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		// Unstamped (in-flight) versions are newest.
		if out[a].Stamped != out[b].Stamped {
			return !out[a].Stamped
		}
		return out[b].TS.Less(out[a].TS)
	})
	return out, nil
}
