package tsb

import (
	"bytes"
	"fmt"
	"sort"

	"immortaldb/internal/buffer"
	"immortaldb/internal/itime"
	"immortaldb/internal/storage/page"
)

// entrySlack over-estimates index entry growth so parent-room checks stay
// conservative.
const entrySlack = 32

// splitLeaf frees space on a full data page. Preference order depends on the
// table kind (Section 3.3):
//
//   - transaction-time tables: lazy-timestamp the page, TIME split at the
//     current time; if utilization after the time split is still above the
//     threshold T, key split as well; if the time split would free nothing,
//     key split only;
//   - snapshot-only tables: reclaim versions older than the snapshot
//     horizon; key split when that frees nothing;
//   - conventional (no-tail) tables: key split.
//
// On success it returns errRetry: the structure changed and the caller must
// re-descend. The caller releases path and lf.
func (t *Tree) splitLeaf(path []pathEntry, lf *buffer.Frame) error {
	dp := lf.Data()

	// The boundary is chosen before stamping (see Config.SplitNow).
	var splitTS itime.Timestamp
	if t.cfg.Immortal && !t.cfg.NoTail && t.cfg.SplitNow != nil {
		splitTS = t.cfg.SplitNow()
	}
	if t.stampPage(dp) {
		t.cfg.Pool.MarkDirty(lf, dp.LSN)
	}

	if !t.cfg.NoTail && !t.cfg.Immortal && t.cfg.SnapshotHorizon != nil {
		if removed := dp.GCOlderThan(t.cfg.SnapshotHorizon()); removed > 0 {
			// Like timestamping, version GC is not logged: redo never
			// resurrects reclaimed versions (page LSN is unchanged and GC
			// re-runs lazily), and undo only touches uncommitted versions,
			// which GC never removes.
			t.cfg.Pool.MarkDirty(lf, dp.LSN)
			if dp.Used()*4 < dp.Size*3 {
				return errRetry
			}
		}
	}

	wantTime := !splitTS.IsZero() && dp.StartTS.Less(splitTS) && dp.TimeSplitGain(splitTS) > 0

	// Ensure the parent can absorb the index growth before touching the data
	// page; if not, split the parent first and retry from the top.
	newEntries := 0
	if wantTime && t.cfg.Mode == ModeTSB {
		newEntries++ // history page entry
	}
	// A key split may follow the time split (threshold) or stand alone.
	newEntries++
	if err := t.ensureParentRoom(path, dp, newEntries); err != nil {
		return err
	}

	didSomething := false
	if wantTime {
		if err := t.timeSplitLeaf(path, lf, splitTS); err != nil {
			return err
		}
		if t.cfg.OnTimeSplit != nil {
			t.cfg.OnTimeSplit()
		}
		didSomething = true
		if len(path) == 0 && t.cfg.Mode == ModeTSB {
			// The time split grew an index root above this (formerly root)
			// leaf; the descent path is stale, so re-descend before any
			// follow-up key split.
			return errRetry
		}
		if float64(dp.Used()) <= t.cfg.Threshold*float64(dp.Size) {
			return errRetry
		}
	}
	if dp.NumKeys() < 2 {
		if didSomething {
			return errRetry
		}
		return fmt.Errorf("%w: page %d cannot shrink (1 oversized key)", ErrNoSpace, dp.ID)
	}
	if err := t.keySplitLeaf(path, lf); err != nil {
		return err
	}
	return errRetry
}

// ensureParentRoom makes sure the leaf's parent index page can take n more
// entries sized like the leaf's fences. With no parent (root leaf) there is
// always room — a fresh root index page is created during the split itself.
func (t *Tree) ensureParentRoom(path []pathEntry, dp *page.DataPage, n int) error {
	if len(path) == 0 {
		return nil
	}
	parent := path[len(path)-1]
	need := n * (indexEntrySize(dp.LowKey, dp.HighKey) + maxKeyLen(dp) + entrySlack)
	if parent.frame.Index().Used()+need <= t.cfg.Pool.PageSize() {
		return nil
	}
	if err := t.splitIndex(path, len(path)-1); err != nil {
		return err
	}
	return errRetry
}

func indexEntrySize(low, high []byte) int {
	e := page.IndexEntry{R: page.Rect{LowKey: low, HighKey: high}}
	probe := page.NewIndex(0, 1<<30, 1)
	before := probe.Used()
	probe.Add(e)
	return probe.Used() - before
}

func maxKeyLen(dp *page.DataPage) int {
	m := 0
	for i := range dp.Recs {
		if len(dp.Recs[i].Key) > m {
			m = len(dp.Recs[i].Key)
		}
	}
	return m
}

// timeSplitLeaf performs the time split of a current data page, (in ModeTSB)
// posting the history page's index entry. The parent is guaranteed to have
// room. Every in-memory change is applied first, then the whole set of
// touched pages is logged as ONE structure-modification record: a torn log
// tail keeps all of it or none of it, so recovery never sees the current
// page shrunk without the history page (and the entry routing to it) that
// absorbed its versions.
func (t *Tree) timeSplitLeaf(path []pathEntry, lf *buffer.Frame, splitTS itime.Timestamp) error {
	dp := lf.Data()
	oldStart := dp.StartTS
	histID, err := t.cfg.Pager.Allocate()
	if err != nil {
		return err
	}
	hist, err := dp.TimeSplit(splitTS, histID)
	if err != nil {
		return err
	}
	t.timeSplits.Add(1)

	pages := []any{hist, dp}
	var parent *buffer.Frame
	var newRoot *page.IndexPage
	var rc *RootChange
	if t.cfg.Mode == ModeTSB {
		histEntry := page.IndexEntry{
			R: page.Rect{
				LowKey: cloneKey(dp.LowKey), HighKey: cloneKey(dp.HighKey),
				LowTS: oldStart, HighTS: splitTS,
			},
			Child: histID,
			Leaf:  true,
		}
		curEntry := page.IndexEntry{
			R: page.Rect{
				LowKey: cloneKey(dp.LowKey), HighKey: cloneKey(dp.HighKey),
				LowTS: splitTS, HighTS: itime.Max,
			},
			Child: dp.ID,
			Leaf:  true,
		}
		if len(path) == 0 {
			// Root was a leaf: grow an index root holding both regions.
			if newRoot, err = t.buildRoot(histEntry, curEntry); err != nil {
				return err
			}
			pages = append(pages, newRoot)
			rc = &RootChange{Root: newRoot.ID}
		} else {
			parent = path[len(path)-1].frame
			ip := parent.Index()
			if !ip.ReplaceChild(dp.ID, curEntry) {
				return fmt.Errorf("tsb: parent %d lost entry for page %d", ip.ID, dp.ID)
			}
			ip.Add(histEntry)
			pages = append(pages, ip)
		}
	}
	lsn, err := t.logSMO(pages, rc)
	if err != nil {
		return err
	}
	hist.LSN = lsn
	hf, err := t.cfg.Pool.NewPage(histID, hist, lsn)
	if err != nil {
		return err
	}
	t.cfg.Pool.Release(hf)
	dp.LSN = lsn
	t.cfg.Pool.MarkDirty(lf, lsn)
	switch {
	case newRoot != nil:
		return t.installRoot(newRoot, lsn)
	case parent != nil:
		parent.Index().LSN = lsn
		t.cfg.Pool.MarkDirty(parent, lsn)
	}
	return nil
}

// keySplitLeaf performs the key split of a current data page and updates the
// index. The parent is guaranteed to have room. Like timeSplitLeaf, all
// in-memory changes happen first and the touched pages are logged as ONE
// atomic structure-modification record.
func (t *Tree) keySplitLeaf(path []pathEntry, lf *buffer.Frame) error {
	dp := lf.Data()
	rightID, err := t.cfg.Pager.Allocate()
	if err != nil {
		return err
	}
	_, right, err := dp.KeySplit(rightID)
	if err != nil {
		return err
	}
	t.keySplits.Add(1)

	leftE := page.IndexEntry{R: t.currentRect(dp), Child: dp.ID, Leaf: true}
	rightE := page.IndexEntry{R: t.currentRect(right), Child: rightID, Leaf: true}
	pages := []any{right, dp}
	var parent *buffer.Frame
	var newRoot *page.IndexPage
	var rc *RootChange
	if len(path) == 0 {
		if newRoot, err = t.buildRoot(leftE, rightE); err != nil {
			return err
		}
		pages = append(pages, newRoot)
		rc = &RootChange{Root: newRoot.ID}
	} else {
		parent = path[len(path)-1].frame
		ip := parent.Index()
		if !ip.ReplaceChild(dp.ID, leftE) {
			return fmt.Errorf("tsb: parent %d lost entry for page %d", ip.ID, dp.ID)
		}
		ip.Add(rightE)
		pages = append(pages, ip)
	}
	lsn, err := t.logSMO(pages, rc)
	if err != nil {
		return err
	}
	right.LSN = lsn
	rf, err := t.cfg.Pool.NewPage(rightID, right, lsn)
	if err != nil {
		return err
	}
	t.cfg.Pool.Release(rf)
	dp.LSN = lsn
	t.cfg.Pool.MarkDirty(lf, lsn)
	switch {
	case newRoot != nil:
		return t.installRoot(newRoot, lsn)
	case parent != nil:
		parent.Index().LSN = lsn
		t.cfg.Pool.MarkDirty(parent, lsn)
	}
	return nil
}

// currentRect is the index rectangle for a current data page. In ModeTSB the
// time dimension starts at the page's split time; in ModeChain current
// entries cover all time (historical access goes through the chain, so every
// as-of scan must still reach the current pages).
func (t *Tree) currentRect(dp *page.DataPage) page.Rect {
	r := page.Rect{
		LowKey: cloneKey(dp.LowKey), HighKey: cloneKey(dp.HighKey),
		HighTS: itime.Max,
	}
	if t.cfg.Mode == ModeTSB {
		r.LowTS = dp.StartTS
	}
	return r
}

// buildRoot constructs (but does not install) a new index root holding the
// two entries. The caller logs it inside its structure-modification record
// and then installs it with installRoot — the root image, the root change,
// and the sibling images all travel in the same atomic record.
func (t *Tree) buildRoot(a, b page.IndexEntry) (*page.IndexPage, error) {
	id, err := t.cfg.Pager.Allocate()
	if err != nil {
		return nil, err
	}
	level := uint16(1)
	if !a.Leaf {
		// Children are index pages; root level grows above them. The exact
		// level is cosmetic; use 2+ to signal "above leaf parents".
		level = 2
	}
	root := page.NewIndex(id, t.cfg.Pool.PageSize(), level)
	root.Add(a)
	root.Add(b)
	return root, nil
}

// installRoot registers a freshly logged root page with the pool and points
// the tree at it.
func (t *Tree) installRoot(root *page.IndexPage, lsn uint64) error {
	root.LSN = lsn
	f, err := t.cfg.Pool.NewPage(root.ID, root, lsn)
	if err != nil {
		return err
	}
	t.cfg.Pool.Release(f)
	t.root = root.ID
	t.rootIsLeaf = false
	return nil
}

// splitIndex splits the index page at path[i], posting the results to its
// parent (path[i-1]) or growing a new root. It first ensures the parent has
// room, recursing upwards if needed. Always leaves the tree consistent; the
// caller retries from the root.
func (t *Tree) splitIndex(path []pathEntry, i int) error {
	pe := path[i]
	ip := pe.frame.Index()

	// Make sure the parent can absorb one extra entry.
	if i > 0 {
		parent := path[i-1].frame.Index()
		need := indexEntrySize(pe.rect.LowKey, pe.rect.HighKey) + 2*maxRectKeyLen(ip) + entrySlack
		if parent.Used()+need > t.cfg.Pool.PageSize() {
			return t.splitIndex(path, i-1)
		}
	}

	var current, hist []page.IndexEntry
	for _, e := range ip.Entries {
		if e.R.HighTS.IsMax() {
			current = append(current, e)
		} else {
			hist = append(hist, e)
		}
	}

	var leftE, rightE page.IndexEntry
	var right *page.IndexPage
	preferTime := len(hist) > len(current) && t.cfg.Mode == ModeTSB

	doKey := func() error {
		if len(current) < 2 {
			return fmt.Errorf("tsb: index page %d cannot key split (%d current entries)", ip.ID, len(current))
		}
		sort.Slice(current, func(a, b int) bool {
			return keyLess(current[a].R.LowKey, current[b].R.LowKey)
		})
		// Current entries partition the region's key space, so every LowKey
		// except the first (== the region's own LowKey) is a strict interior
		// boundary that cuts no current entry.
		b := current[len(current)/2].R.LowKey
		var lefts, rights []page.IndexEntry
		for _, e := range ip.Entries {
			switch {
			case e.R.HighKey != nil && bytes.Compare(e.R.HighKey, b) <= 0:
				lefts = append(lefts, e)
			case keyGE(e.R.LowKey, b):
				rights = append(rights, e)
			default:
				// Spanning (historical) entry: replicated in both halves.
				// Historical pages are immutable, so the redundancy is safe
				// (Section 3.3's replication argument applied to the index).
				lefts = append(lefts, e)
				rights = append(rights, e)
			}
		}
		if len(lefts) == 0 || len(rights) == 0 {
			return fmt.Errorf("tsb: index key split of %d produced an empty half", ip.ID)
		}
		rid, err := t.cfg.Pager.Allocate()
		if err != nil {
			return err
		}
		right = page.NewIndex(rid, t.cfg.Pool.PageSize(), ip.Level)
		right.SetEntries(rights)
		ip.SetEntries(lefts)
		lr := pe.rect
		lr.HighKey = cloneKey(b)
		rr := pe.rect
		rr.LowKey = cloneKey(b)
		leftE = page.IndexEntry{R: lr, Child: ip.ID}
		rightE = page.IndexEntry{R: rr, Child: rid}
		return nil
	}

	doTime := func() error {
		// Index time split at the oldest current child's start: everything
		// that ended before any current child began moves to a historical
		// index page.
		if len(current) == 0 {
			return fmt.Errorf("tsb: index page %d has no current entries", ip.ID)
		}
		tMin := itime.Max
		for _, e := range current {
			if e.R.LowTS.Less(tMin) {
				tMin = e.R.LowTS
			}
		}
		if !pe.rect.LowTS.Less(tMin) {
			return fmt.Errorf("tsb: index page %d time split boundary %v not past region start %v", ip.ID, tMin, pe.rect.LowTS)
		}
		var stay, move []page.IndexEntry
		for _, e := range ip.Entries {
			switch {
			case !e.R.HighTS.IsMax() && !e.R.HighTS.After(tMin):
				move = append(move, e)
			case e.R.LowTS.Less(tMin):
				// Spans the boundary: replicated.
				move = append(move, e)
				stay = append(stay, e)
			default:
				stay = append(stay, e)
			}
		}
		if len(move) == 0 {
			return fmt.Errorf("tsb: index page %d time split moved nothing", ip.ID)
		}
		rid, err := t.cfg.Pager.Allocate()
		if err != nil {
			return err
		}
		right = page.NewIndex(rid, t.cfg.Pool.PageSize(), ip.Level)
		right.SetEntries(move)
		ip.SetEntries(stay)
		hr := pe.rect
		hr.HighTS = tMin
		cr := pe.rect
		cr.LowTS = tMin
		leftE = page.IndexEntry{R: hr, Child: rid} // historical index page
		rightE = page.IndexEntry{R: cr, Child: ip.ID}
		return nil
	}

	var err error
	if preferTime {
		if err = doTime(); err != nil {
			err = doKey()
		}
	} else {
		if err = doKey(); err != nil && t.cfg.Mode == ModeTSB {
			err = doTime()
		}
	}
	if err != nil {
		return err
	}

	pages := []any{right, ip}
	var grand *buffer.Frame
	var newRoot *page.IndexPage
	var rc *RootChange
	if i == 0 {
		if newRoot, err = t.buildRoot(leftE, rightE); err != nil {
			return err
		}
		pages = append(pages, newRoot)
		rc = &RootChange{Root: newRoot.ID}
	} else {
		grand = path[i-1].frame
		gp := grand.Index()
		if !gp.ReplaceChild(ip.ID, pickEntryFor(ip.ID, leftE, rightE)) {
			return fmt.Errorf("tsb: grandparent %d lost entry for index page %d", gp.ID, ip.ID)
		}
		gp.Add(pickEntryNotFor(ip.ID, leftE, rightE))
		pages = append(pages, gp)
	}
	lsn, err := t.logSMO(pages, rc)
	if err != nil {
		return err
	}
	right.LSN = lsn
	rf, err := t.cfg.Pool.NewPage(right.ID, right, lsn)
	if err != nil {
		return err
	}
	t.cfg.Pool.Release(rf)
	ip.LSN = lsn
	t.cfg.Pool.MarkDirty(pe.frame, lsn)
	switch {
	case newRoot != nil:
		return t.installRoot(newRoot, lsn)
	case grand != nil:
		grand.Index().LSN = lsn
		t.cfg.Pool.MarkDirty(grand, lsn)
	}
	return nil
}

func pickEntryFor(id page.ID, a, b page.IndexEntry) page.IndexEntry {
	if a.Child == id {
		return a
	}
	return b
}

func pickEntryNotFor(id page.ID, a, b page.IndexEntry) page.IndexEntry {
	if a.Child == id {
		return b
	}
	return a
}

func maxRectKeyLen(ip *page.IndexPage) int {
	m := 0
	for i := range ip.Entries {
		if n := len(ip.Entries[i].R.LowKey); n > m {
			m = n
		}
		if n := len(ip.Entries[i].R.HighKey); n > m {
			m = n
		}
	}
	return m
}

func keyLess(a, b []byte) bool {
	if a == nil {
		return b != nil
	}
	if b == nil {
		return false
	}
	return bytes.Compare(a, b) < 0
}

func keyGE(a, b []byte) bool {
	if a == nil {
		return b == nil
	}
	if b == nil {
		return false // b = -inf only when nil; here b is a real boundary
	}
	return bytes.Compare(a, b) >= 0
}

func cloneKey(k []byte) []byte {
	if k == nil {
		return nil
	}
	out := make([]byte, len(k))
	copy(out, k)
	return out
}
