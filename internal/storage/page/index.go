package page

import (
	"bytes"
	"fmt"
	"slices"

	"immortaldb/internal/itime"
)

// Rect is a rectangle in (key, time) space describing the responsibility
// region of a TSB-tree child: keys in [LowKey, HighKey) and times in
// [LowTS, HighTS). nil LowKey/HighKey mean unbounded; HighTS == itime.Max
// means the region is current (open-ended in time).
type Rect struct {
	LowKey, HighKey []byte
	LowTS, HighTS   itime.Timestamp
}

// ContainsKey reports whether key falls in the rectangle's key interval.
func (r *Rect) ContainsKey(key []byte) bool {
	if r.LowKey != nil && bytes.Compare(key, r.LowKey) < 0 {
		return false
	}
	if r.HighKey != nil && bytes.Compare(key, r.HighKey) >= 0 {
		return false
	}
	return true
}

// ContainsTime reports whether ts falls in the rectangle's time interval.
// Open-ended (current) rectangles contain every time >= LowTS, including
// itime.Max itself, which the engine uses to mean "the current state".
func (r *Rect) ContainsTime(ts itime.Timestamp) bool {
	if ts.Less(r.LowTS) {
		return false
	}
	return r.HighTS.IsMax() || ts.Less(r.HighTS)
}

// Contains reports whether the point (key, ts) is inside the rectangle.
func (r *Rect) Contains(key []byte, ts itime.Timestamp) bool {
	return r.ContainsKey(key) && r.ContainsTime(ts)
}

// IntersectsKeyRange reports whether the rectangle's key interval intersects
// [lo, hi); nil bounds are unbounded.
func (r *Rect) IntersectsKeyRange(lo, hi []byte) bool {
	if hi != nil && r.LowKey != nil && bytes.Compare(r.LowKey, hi) >= 0 {
		return false
	}
	if lo != nil && r.HighKey != nil && bytes.Compare(lo, r.HighKey) >= 0 {
		return false
	}
	return true
}

func (r Rect) String() string {
	k := func(b []byte) string {
		if b == nil {
			return "∞"
		}
		return fmt.Sprintf("%q", b)
	}
	return fmt.Sprintf("[%s,%s)x[%v,%v)", k(r.LowKey), k(r.HighKey), r.LowTS, r.HighTS)
}

// IndexEntry maps a child region to a child page.
type IndexEntry struct {
	R     Rect
	Child ID
	// Leaf reports whether Child is a data page rather than another index
	// page.
	Leaf bool
}

// indexEntryFixedLen is the marshalled size of an entry minus its key bytes:
// child(8) leaf(1) lowTS(12) highTS(12) lowKeyLen(2) highKeyLen(2).
const indexEntryFixedLen = 8 + 1 + itime.EncodedLen + itime.EncodedLen + 2 + 2

func (e *IndexEntry) size() int {
	return indexEntryFixedLen + len(e.R.LowKey) + len(e.R.HighKey)
}

// IndexPage is a TSB-tree index node: a set of child entries whose
// rectangles tile the node's own responsibility region (Section 3.4).
type IndexPage struct {
	ID   ID
	LSN  uint64
	Size int // capacity in bytes; not marshalled
	// Level is the height above the data pages: 1 means children are data
	// pages.
	Level uint16
	// Entries is the node's child list in no particular order. Mutate it
	// only through Add, ReplaceChild and SetEntries, which keep cur in step.
	Entries []IndexEntry

	// cur indexes the current entries (HighTS == itime.Max) in LowKey order.
	// Every current rectangle contains t = Max, so their key ranges are
	// disjoint and FindChild can binary-search them. Not marshalled:
	// UnmarshalIndex and every mutator rebuild it; Validate cross-checks it.
	cur []uint16
}

// fixedIndexHeaderLen: id(8) lsn(8) level(2) nentries(2).
const fixedIndexHeaderLen = 8 + 8 + 2 + 2

// NewIndex returns an empty index page at the given level.
func NewIndex(id ID, size int, level uint16) *IndexPage {
	return &IndexPage{ID: id, Size: size, Level: level}
}

// Used returns the exact marshalled size of the page, frame header included.
func (p *IndexPage) Used() int {
	n := PayloadOff + fixedIndexHeaderLen
	for i := range p.Entries {
		n += p.Entries[i].size()
	}
	return n
}

// CanFit reports whether an additional entry e would fit.
func (p *IndexPage) CanFit(e IndexEntry) bool {
	size := p.Size
	if size == 0 {
		size = DefaultSize
	}
	return p.Used()+e.size() <= size
}

// FindChild returns the entry whose rectangle contains (key, ts). Entries'
// rectangles are disjoint within a node, so at most one matches. The current
// entry whose key range holds key is found by binary search; it is the answer
// unless ts lies before its start, which only an AS OF descent through a node
// with historical entries (IndexTSB) asks, and then every entry is scanned.
func (p *IndexPage) FindChild(key []byte, ts itime.Timestamp) (IndexEntry, bool) {
	if e := p.currentFor(key); e != nil && e.R.Contains(key, ts) {
		return *e, true
	}
	for i := range p.Entries {
		if p.Entries[i].R.Contains(key, ts) {
			return p.Entries[i], true
		}
	}
	return IndexEntry{}, false
}

// currentFor returns the current entry whose key range holds key, or nil if
// no current entry does.
func (p *IndexPage) currentFor(key []byte) *IndexEntry {
	j := p.curUpper(key) - 1
	if j < 0 {
		return nil
	}
	if e := &p.Entries[p.cur[j]]; e.R.ContainsKey(key) {
		return e
	}
	return nil
}

// curUpper returns the number of current entries whose LowKey is at or below
// key: the position in cur at which an entry starting at key would go.
func (p *IndexPage) curUpper(key []byte) int {
	lo, hi := 0, len(p.cur)
	for lo < hi {
		m := (lo + hi) / 2
		if lk := p.Entries[p.cur[m]].R.LowKey; lk == nil || bytes.Compare(lk, key) <= 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// compareLow orders LowKeys with nil (unbounded) first.
func compareLow(a, b []byte) int {
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil:
		return -1
	case b == nil:
		return 1
	}
	return bytes.Compare(a, b)
}

// reindex rebuilds cur from Entries.
func (p *IndexPage) reindex() {
	p.cur = p.cur[:0]
	for i := range p.Entries {
		if p.Entries[i].R.HighTS.IsMax() {
			p.cur = append(p.cur, uint16(i))
		}
	}
	ents := p.Entries
	slices.SortFunc(p.cur, func(a, b uint16) int {
		return compareLow(ents[a].R.LowKey, ents[b].R.LowKey)
	})
}

// curInsert adds Entries[i], which must be current, to cur.
func (p *IndexPage) curInsert(i int) {
	lk := p.Entries[i].R.LowKey
	j := 0
	if lk != nil {
		j = p.curUpper(lk)
	}
	p.cur = slices.Insert(p.cur, j, uint16(i))
}

// ChildrenForTime returns all entries whose time interval contains ts and
// whose key interval intersects [loKey, hiKey) — the set of children an
// as-of-ts range scan must visit.
func (p *IndexPage) ChildrenForTime(loKey, hiKey []byte, ts itime.Timestamp) []IndexEntry {
	var out []IndexEntry
	for i := range p.Entries {
		e := &p.Entries[i]
		if e.R.ContainsTime(ts) && e.R.IntersectsKeyRange(loKey, hiKey) {
			out = append(out, *e)
		}
	}
	return out
}

// ChildrenForKey returns all entries whose key interval contains key — the
// children a full-history (time travel) query of one key must visit.
func (p *IndexPage) ChildrenForKey(key []byte) []IndexEntry {
	var out []IndexEntry
	for i := range p.Entries {
		if p.Entries[i].R.ContainsKey(key) {
			out = append(out, p.Entries[i])
		}
	}
	return out
}

// Add appends an entry. The caller is responsible for capacity (CanFit) and
// for keeping sibling rectangles disjoint.
func (p *IndexPage) Add(e IndexEntry) {
	p.Entries = append(p.Entries, e)
	if e.R.HighTS.IsMax() {
		p.curInsert(len(p.Entries) - 1)
	}
}

// SetEntries replaces the whole child list, as an index split does to both
// halves.
func (p *IndexPage) SetEntries(es []IndexEntry) {
	p.Entries = es
	p.reindex()
}

// ReplaceChild rewrites the entry for child old in place. It returns false
// if no entry references old.
func (p *IndexPage) ReplaceChild(old ID, e IndexEntry) bool {
	for i := range p.Entries {
		if p.Entries[i].Child == old {
			if p.Entries[i].R.HighTS.IsMax() {
				p.cur = slices.DeleteFunc(p.cur, func(c uint16) bool { return int(c) == i })
			}
			p.Entries[i] = e
			if e.R.HighTS.IsMax() {
				p.curInsert(i)
			}
			return true
		}
	}
	return false
}

// EntryFor returns the (first) entry pointing at child.
func (p *IndexPage) EntryFor(child ID) (IndexEntry, bool) {
	for i := range p.Entries {
		if p.Entries[i].Child == child {
			return p.Entries[i], true
		}
	}
	return IndexEntry{}, false
}

// Validate checks that entry rectangles are pairwise disjoint and that the
// search view lists exactly the current entries in LowKey order.
func (p *IndexPage) Validate() error {
	ncur := 0
	for i := range p.Entries {
		if p.Entries[i].R.HighTS.IsMax() {
			ncur++
		}
	}
	if ncur != len(p.cur) {
		return fmt.Errorf("index page %d: search view holds %d entries, page has %d current", p.ID, len(p.cur), ncur)
	}
	for j, c := range p.cur {
		if int(c) >= len(p.Entries) || !p.Entries[c].R.HighTS.IsMax() {
			return fmt.Errorf("index page %d: search view slot %d names entry %d, not a current one", p.ID, j, c)
		}
		if j > 0 && compareLow(p.Entries[p.cur[j-1]].R.LowKey, p.Entries[c].R.LowKey) >= 0 {
			return fmt.Errorf("index page %d: search view out of LowKey order at slot %d", p.ID, j)
		}
	}
	for i := range p.Entries {
		for j := i + 1; j < len(p.Entries); j++ {
			a, b := p.Entries[i].R, p.Entries[j].R
			if rectsOverlap(a, b) {
				return fmt.Errorf("index page %d: overlapping rects %v and %v", p.ID, a, b)
			}
		}
	}
	return nil
}

func rectsOverlap(a, b Rect) bool {
	if !a.IntersectsKeyRange(b.LowKey, b.HighKey) {
		return false
	}
	// Time intervals [LowTS, HighTS) with Max meaning open-ended.
	aHi, bHi := a.HighTS, b.HighTS
	if !aHi.IsMax() && !b.LowTS.Less(aHi) {
		return false
	}
	if !bHi.IsMax() && !a.LowTS.Less(bHi) {
		return false
	}
	return true
}
