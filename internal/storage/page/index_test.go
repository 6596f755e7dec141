package page

import (
	"fmt"
	"math/rand"
	"testing"

	"immortaldb/internal/itime"
)

func rect(lo, hi string, t0, t1 int64) Rect {
	r := Rect{LowTS: ts(t0, 0)}
	if t1 < 0 {
		r.HighTS = itime.Max
	} else {
		r.HighTS = ts(t1, 0)
	}
	if lo != "-" {
		r.LowKey = []byte(lo)
	}
	if hi != "-" {
		r.HighKey = []byte(hi)
	}
	return r
}

func TestRectContains(t *testing.T) {
	r := rect("b", "m", 10, 50)
	cases := []struct {
		key  string
		at   int64
		want bool
	}{
		{"b", 10, true},
		{"b", 9, false},
		{"a", 20, false},
		{"m", 20, false},
		{"lzz", 49, true},
		{"lzz", 50, false},
	}
	for _, c := range cases {
		if got := r.Contains([]byte(c.key), ts(c.at, 0)); got != c.want {
			t.Errorf("Contains(%q,%d) = %v, want %v", c.key, c.at, got, c.want)
		}
	}
}

func TestRectOpenEnded(t *testing.T) {
	r := rect("-", "-", 10, -1)
	if !r.Contains([]byte("anything"), itime.Max) {
		t.Fatal("current rect must contain the 'now' point (Max)")
	}
	if !r.Contains([]byte(""), ts(10, 0)) {
		t.Fatal("unbounded key range must contain empty key")
	}
	closed := rect("-", "-", 10, 50)
	if closed.ContainsTime(itime.Max) {
		t.Fatal("closed rect must not contain Max")
	}
}

func TestRectIntersectsKeyRange(t *testing.T) {
	r := rect("d", "m", 0, -1)
	cases := []struct {
		lo, hi string
		want   bool
	}{
		{"a", "c", false},
		{"a", "d", false}, // hi exclusive
		{"a", "e", true},
		{"f", "g", true},
		{"m", "z", false}, // r.HighKey exclusive
		{"l", "z", true},
		{"-", "-", true},
	}
	for _, c := range cases {
		var lo, hi []byte
		if c.lo != "-" {
			lo = []byte(c.lo)
		}
		if c.hi != "-" {
			hi = []byte(c.hi)
		}
		if got := r.IntersectsKeyRange(lo, hi); got != c.want {
			t.Errorf("IntersectsKeyRange(%q,%q) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}

func TestIndexPageFindChild(t *testing.T) {
	p := NewIndex(1, DefaultSize, 1)
	// A current page split history: hist page [t0,t50) over all keys, then
	// current key-split at "m": two current pages from t50.
	p.Add(IndexEntry{R: rect("-", "-", 0, 50), Child: 10, Leaf: true})
	p.Add(IndexEntry{R: rect("-", "m", 50, -1), Child: 11, Leaf: true})
	p.Add(IndexEntry{R: rect("m", "-", 50, -1), Child: 12, Leaf: true})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		key  string
		at   int64
		want ID
	}{
		{"a", 10, 10},
		{"z", 49, 10},
		{"a", 50, 11},
		{"z", 50, 12},
	}
	for _, c := range cases {
		e, ok := p.FindChild([]byte(c.key), ts(c.at, 0))
		if !ok || e.Child != c.want {
			t.Errorf("FindChild(%q,%d) = %v,%v want child %d", c.key, c.at, e.Child, ok, c.want)
		}
	}
	// Current state lookup uses Max.
	if e, ok := p.FindChild([]byte("q"), itime.Max); !ok || e.Child != 12 {
		t.Errorf("FindChild at Max = %v,%v", e.Child, ok)
	}
}

// TestFindChildCurrentNeedsNoScan checks the binary search itself: on a
// node whose current entries tile the key space (added in shuffled order,
// with historical entries between them), every key finds its current entry
// without the fallback scan.
func TestFindChildCurrentNeedsNoScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bounds := []string{"-"}
	for i := 1; i < 40; i++ {
		bounds = append(bounds, fmt.Sprintf("k%03d", i*5))
	}
	bounds = append(bounds, "-")
	var es []IndexEntry
	for i := 0; i+1 < len(bounds); i++ {
		es = append(es,
			IndexEntry{R: rect(bounds[i], bounds[i+1], 0, 50), Child: ID(2*i + 1), Leaf: true},
			IndexEntry{R: rect(bounds[i], bounds[i+1], 50, -1), Child: ID(2*i + 2), Leaf: true})
	}
	rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	p := NewIndex(1, DefaultSize, 1)
	for _, e := range es {
		p.Add(e)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 200; i++ {
		for _, k := range [][]byte{[]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("k%03d\x00", i))} {
			e := p.currentFor(k)
			if e == nil || !e.R.Contains(k, itime.Max) {
				t.Fatalf("currentFor(%q) = %v, want the current entry holding it", k, e)
			}
		}
	}
}

func TestIndexPageChildrenForTime(t *testing.T) {
	p := NewIndex(1, DefaultSize, 1)
	p.Add(IndexEntry{R: rect("-", "m", 0, 50), Child: 1, Leaf: true})
	p.Add(IndexEntry{R: rect("m", "-", 0, 50), Child: 2, Leaf: true})
	p.Add(IndexEntry{R: rect("-", "-", 50, -1), Child: 3, Leaf: true})
	got := p.ChildrenForTime(nil, nil, ts(10, 0))
	if len(got) != 2 {
		t.Fatalf("full scan at t=10 should visit 2 children, got %d", len(got))
	}
	got = p.ChildrenForTime([]byte("a"), []byte("b"), ts(10, 0))
	if len(got) != 1 || got[0].Child != 1 {
		t.Fatalf("narrow scan = %+v", got)
	}
	got = p.ChildrenForTime(nil, nil, itime.Max)
	if len(got) != 1 || got[0].Child != 3 {
		t.Fatalf("current scan = %+v", got)
	}
}

func TestIndexPageChildrenForKey(t *testing.T) {
	p := NewIndex(1, DefaultSize, 1)
	p.Add(IndexEntry{R: rect("-", "m", 0, 50), Child: 1, Leaf: true})
	p.Add(IndexEntry{R: rect("m", "-", 0, 50), Child: 2, Leaf: true})
	p.Add(IndexEntry{R: rect("-", "-", 50, -1), Child: 3, Leaf: true})
	got := p.ChildrenForKey([]byte("z"))
	if len(got) != 2 {
		t.Fatalf("time travel of 'z' should visit 2 children, got %d", len(got))
	}
}

func TestIndexPageReplaceAndEntryFor(t *testing.T) {
	p := NewIndex(1, DefaultSize, 1)
	p.Add(IndexEntry{R: rect("-", "-", 0, -1), Child: 10, Leaf: true})
	e, ok := p.EntryFor(10)
	if !ok || e.Child != 10 {
		t.Fatal("EntryFor failed")
	}
	if !p.ReplaceChild(10, IndexEntry{R: rect("-", "-", 50, -1), Child: 20, Leaf: true}) {
		t.Fatal("ReplaceChild failed")
	}
	if _, ok := p.EntryFor(10); ok {
		t.Fatal("old child still present")
	}
	if p.ReplaceChild(99, IndexEntry{}) {
		t.Fatal("ReplaceChild of missing child succeeded")
	}
}

func TestIndexValidateOverlap(t *testing.T) {
	p := NewIndex(1, DefaultSize, 1)
	p.Add(IndexEntry{R: rect("-", "m", 0, -1), Child: 1, Leaf: true})
	p.Add(IndexEntry{R: rect("l", "-", 0, -1), Child: 2, Leaf: true})
	if err := p.Validate(); err == nil {
		t.Fatal("overlapping rects not detected")
	}
	// Touching rects do not overlap.
	p.SetEntries(nil)
	p.Add(IndexEntry{R: rect("-", "m", 0, 50), Child: 1, Leaf: true})
	p.Add(IndexEntry{R: rect("m", "-", 0, 50), Child: 2, Leaf: true})
	p.Add(IndexEntry{R: rect("-", "-", 50, -1), Child: 3, Leaf: true})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIndexCanFit(t *testing.T) {
	p := NewIndex(1, MinSize, 1)
	e := IndexEntry{R: rect("aaaaaaaa", "bbbbbbbb", 0, -1), Child: 1, Leaf: true}
	n := 0
	for p.CanFit(e) {
		p.Add(e)
		n++
		if n > 1000 {
			t.Fatal("CanFit never said no")
		}
	}
	if n == 0 {
		t.Fatal("nothing fit")
	}
	buf := make([]byte, MinSize)
	if err := p.Marshal(buf); err != nil {
		t.Fatalf("page that CanFit approved does not marshal: %v", err)
	}
}
