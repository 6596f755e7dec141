package tsb

import (
	"fmt"
	"math/rand"
	"testing"

	"immortaldb/internal/itime"
	"immortaldb/internal/storage/page"
)

// linearFindChild is the reference descent step: the first entry, in stored
// order, whose rectangle contains (key, ts).
func linearFindChild(ip *page.IndexPage, key []byte, ts itime.Timestamp) (page.IndexEntry, bool) {
	for _, e := range ip.Entries {
		if e.R.Contains(key, ts) {
			return e, true
		}
	}
	return page.IndexEntry{}, false
}

// checkFindChild probes ip at every entry boundary (and just past each key
// boundary, just before each time boundary, at time zero and at itime.Max),
// plus extra keys, and fails on the first probe where FindChild and the
// linear reference disagree. It also checks the same page after a marshal
// round trip, the path every page fetched from disk takes.
func checkFindChild(t *testing.T, label string, ip *page.IndexPage, extra [][]byte) {
	t.Helper()
	if err := ip.Validate(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	buf := make([]byte, page.DefaultSize)
	if err := ip.Marshal(buf); err != nil {
		t.Fatalf("%s: marshal: %v", label, err)
	}
	decoded, err := page.UnmarshalIndex(buf)
	if err != nil {
		t.Fatalf("%s: unmarshal: %v", label, err)
	}
	if err := decoded.Validate(); err != nil {
		t.Fatalf("%s: decoded: %v", label, err)
	}
	keys := append([][]byte{{}}, extra...)
	times := []itime.Timestamp{{}, itime.Max}
	for _, e := range ip.Entries {
		for _, k := range [][]byte{e.R.LowKey, e.R.HighKey} {
			if k != nil {
				keys = append(keys, k, append(append([]byte(nil), k...), 0))
			}
		}
		for _, ts := range []itime.Timestamp{e.R.LowTS, e.R.HighTS} {
			if !ts.IsMax() && !ts.IsZero() {
				times = append(times, ts, verJustBefore(ts))
			}
		}
	}
	// Every key at itime.Max (the current descent), and every key-time pair,
	// or a fixed-seed sample of them on a big page.
	type probe struct {
		key []byte
		ts  itime.Timestamp
	}
	var probes []probe
	for _, k := range keys {
		probes = append(probes, probe{k, itime.Max})
	}
	if len(keys)*len(times) <= maxProbes {
		for _, k := range keys {
			for _, ts := range times {
				probes = append(probes, probe{k, ts})
			}
		}
	} else {
		rng := rand.New(rand.NewSource(int64(len(keys))))
		for i := 0; i < maxProbes; i++ {
			probes = append(probes, probe{keys[rng.Intn(len(keys))], times[rng.Intn(len(times))]})
		}
	}
	for _, p := range []*page.IndexPage{ip, decoded} {
		for _, pr := range probes {
			got, gok := p.FindChild(pr.key, pr.ts)
			want, wok := linearFindChild(ip, pr.key, pr.ts)
			if gok != wok || got.Child != want.Child {
				t.Fatalf("%s: FindChild(%q, %v) = child %d (%v), linear scan child %d (%v)",
					label, pr.key, pr.ts, got.Child, gok, want.Child, wok)
			}
		}
	}
}

// maxProbes bounds the key-time pairs checkFindChild tries on one page.
const maxProbes = 2000

// TestFindChildAgreesWithLinearScan is the differential test of the index
// descent: FindChild's binary search over the current entries must pick the
// same child as a scan of every entry, on the index pages real splits build
// in both modes and on random tilings assembled in shuffled order through
// every mutator.
func TestFindChildAgreesWithLinearScan(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode Mode
	}{{"chain", ModeChain}, {"tsb", ModeTSB}} {
		mode := tc.mode
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, mode, 512, true)
			rng := rand.New(rand.NewSource(7))
			var extra [][]byte
			for i := 0; i < 1500; i++ {
				k := fmt.Sprintf("key-%03d", rng.Intn(80))
				h.write(k, fmt.Sprintf("v%d", i), rng.Intn(10) == 0)
				if i < 80 {
					extra = append(extra, []byte(k))
				}
			}
			root, rootIsLeaf := h.tree.Root()
			if rootIsLeaf {
				t.Fatal("tree never grew an index")
			}
			pool := h.tree.cfg.Pool
			seen := map[page.ID]bool{}
			pages, hist := 0, 0
			var walk func(id page.ID)
			walk = func(id page.ID) {
				if seen[id] {
					return
				}
				seen[id] = true
				f, err := pool.Fetch(id)
				if err != nil {
					t.Fatal(err)
				}
				defer pool.Release(f)
				ip := f.Index()
				if ip == nil {
					return
				}
				pages++
				for _, e := range ip.Entries {
					if !e.R.HighTS.IsMax() {
						hist++
					}
				}
				checkFindChild(t, fmt.Sprintf("index page %d", id), ip, extra)
				for _, e := range ip.Entries {
					walk(e.Child)
				}
			}
			walk(root)
			if pages < 2 {
				t.Fatalf("only %d index pages: the tree never split an index node", pages)
			}
			if mode == ModeTSB && hist == 0 {
				t.Fatal("no historical index entry: AS OF probes never reach the fallback scan")
			}
			t.Logf("%d index pages, %d historical entries", pages, hist)
		})
	}

	t.Run("shuffled", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for round := 0; round < 40; round++ {
			ip := randomTiling(rng, 1+rng.Intn(120))
			label := fmt.Sprintf("round %d", round)
			checkFindChild(t, label+" (split by ReplaceChild and Add)", ip, nil)

			shuffled := append([]page.IndexEntry(nil), ip.Entries...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			added := page.NewIndex(2, page.DefaultSize, 1)
			for _, e := range shuffled {
				added.Add(e)
			}
			checkFindChild(t, label+" (shuffled Add)", added, nil)
			set := page.NewIndex(3, page.DefaultSize, 1)
			set.SetEntries(shuffled)
			checkFindChild(t, label+" (shuffled SetEntries)", set, nil)
		}
	})
}

// randomTiling builds an index page over all keys and all time by repeated
// splits of random entries, the way the tree splits a child: the split
// entry is rewritten in place with ReplaceChild and its other half added
// with Add. Keys are six-digit strings; a key split cuts at a key strictly
// inside the entry, a time split at a time strictly inside it (current
// entries count as ending 1000 ticks after they start).
func randomTiling(rng *rand.Rand, n int) *page.IndexPage {
	const keySpace = 100000
	key := func(k int) []byte {
		if k == 0 || k == keySpace {
			return nil
		}
		return []byte(fmt.Sprintf("%06d", k))
	}
	bound := func(b []byte, unbounded int) int {
		if b == nil {
			return unbounded
		}
		var k int
		fmt.Sscanf(string(b), "%d", &k)
		return k
	}
	ip := page.NewIndex(1, page.DefaultSize, 1)
	ip.Add(page.IndexEntry{R: page.Rect{HighTS: itime.Max}, Child: 1, Leaf: true})
	next := page.ID(2)
	for tries := 0; len(ip.Entries) < n && tries < 100*n; tries++ {
		e := ip.Entries[rng.Intn(len(ip.Entries))]
		a, b := e, e
		b.Child = next
		if rng.Intn(2) == 0 {
			lo, hi := bound(e.R.LowKey, 0), bound(e.R.HighKey, keySpace)
			if hi-lo < 2 {
				continue
			}
			k := key(lo + 1 + rng.Intn(hi-lo-1))
			a.R.HighKey, b.R.LowKey = k, k
		} else {
			lo := e.R.LowTS.Wall
			hi := e.R.HighTS.Wall
			if e.R.HighTS.IsMax() {
				hi = lo + 1000
			}
			if hi-lo < 2 {
				continue
			}
			ts := itime.Timestamp{Wall: lo + 1 + rng.Int63n(hi-lo-1)}
			a.R.HighTS, b.R.LowTS = ts, ts
		}
		if !ip.ReplaceChild(e.Child, a) {
			panic("randomTiling: lost an entry")
		}
		ip.Add(b)
		next++
	}
	return ip
}
