package hist

// A seeded model test of the cold read path: random multi-run, multi-level
// tiers checked against a naive in-memory oracle. The tiers are built to hit
// what the cursor and the run merge must get right — keys whose versions
// span blocks, delete stubs, one (key, TS) present in two runs, runs that
// start after the time asked for, open and closed scan bounds, early stop.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"immortaldb/internal/itime"
	"immortaldb/internal/storage/vfs"
)

const modelTID = 5

// modelTier is the oracle: every version of every key, ascending in time.
type modelTier struct {
	keys     []string // sorted
	versions map[string][]Version
}

// asOf is the newest version of key at or before at.
func (m *modelTier) asOf(key string, at itime.Timestamp) (Version, bool) {
	var best Version
	found := false
	for _, v := range m.versions[key] {
		if !v.TS.After(at) {
			best, found = v, true
		}
	}
	return best, found
}

func sameVersion(a, b Version) bool {
	return a.TS == b.TS && a.Stub == b.Stub && bytes.Equal(a.Value, b.Value)
}

// buildModelTier installs 2–6 runs of random levels. Every version lands in
// one run, one in five also in a second; on odd seeds a version's run
// follows its time, so late runs have a MinTS above early reads.
func buildModelTier(t *testing.T, seed int64) (*Store, *modelTier) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := &modelTier{versions: map[string][]Version{}}
	nRuns := 2 + rng.Intn(5)
	runs := make([][]Entry, nRuns)
	const maxWall = 1000
	for k, nKeys := 0, 20+rng.Intn(40); k < nKeys; k++ {
		key := fmt.Sprintf("user/%02d/%04d", k%7, k)
		if k%11 == 0 {
			key += "/with-a-long-tail-that-prefix-compresses-away"
		}
		// Most keys have a few short versions; some have enough long ones to
		// span several 4 KB blocks.
		nVers, valLen := 1+rng.Intn(5), 8+rng.Intn(40)
		if rng.Intn(6) == 0 {
			nVers, valLen = 15+rng.Intn(25), 300+rng.Intn(600)
		}
		walls := rng.Perm(maxWall)[:nVers]
		sort.Ints(walls)
		for i, w := range walls {
			v := Version{TS: ts(int64(w+1), uint32(rng.Intn(3))), Stub: rng.Intn(7) == 0}
			if !v.Stub {
				v.Value = bytes.Repeat([]byte{byte('a' + i%26)}, valLen)
				copy(v.Value, fmt.Sprintf("%s@%d", key, w))
			}
			m.versions[key] = append(m.versions[key], v)
			e := Entry{Key: []byte(key), Value: v.Value, TS: v.TS, Stub: v.Stub}
			r := rng.Intn(nRuns)
			if seed%2 == 1 {
				r = w * nRuns / maxWall
			}
			runs[r] = append(runs[r], e)
			if rng.Intn(5) == 0 {
				r2 := rng.Intn(nRuns)
				if r2 != r {
					runs[r2] = append(runs[r2], e)
				}
			}
		}
		m.keys = append(m.keys, key)
	}
	sort.Strings(m.keys)

	s := NewStore(vfs.NewSim(seed), "db")
	t.Cleanup(s.Close)
	man := Manifest{Ver: 1, TableID: modelTID, NextSeq: 1}
	for _, es := range runs {
		if len(es) == 0 {
			continue
		}
		img, meta, err := EncodeRun(modelTID, man.NextSeq, uint8(rng.Intn(3)), es)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteRun(modelTID, man.NextSeq, img); err != nil {
			t.Fatal(err)
		}
		man.Runs = append(man.Runs, meta)
		man.NextSeq++
	}
	if err := s.Install(modelTID, man); err != nil {
		t.Fatal(err)
	}
	return s, m
}

// probeTimes are the times worth asking about for one key: each version's
// own time, just before it, before everything and the end of time.
func probeTimes(vs []Version) []itime.Timestamp {
	out := []itime.Timestamp{{}, itime.Max}
	for _, v := range vs {
		out = append(out, v.TS, itime.Timestamp{Wall: v.TS.Wall - 1, Seq: ^uint32(0)})
	}
	return out
}

// checkModelReads compares all four read methods with the oracle. Values
// the store returned are kept without copying and re-checked at the end:
// later reads reuse the pooled buffers and must not reach into them.
func checkModelReads(s *Store, m *modelTier, rng *rand.Rand) error {
	type kept struct{ got, want Version }
	var keep []kept

	absent := []string{"", "user/00", "user/03/zzzz", "zzz"}
	for _, key := range append(absent, m.keys...) {
		want := m.versions[key]
		for _, at := range probeTimes(want) {
			wv, wok := m.asOf(key, at)
			gv, gok, err := s.Lookup(modelTID, []byte(key), at)
			if err != nil || gok != wok || gok && !sameVersion(gv, wv) {
				return fmt.Errorf("Lookup(%q, %v) = %v %v %v, want %v %v", key, at, gv.TS, gok, err, wv.TS, wok)
			}
			if gok {
				keep = append(keep, kept{gv, wv})
			}
		}
		gv, gok, err := s.Newest(modelTID, []byte(key))
		if err != nil || gok != (len(want) > 0) || gok && !sameVersion(gv, want[len(want)-1]) {
			return fmt.Errorf("Newest(%q) = %v %v %v", key, gv.TS, gok, err)
		}
		hist, err := s.KeyHistory(modelTID, []byte(key))
		if err != nil || len(hist) != len(want) {
			return fmt.Errorf("KeyHistory(%q): %d versions, err=%v, want %d", key, len(hist), err, len(want))
		}
		for i, gv := range hist {
			if wv := want[len(want)-1-i]; !sameVersion(gv, wv) {
				return fmt.Errorf("KeyHistory(%q)[%d] = %v, want %v", key, i, gv.TS, wv.TS)
			}
			keep = append(keep, kept{gv, want[len(want)-1-i]})
		}
	}

	bound := func() []byte {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return []byte(fmt.Sprintf("user/%02d", rng.Intn(8))) // between keys
		default:
			return []byte(m.keys[rng.Intn(len(m.keys))])
		}
	}
	for i := 0; i < 60; i++ {
		lo, hi := bound(), bound()
		at := itime.Timestamp{Wall: int64(rng.Intn(1100)), Seq: uint32(rng.Intn(3))}
		if i%10 == 0 {
			at = itime.Max
		}
		type row struct {
			key string
			v   Version
		}
		var want []row
		for _, key := range m.keys {
			if lo != nil && key < string(lo) || hi != nil && key >= string(hi) {
				continue
			}
			if v, ok := m.asOf(key, at); ok {
				want = append(want, row{key, v})
			}
		}
		stopAfter := -1 // never
		if len(want) > 0 && i%3 == 0 {
			stopAfter = 1 + rng.Intn(len(want))
			want = want[:stopAfter]
		}
		var got []row
		err := s.ScanAsOf(modelTID, lo, hi, at, func(k []byte, v Version) bool {
			got = append(got, row{string(k), v})
			return len(got) != stopAfter
		})
		if err != nil || len(got) != len(want) {
			return fmt.Errorf("ScanAsOf(%q, %q, %v) stop=%d: %d rows, err=%v, want %d", lo, hi, at, stopAfter, len(got), err, len(want))
		}
		for j := range got {
			if got[j].key != want[j].key || !sameVersion(got[j].v, want[j].v) {
				return fmt.Errorf("ScanAsOf(%q, %q, %v) row %d = %q %v, want %q %v",
					lo, hi, at, j, got[j].key, got[j].v.TS, want[j].key, want[j].v.TS)
			}
			keep = append(keep, kept{got[j].v, want[j].v})
		}
	}

	for _, k := range keep {
		if !sameVersion(k.got, k.want) {
			return fmt.Errorf("a value returned earlier changed under later reads: version %v", k.want.TS)
		}
	}
	return nil
}

func TestReadPathAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		s, m := buildModelTier(t, seed)
		if err := checkModelReads(s, m, rand.New(rand.NewSource(seed))); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestReadPathConcurrentReaders shares the pooled iterators between readers
// of one tier; run under -race it checks that no buffer is handed to two.
func TestReadPathConcurrentReaders(t *testing.T) {
	s, m := buildModelTier(t, 3)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if err := checkModelReads(s, m, rand.New(rand.NewSource(int64(g)))); err != nil {
				t.Errorf("reader %d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
}
