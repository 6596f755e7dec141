//go:build !race

// The race detector makes sync.Pool drop a quarter of what is put into it,
// so neither the timings nor the allocation counts below mean anything
// under -race; the read path's race coverage is in model_test.go.

package hist

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"immortaldb/internal/itime"
	"immortaldb/internal/storage/vfs"
)

const (
	benchTID  = 7
	benchKeys = 10_000
	benchVers = 20 // versions per key, one per round
	benchRuns = 2  // each holding half the rounds of every key
)

func benchKey(i int) []byte {
	return binary.BigEndian.AppendUint64(nil, uint64(i))
}

// benchTier builds, on the real file system, a tier shaped like the
// repository benchmark's cold workloads: every key rewritten once per round
// with a 16-byte row, the rounds split over runs that all span every key.
func benchTier(tb testing.TB) (*Store, [][]byte) {
	tb.Helper()
	s := NewStore(vfs.OS(), tb.TempDir())
	tb.Cleanup(s.Close)
	m := Manifest{TableID: benchTID, NextSeq: 1}
	var images [][]byte
	for r := 0; r < benchRuns; r++ {
		var es []Entry
		for k := 0; k < benchKeys; k++ {
			for v := r * benchVers / benchRuns; v < (r+1)*benchVers/benchRuns; v++ {
				val := make([]byte, 16)
				binary.BigEndian.PutUint64(val, uint64(k))
				binary.BigEndian.PutUint64(val[8:], uint64(v))
				es = append(es, Entry{Key: benchKey(k), Value: val, TS: ts(int64(100+v), uint32(k))})
			}
		}
		img, meta, err := EncodeRun(benchTID, m.NextSeq, 1, es)
		if err != nil {
			tb.Fatal(err)
		}
		if err := s.WriteRun(benchTID, m.NextSeq, img); err != nil {
			tb.Fatal(err)
		}
		m.Runs = append(m.Runs, meta)
		m.NextSeq++
		images = append(images, img)
	}
	m.Ver = 1
	if err := s.Install(benchTID, m); err != nil {
		tb.Fatal(err)
	}
	return s, images
}

// endOfRound is a time at which exactly rounds 0..v are visible.
func endOfRound(v int) itime.Timestamp { return ts(int64(100+v), ^uint32(0)) }

var benchSink int

func BenchmarkStoreLookup(b *testing.B) {
	s, _ := benchTier(b)
	rng := rand.New(rand.NewSource(1))
	key := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(key, uint64(rng.Intn(benchKeys)))
		v, ok, err := s.Lookup(benchTID, key, endOfRound(rng.Intn(benchVers)))
		if err != nil || !ok {
			b.Fatalf("lookup: ok=%v err=%v", ok, err)
		}
		benchSink += len(v.Value)
	}
}

func BenchmarkStoreScanAsOf200(b *testing.B) {
	s, _ := benchTier(b)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Intn(benchKeys - 200)
		rows := 0
		err := s.ScanAsOf(benchTID, benchKey(lo), benchKey(lo+200), endOfRound(rng.Intn(benchVers)),
			func(_ []byte, v Version) bool { rows++; benchSink += len(v.Value); return true })
		if err != nil || rows != 200 {
			b.Fatalf("scan: %d rows, err=%v", rows, err)
		}
	}
}

func BenchmarkDecodeRun(b *testing.B) {
	_, images := benchTier(b)
	b.SetBytes(int64(len(images[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _, es, err := DecodeRun(images[0])
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(es)
	}
}

// TestReadPathAllocs pins what the cursor is for by a count that repeats
// exactly: a point read allocates the value it returns and little else, a
// scan the value of each row plus a constant — never a block's worth of
// entries.
func TestReadPathAllocs(t *testing.T) {
	s, _ := benchTier(t)
	key := benchKey(benchKeys / 3)
	at := endOfRound(benchVers/2 + 3) // answered by the second run: both are probed

	lookup := testing.AllocsPerRun(200, func() {
		if _, ok, err := s.Lookup(benchTID, key, at); err != nil || !ok {
			t.Fatalf("lookup: ok=%v err=%v", ok, err)
		}
	})
	if lookup > 4 {
		t.Errorf("Lookup: %.0f allocations per call, want <= 4", lookup)
	}

	const rows, constant = 200, 8
	lo, hi := benchKey(4000), benchKey(4000+rows)
	scan := testing.AllocsPerRun(50, func() {
		n := 0
		err := s.ScanAsOf(benchTID, lo, hi, at, func([]byte, Version) bool { n++; return true })
		if err != nil || n != rows {
			t.Fatalf("scan: %d rows, err=%v", n, err)
		}
	})
	if scan > 2*rows+constant {
		t.Errorf("ScanAsOf: %.0f allocations for %d rows, want <= 2 per row + %d", scan, rows, constant)
	}
	t.Logf("allocations: Lookup %.0f, ScanAsOf %.0f for %d rows", lookup, scan, rows)
}
