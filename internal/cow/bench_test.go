package cow

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func benchTree(b *testing.B) *Tree {
	b.Helper()
	dir, err := os.MkdirTemp("", "cowbench")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	tr, err := Open(filepath.Join(dir, "t.cow"), Options{ValSize: 12, NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { tr.Close() })
	return tr
}

// BenchmarkPutAscending is the PTT's hot path: one ascending-TID insert per
// transaction commit.
func BenchmarkPutAscending(b *testing.B) {
	tr := benchTree(b)
	val := make([]byte, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Put(uint64(i+1), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutCommitEvery measures a copy-on-write commit per insert: the
// cost of hardening the timestamp table on every commit.
func BenchmarkPutCommitEvery(b *testing.B) {
	tr := benchTree(b)
	val := make([]byte, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Put(uint64(i+1), val); err != nil {
			b.Fatal(err)
		}
		if err := tr.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetHot(b *testing.B) {
	tr := benchTree(b)
	val := make([]byte, 12)
	for i := 0; i < 10000; i++ {
		tr.Put(uint64(i+1), val)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Get(uint64(i%10000 + 1)); err != nil {
			b.Fatal(fmt.Errorf("get %d: %w", i%10000+1, err))
		}
	}
}
