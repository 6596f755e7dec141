package page

import (
	"fmt"
	"testing"

	"immortaldb/internal/itime"
)

// buildBenchPage fills a default-size page with stamped version chains: 60
// keys, 200 versions.
func buildBenchPage(b testing.TB) *DataPage {
	b.Helper()
	p := NewData(1, DefaultSize)
	i := 0
	for {
		k := []byte(fmt.Sprintf("key-%03d", i%60))
		if err := p.Insert(k, []byte("payload-123456"), false, itime.TID(i+1)); err != nil {
			break
		}
		i++
	}
	p.StampAll(func(tid itime.TID) (itime.Timestamp, bool) {
		return itime.Timestamp{Wall: int64(tid)}, true
	})
	return p
}

// buildBenchIndex fills a default-size index page with current entries over
// consecutive keys: 143 of them.
func buildBenchIndex() *IndexPage {
	ip := NewIndex(3, DefaultSize, 1)
	for i := 0; ; i++ {
		e := IndexEntry{R: Rect{LowKey: key(i), HighKey: key(i + 1), HighTS: itime.Max}, Child: ID(10 + i), Leaf: true}
		if !ip.CanFit(e) {
			return ip
		}
		ip.Add(e)
	}
}

// BenchmarkFindChild is one step of a current descent: the child of a full
// index node that holds a key, at itime.Max.
func BenchmarkFindChild(b *testing.B) {
	ip := buildBenchIndex()
	n := len(ip.Entries)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i*37%n]
		if e, ok := ip.FindChild(k, itime.Max); !ok || !e.R.ContainsKey(k) {
			b.Fatalf("FindChild(%q) = %v, %v", k, e.R, ok)
		}
	}
}

func BenchmarkPageInsert(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%150 == 0 {
			b.StopTimer()
			bp := NewData(1, DefaultSize)
			b.StartTimer()
			benchSink = bp
		}
		p := benchSink.(*DataPage)
		k := []byte(fmt.Sprintf("key-%03d", i%60))
		if err := p.Insert(k, []byte("payload-123456"), false, 1); err != nil {
			b.StopTimer()
			benchSink = NewData(1, DefaultSize)
			b.StartTimer()
		}
	}
}

var benchSink any = NewData(1, DefaultSize)

func BenchmarkVersionAsOf(b *testing.B) {
	p := buildBenchPage(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := i % p.NumKeys()
		if _, ok := p.VersionAsOf(s, itime.Timestamp{Wall: int64(i%200 + 1)}); !ok && i > 400 {
			// Early timestamps may precede the key's first version.
			_ = ok
		}
	}
}

func BenchmarkMarshalUnmarshal(b *testing.B) {
	p := buildBenchPage(b)
	// Reusing buf is safe only because each decoded page, which aliases it,
	// is dropped before the next Marshal overwrites it.
	buf := make([]byte, DefaultSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Marshal(buf); err != nil {
			b.Fatal(err)
		}
		if _, err := UnmarshalData(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTimeSplit(b *testing.B) {
	proto := buildBenchPage(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cp := *proto
		cp.Recs = append([]Version(nil), proto.Recs...)
		cp.Slots = append([]int16(nil), proto.Slots...)
		cp.invalidateUsed()
		b.StartTimer()
		if _, err := cp.TimeSplit(itime.Timestamp{Wall: 1 << 40}, 2); err != nil {
			b.Fatal(err)
		}
	}
}
