package page

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"immortaldb/internal/itime"
)

func TestDataPageRoundTrip(t *testing.T) {
	p := NewData(42, DefaultSize)
	p.LSN = 12345
	p.Hist = 7
	p.StartTS = ts(100, 2)
	p.LowKey = []byte("aaa")
	p.HighKey = []byte("zzz")
	mustInsert(t, p, []byte("bob"), []byte("v1"), 1)
	stampTID(p, 1, ts(110, 0))
	mustInsert(t, p, []byte("bob"), []byte("v2"), 2)
	stampTID(p, 2, ts(120, 5))
	mustInsert(t, p, []byte("carol"), nil, 3) // pending stub with TID

	buf := make([]byte, DefaultSize)
	if err := p.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	if TypeOf(buf) != TypeData {
		t.Fatal("type byte not set")
	}
	got, err := UnmarshalData(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(p), normalize(got)) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", p, got)
	}
	if got.Used() != p.Used() {
		t.Fatalf("Used changed: %d -> %d", p.Used(), got.Used())
	}
}

// normalize clears fields legitimately differing across a round trip
// (nothing today; it also canonicalizes empty vs nil values).
func normalize(p *DataPage) *DataPage {
	q := *p
	q.cachedUsed = -1 // memoization state is not part of page identity
	q.Recs = append([]Version(nil), p.Recs...)
	for i := range q.Recs {
		if len(q.Recs[i].Value) == 0 {
			q.Recs[i].Value = nil
		}
		if len(q.Recs[i].Key) == 0 {
			q.Recs[i].Key = nil
		}
	}
	return &q
}

func TestDataPageRoundTripNilVsEmptyFences(t *testing.T) {
	p := NewData(1, DefaultSize)
	p.LowKey = []byte{} // present but empty
	p.HighKey = nil     // unbounded
	buf := make([]byte, DefaultSize)
	if err := p.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalData(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.LowKey == nil || len(got.LowKey) != 0 {
		t.Fatalf("empty fence decoded as %v", got.LowKey)
	}
	if got.HighKey != nil {
		t.Fatalf("nil fence decoded as %v", got.HighKey)
	}
}

func TestNoTailRoundTrip(t *testing.T) {
	p := NewData(1, DefaultSize)
	p.NoTail = true
	if err := p.Insert([]byte("k"), []byte("v"), false, 0); err != nil {
		t.Fatal(err)
	}
	withTail := NewData(1, DefaultSize)
	if err := withTail.Insert([]byte("k"), []byte("v"), false, 0); err != nil {
		t.Fatal(err)
	}
	if p.Used() != withTail.Used()-TailLen {
		t.Fatalf("NoTail must save exactly TailLen bytes: %d vs %d", p.Used(), withTail.Used())
	}
	buf := make([]byte, DefaultSize)
	if err := p.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalData(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.NoTail || got.NumKeys() != 1 {
		t.Fatalf("NoTail round trip: %+v", got)
	}
	if got.Recs[0].Prev != NoPrev {
		t.Fatal("NoTail record must have no chain")
	}
}

func TestUsedMatchesMarshalledSize(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewData(ID(rng.Uint64()), DefaultSize)
		if rng.Intn(2) == 0 {
			p.LowKey = randBytes(rng, rng.Intn(20))
		}
		if rng.Intn(2) == 0 {
			p.HighKey = randBytes(rng, rng.Intn(20))
		}
		for i := 0; i < rng.Intn(60); i++ {
			k := randBytes(rng, 1+rng.Intn(15))
			v := randBytes(rng, rng.Intn(40))
			if err := p.Insert(k, v, rng.Intn(9) == 0, itime.TID(rng.Intn(5)+1)); err != nil {
				return true // page full is fine; skip
			}
		}
		buf := make([]byte, DefaultSize)
		if err := p.Marshal(buf); err != nil {
			return false
		}
		got, err := UnmarshalData(buf)
		if err != nil {
			return false
		}
		return got.Used() == p.Used()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDataPageCorruptionDetected(t *testing.T) {
	p := NewData(1, DefaultSize)
	mustInsert(t, p, []byte("k"), []byte("v"), 1)
	buf := make([]byte, DefaultSize)
	if err := p.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	// Wrong type byte.
	bad := append([]byte(nil), buf...)
	bad[TypeOff] = byte(TypeIndex)
	if _, err := UnmarshalData(bad); err == nil {
		t.Fatal("wrong type accepted")
	}
	// Implausible record count.
	bad = append([]byte(nil), buf...)
	bad[PayloadOff+8+1+8+8+12+12] = 0xFF
	bad[PayloadOff+8+1+8+8+12+12+1] = 0xFF
	if _, err := UnmarshalData(bad); err == nil {
		t.Fatal("implausible record count accepted")
	}
	// Truncated buffer.
	if _, err := UnmarshalData(buf[:16]); err == nil {
		t.Fatal("truncated buffer accepted")
	}
}

func TestIndexPageRoundTrip(t *testing.T) {
	p := NewIndex(9, DefaultSize, 2)
	p.LSN = 99
	p.Add(IndexEntry{
		R:     Rect{LowKey: nil, HighKey: []byte("m"), LowTS: ts(0, 0), HighTS: ts(50, 0)},
		Child: 3,
		Leaf:  true,
	})
	p.Add(IndexEntry{
		R:     Rect{LowKey: []byte("m"), HighKey: nil, LowTS: ts(50, 0), HighTS: itime.Max},
		Child: 4,
		Leaf:  false,
	})
	buf := make([]byte, DefaultSize)
	if err := p.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalIndex(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", p, got)
	}
	if got.Used() != p.Used() {
		t.Fatalf("Used changed: %d -> %d", p.Used(), got.Used())
	}
}

// TestDecodeAllocs gates decode allocations on full default-size pages: the
// page, its record or entry slice and its slot slice, whatever the number of
// records. Before keys and values aliased the decode buffer, the 200-record
// data page took 403 allocations (2·nrecs+3) and the 143-entry index page
// 288 (2·nentries+2).
func TestDecodeAllocs(t *testing.T) {
	dbuf := make([]byte, DefaultSize)
	if err := buildBenchPage(t).Marshal(dbuf); err != nil {
		t.Fatal(err)
	}
	ibuf := make([]byte, DefaultSize)
	if err := buildBenchIndex().Marshal(ibuf); err != nil {
		t.Fatal(err)
	}
	var nrecs, nentries int
	if n := testing.AllocsPerRun(50, func() {
		p, err := UnmarshalData(dbuf)
		if err != nil {
			t.Fatal(err)
		}
		nrecs = len(p.Recs)
	}); n > 3 {
		t.Errorf("UnmarshalData of a %d-record page: %.0f allocations, want <= 3", nrecs, n)
	}
	if n := testing.AllocsPerRun(50, func() {
		p, err := UnmarshalIndex(ibuf)
		if err != nil {
			t.Fatal(err)
		}
		nentries = len(p.Entries)
	}); n > 3 {
		t.Errorf("UnmarshalIndex of a %d-entry page: %.0f allocations, want <= 3", nentries, n)
	}
	if nrecs != 200 || nentries != 143 {
		t.Fatalf("pages hold %d records and %d entries; the comment above assumes 200 and 143", nrecs, nentries)
	}
}

// TestHeaderReadersAgreeWithDecode checks DataHeader and ImageLSN against a
// full decode, and that both refuse what they cannot parse.
func TestHeaderReadersAgreeWithDecode(t *testing.T) {
	p := richDataPage(t)
	buf := make([]byte, DefaultSize)
	if err := p.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	start, hist, err := DataHeader(buf)
	if err != nil || start != p.StartTS || hist != p.Hist {
		t.Fatalf("DataHeader = (%v, %d, %v), want (%v, %d, nil)", start, hist, err, p.StartTS, p.Hist)
	}
	if lsn, ok := ImageLSN(buf); !ok || lsn != p.LSN {
		t.Fatalf("ImageLSN of a data page = (%d, %v), want (%d, true)", lsn, ok, p.LSN)
	}
	if _, _, err := DataHeader(buf[:PayloadOff+fixedDataHeaderLen-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DataHeader of a truncated header: %v, want ErrCorrupt", err)
	}
	if _, ok := ImageLSN(buf[:PayloadOff+fixedDataHeaderLen-1]); ok {
		t.Fatal("ImageLSN accepted a truncated data header")
	}

	ip := NewIndex(4, DefaultSize, 1)
	ip.LSN = 123
	if err := ip.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DataHeader(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DataHeader of an index page: %v, want ErrCorrupt", err)
	}
	if lsn, ok := ImageLSN(buf); !ok || lsn != 123 {
		t.Fatalf("ImageLSN of an index page = (%d, %v), want (123, true)", lsn, ok)
	}
	buf[TypeOff] = byte(TypeFree)
	if _, ok := ImageLSN(buf); ok {
		t.Fatal("ImageLSN accepted a free page")
	}
}

func TestBlobRoundTrip(t *testing.T) {
	data := bytes.Repeat([]byte("catalog"), 100)
	p := &BlobPage{ID: 5, Next: 6, Data: data}
	buf := make([]byte, DefaultSize)
	if err := p.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBlob(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 5 || got.Next != 6 || !bytes.Equal(got.Data, data) {
		t.Fatalf("blob round trip: %+v", got)
	}
	if BlobCapacity(DefaultSize) != DefaultSize-PayloadOff-20 {
		t.Fatalf("BlobCapacity = %d", BlobCapacity(DefaultSize))
	}
	big := &BlobPage{ID: 1, Data: make([]byte, BlobCapacity(DefaultSize)+1)}
	if err := big.Marshal(buf); err == nil {
		t.Fatal("oversized blob accepted")
	}
}

func TestUnmarshalDispatch(t *testing.T) {
	buf := make([]byte, DefaultSize)
	p := NewData(1, DefaultSize)
	if err := p.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	if v, err := Unmarshal(buf); err != nil {
		t.Fatal(err)
	} else if _, ok := v.(*DataPage); !ok {
		t.Fatalf("dispatch returned %T", v)
	}
	ix := NewIndex(2, DefaultSize, 1)
	if err := ix.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	if v, err := Unmarshal(buf); err != nil {
		t.Fatal(err)
	} else if _, ok := v.(*IndexPage); !ok {
		t.Fatalf("dispatch returned %T", v)
	}
	buf[TypeOff] = byte(TypeFree)
	if _, err := Unmarshal(buf); err == nil {
		t.Fatal("free page should not decode")
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return b
}
