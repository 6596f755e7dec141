package page

// Fuzzing the page decoder: a page buffer read back from disk can contain
// anything after a crash — torn sector mixes, zeroes, stale data. Unmarshal
// must reject garbage with ErrCorrupt (or decode it), never panic or read
// out of bounds. The page CRC lives a layer below (the pager), so the
// decoder cannot assume integrity.

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"immortaldb/internal/itime"
)

// pageSeeds marshals one specimen of each page type at MinSize, plus a
// default-size data page with fences, chains, stubs and pending versions.
func pageSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	ts := itime.Timestamp{Wall: 1 << 41, Seq: 3}
	var seeds [][]byte

	dp := NewData(7, MinSize)
	if err := dp.Insert([]byte("alpha"), []byte("one"), false, 11); err != nil {
		tb.Fatal(err)
	}
	if err := dp.InsertStamped([]byte("beta"), []byte("two"), false, ts); err != nil {
		tb.Fatal(err)
	}
	if err := dp.Insert([]byte("beta"), nil, true, 12); err != nil {
		tb.Fatal(err)
	}
	dp.LSN = 99
	buf := make([]byte, MinSize)
	if err := dp.Marshal(buf); err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, append([]byte(nil), buf...))

	ip := NewIndex(8, MinSize, 1)
	ip.Add(IndexEntry{R: Rect{LowKey: nil, HighKey: []byte("m"), HighTS: ts}, Child: 7, Leaf: true})
	ip.Add(IndexEntry{R: Rect{LowKey: []byte("m"), HighKey: nil, LowTS: ts}, Child: 9, Leaf: true})
	buf = make([]byte, MinSize)
	if err := ip.Marshal(buf); err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, append([]byte(nil), buf...))

	bp := &BlobPage{ID: 10, Next: 11, Data: []byte("blob contents")}
	buf = make([]byte, MinSize)
	if err := bp.Marshal(buf); err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, append([]byte(nil), buf...))

	buf = make([]byte, DefaultSize)
	if err := richDataPage(tb).Marshal(buf); err != nil {
		tb.Fatal(err)
	}
	return append(seeds, buf)
}

// richDataPage builds a current page with fences, stamped chains, a delete
// stub and, on key "k1", a pending version of transaction 9 — enough for
// every mutator to find work.
func richDataPage(tb testing.TB) *DataPage {
	tb.Helper()
	p := NewData(21, DefaultSize)
	p.LowKey, p.HighKey = []byte("a"), []byte("z")
	p.Hist, p.StartTS, p.LSN = 20, itime.Timestamp{Wall: 5}, 77
	for i := 0; i < 40; i++ {
		k := []byte{'k', byte('0' + i%8)}
		if err := p.InsertStamped(k, bytes.Repeat([]byte{byte(i)}, 1+i%5), i%13 == 12, itime.Timestamp{Wall: int64(10 + i)}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := p.Insert([]byte("k1"), []byte("pending"), false, 9); err != nil {
		tb.Fatal(err)
	}
	return p
}

func FuzzPageDecode(f *testing.F) {
	for _, seed := range pageSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add(make([]byte, MinSize))                // all zeroes: invalid type
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1})    // data type byte, truncated body
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 2, 9}) // index type byte, truncated body

	f.Fuzz(checkPageDecode)
}

// TestPageDecodeMutations runs FuzzPageDecode's property over 5 000 seeded
// mutations of the seeds — truncations and a few overwritten bytes — so the
// decoder's input space is exercised in tier-1 even where the fuzzing engine
// cannot run.
func TestPageDecodeMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seeds := pageSeeds(t)
	for i := 0; i < 5000; i++ {
		p := append([]byte(nil), seeds[rng.Intn(len(seeds))]...)
		if rng.Intn(4) == 0 {
			p = p[:rng.Intn(len(p)+1)]
		}
		for n := rng.Intn(4); n > 0 && len(p) > 0; n-- {
			// Half the flips land in the headers, where the counts and
			// lengths live.
			at := rng.Intn(len(p))
			if rng.Intn(2) == 0 && len(p) > 96 {
				at = rng.Intn(96)
			}
			p[at] = byte(rng.Intn(256))
		}
		checkPageDecode(t, p)
	}
}

// checkPageDecode is the decoder property: garbage is rejected with
// ErrCorrupt or decoded; whatever decodes re-marshals into an equally sized
// buffer and decodes again, and no mutator writes into the buffer it was
// decoded from.
func checkPageDecode(t *testing.T, buf []byte) {
	src := append([]byte(nil), buf...)
	pg, err := Unmarshal(buf)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("rejection %v is not ErrCorrupt", err)
		}
		return
	}
	// Recovery writes recovered pages back through this path, so decode must
	// never accept a page that cannot round-trip.
	out := make([]byte, len(buf))
	switch v := pg.(type) {
	case *DataPage:
		err = v.Marshal(out)
	case *IndexPage:
		err = v.Marshal(out)
	case *BlobPage:
		err = v.Marshal(out)
	default:
		t.Fatalf("Unmarshal returned unexpected type %T", pg)
	}
	if err != nil {
		t.Fatalf("decoded page fails to re-marshal into %d bytes: %v", len(buf), err)
	}
	if _, err := Unmarshal(out); err != nil {
		t.Fatalf("re-marshaled page fails to decode: %v", err)
	}
	if dp, ok := pg.(*DataPage); ok && dp.Validate() == nil {
		// Mutators walk version chains, which only Validate proves acyclic.
		mutateEverything(t, dp)
	}
	if !bytes.Equal(buf, src) {
		t.Fatal("decoding or mutating a page wrote into the buffer it was decoded from")
	}
}

// mutateEverything applies every page mutator to p, whose keys and values
// alias the buffer it was decoded from, and re-marshals every page that
// results. Mutators may refuse (a historical page does not time split, a
// one-key page does not key split); the caller checks that none of them
// wrote through an aliased slice.
func mutateEverything(t *testing.T, p *DataPage) {
	if len(p.Slots) > 0 {
		v := p.Latest(0)
		_ = append(v.Key, 'x')
		_ = append(v.Value, 'x')
	}
	_ = append(p.LowKey, 'x')
	_ = append(p.HighKey, 'x')

	// Own-version overwrite and its undo on the newest pending version, if
	// there is one; otherwise a plain insert.
	key, tid := []byte("new-key"), itime.TID(1)
	for s := range p.Slots {
		if v := p.Latest(s); !v.Stamped {
			key, tid = v.Key, v.TID
			break
		}
	}
	if replaced, oldVal, oldStub, err := p.InsertOrReplaceOwn(key, []byte("overwritten"), false, tid); err == nil && replaced {
		_ = p.RestoreOwn(key, tid, oldVal, oldStub)
	}
	if len(p.Slots) > 0 {
		_, _, _ = p.Replace(p.Latest(len(p.Slots)-1).Key, []byte("replaced"))
	}
	_ = p.Insert([]byte("another-key"), []byte("v"), false, 2)

	newest := p.StartTS
	p.StampAll(func(itime.TID) (itime.Timestamp, bool) {
		newest = itime.Timestamp{Wall: newest.Wall + 1}
		return newest, true
	})
	pages := []*DataPage{p}
	if hist, err := p.TimeSplit(newest, p.ID+1); err == nil {
		pages = append(pages, hist)
	}
	if _, right, err := p.KeySplit(p.ID + 2); err == nil {
		pages = append(pages, right)
	}
	for _, q := range pages {
		if err := q.Marshal(make([]byte, q.Size)); err != nil {
			t.Fatalf("page %d fails to marshal after mutation: %v", q.ID, err)
		}
	}
}

// TestMutatorsLeaveDecodeBufferAlone pins the ownership rule on the rich
// page: each mutator alone, and all of them in sequence, leave the decoded
// bytes untouched.
func TestMutatorsLeaveDecodeBufferAlone(t *testing.T) {
	buf := make([]byte, DefaultSize)
	if err := richDataPage(t).Marshal(buf); err != nil {
		t.Fatal(err)
	}
	src := append([]byte(nil), buf...)
	decode := func() *DataPage {
		p, err := UnmarshalData(buf)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	stampAll := func(p *DataPage) {
		p.StampAll(func(itime.TID) (itime.Timestamp, bool) { return itime.Timestamp{Wall: 100}, true })
	}
	mutators := map[string]func(p *DataPage) error{
		"Insert": func(p *DataPage) error { return p.Insert([]byte("k3"), []byte("newer"), false, 10) },
		"InsertOrReplaceOwn": func(p *DataPage) error {
			replaced, _, _, err := p.InsertOrReplaceOwn([]byte("k1"), []byte("overwritten"), false, 9)
			if err == nil && !replaced {
				t.Error("InsertOrReplaceOwn did not overwrite the pending version in place")
			}
			return err
		},
		"RestoreOwn": func(p *DataPage) error { return p.RestoreOwn([]byte("k1"), 9, []byte("restored"), false) },
		"Replace": func(p *DataPage) error {
			_, _, err := p.Replace([]byte("k2"), []byte("replaced"))
			return err
		},
		"StampAll": func(p *DataPage) error { stampAll(p); return nil },
		"TimeSplit": func(p *DataPage) error {
			stampAll(p)
			_, err := p.TimeSplit(itime.Timestamp{Wall: 30}, 22)
			return err
		},
		"KeySplit": func(p *DataPage) error {
			_, _, err := p.KeySplit(23)
			return err
		},
	}
	for name, mutate := range mutators {
		p := decode()
		if err := mutate(p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.Marshal(make([]byte, DefaultSize)); err != nil {
			t.Fatalf("%s: re-marshal: %v", name, err)
		}
		if !bytes.Equal(buf, src) {
			t.Fatalf("%s wrote into the buffer the page was decoded from", name)
		}
	}
	mutateEverything(t, decode())
	if !bytes.Equal(buf, src) {
		t.Fatal("the mutators in sequence wrote into the buffer the page was decoded from")
	}
}
