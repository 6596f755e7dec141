package hist

// Fuzzing the cold-tier codecs: run files and manifests are read back after
// crashes and bit rot, so arbitrary bytes must yield entries or ErrCorrupt —
// never a panic, out-of-bounds read, or unbounded allocation.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"
)

func fuzzRunSeeds() [][]byte {
	var seeds [][]byte
	small, _, err := EncodeRun(1, 1, 0, []Entry{
		{Key: []byte("alpha"), Value: []byte("v1"), TS: ts(100, 1)},
		{Key: []byte("alpine"), Value: []byte("v2"), TS: ts(200, 2), Stub: true},
	})
	if err == nil {
		seeds = append(seeds, small)
	}
	multi, _, err := EncodeRun(9, 42, 2, mkFuzzEntries())
	if err == nil {
		seeds = append(seeds, multi)
		// Truncated mid-entry and mid-footer.
		seeds = append(seeds, multi[:len(multi)*2/3])
		seeds = append(seeds, multi[:len(multi)-7])
		// Checksum mismatch: flip a payload byte, leave the CRC alone.
		seeds = append(seeds, flipByte(multi, runHeaderLen+20))
		// Corrupt footer index.
		seeds = append(seeds, flipByte(multi, len(multi)-16))
	}
	return seeds
}

func mkFuzzEntries() []Entry {
	var out []Entry
	for k := 0; k < 400; k++ {
		out = append(out, Entry{
			Key:   []byte{'k', byte(k >> 8), byte(k), 'x', 'y', 'z'},
			Value: []byte("some-moderately-long-value-payload"),
			TS:    ts(int64(1000+k), uint32(k%3)),
			Stub:  k%17 == 0,
		})
	}
	return out
}

func FuzzRunDecode(f *testing.F) {
	for _, s := range fuzzRunSeeds() {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Add([]byte(runMagic))
	f.Fuzz(func(t *testing.T, b []byte) {
		tid, seq, level, entries, err := DecodeRun(b)
		if err != nil {
			return
		}
		// A successful decode must round-trip through the encoder: the
		// entries are self-consistent enough to re-encode.
		if len(entries) == 0 {
			t.Fatalf("decode ok with zero entries")
		}
		if _, _, err := EncodeRun(tid, seq, level, entries); err != nil {
			t.Fatalf("re-encode of decoded run failed: %v", err)
		}
	})
}

// fuzzBlockSeeds returns block payloads (no header): the blocks of a real
// run, and one cut short mid-entry.
func fuzzBlockSeeds() [][]byte {
	var seeds [][]byte
	img, _, err := EncodeRun(9, 42, 2, mkFuzzEntries())
	if err != nil {
		return nil
	}
	refs, err := parseRunFooter(img, int64(len(img)))
	if err != nil {
		return nil
	}
	for _, r := range refs {
		seeds = append(seeds, img[r.off+blockHdrLen:r.off+int64(r.length)])
	}
	return append(seeds, seeds[0][:len(seeds[0])/2])
}

// FuzzBlockCursor feeds the one block decoder arbitrary payloads under a
// valid header, so the checksum does not shield the entry parser: walking
// the cursor by hand, seeking, and the materialiser must agree entry for
// entry or all report ErrCorrupt, and no single flipped bit of a block that
// decodes may be served.
func FuzzBlockCursor(f *testing.F) {
	for _, s := range fuzzBlockSeeds() {
		f.Add(s, uint32(len(s)*3), []byte("k\x00\x07"))
	}
	f.Add([]byte{}, uint32(0), []byte{})
	f.Add([]byte{1, 0, 1, 'a', 0, 2, 3, 0}, uint32(40), []byte("a"))
	f.Fuzz(checkBlockCursor)
}

// TestBlockCursorMutations runs the fuzz property over seeded random
// mutations of real blocks, so tier-1 reaches the entry parser's error paths
// without the fuzzing engine.
func TestBlockCursorMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seeds := fuzzBlockSeeds()
	for i := 0; i < 5000; i++ {
		p := append([]byte(nil), seeds[rng.Intn(len(seeds))]...)
		if rng.Intn(4) == 0 {
			p = p[:rng.Intn(len(p)+1)]
		}
		for n := rng.Intn(4); n > 0 && len(p) > 0; n-- {
			p[rng.Intn(len(p))] = byte(rng.Intn(256))
		}
		checkBlockCursor(t, p, rng.Uint32(), []byte{'k', byte(rng.Intn(3)), byte(rng.Intn(256))})
	}
}

func checkBlockCursor(t *testing.T, payload []byte, flip uint32, probe []byte) {
	block := make([]byte, blockHdrLen, blockHdrLen+len(payload))
	binary.BigEndian.PutUint32(block[0:], uint32(len(payload)))
	binary.BigEndian.PutUint32(block[4:], crc32.Checksum(payload, crcTable))
	block = append(block, payload...)

	var c blockCursor
	want, err := c.appendBlock(nil, block)
	if err != nil && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("materialiser: %v is not ErrCorrupt", err)
	}

	// By hand: the same entries, then the same error or a clean end.
	if rerr := c.reset(block); rerr != nil {
		if err == nil {
			t.Fatalf("cursor rejects a block the materialiser decoded: %v", rerr)
		}
		return
	}
	for i := 0; ; i++ {
		ok, nerr := c.next()
		if nerr != nil || !ok {
			if (nerr != nil) != (err != nil) || nerr == nil && i != len(want) {
				t.Fatalf("cursor ended at entry %d with %v; materialiser: %d entries, %v", i, nerr, len(want), err)
			}
			break
		}
		if err == nil {
			if e := want[i]; !bytes.Equal(c.key, e.Key) || !bytes.Equal(c.val, e.Value) || c.ts != e.TS || c.stub != e.Stub {
				t.Fatalf("entry %d: cursor (%q, %v) != materialiser (%q, %v)", i, c.key, c.ts, e.Key, e.TS)
			}
		}
	}
	if err != nil {
		return
	}

	// seek lands on the first entry at or after the probe, in walk order.
	first := 0
	for first < len(want) && bytes.Compare(want[first].Key, probe) < 0 {
		first++
	}
	if err := c.reset(block); err != nil {
		t.Fatal(err)
	}
	ok, serr := c.seek(probe)
	if serr != nil || ok != (first < len(want)) || ok && (!bytes.Equal(c.key, want[first].Key) || c.ts != want[first].TS) {
		t.Fatalf("seek(%q): ok=%v err=%v key=%q; want entry %d of %d", probe, ok, serr, c.key, first, len(want))
	}

	// One flipped bit anywhere — length, checksum or payload.
	bit := int(flip) % (len(block) * 8)
	block[bit/8] ^= 1 << (bit % 8)
	if got, ferr := c.appendBlock(nil, block); !errors.Is(ferr, ErrCorrupt) {
		t.Fatalf("bit %d flipped: served %d entries, err=%v", bit, len(got), ferr)
	}
}

func fuzzManifestSeeds() [][]byte {
	m := Manifest{
		Ver: 3, TableID: 2, NextSeq: 9,
		Runs: []RunMeta{
			{Seq: 1, Level: 0, Count: 5, Bytes: 333, MinKey: []byte("a"), MaxKey: []byte("q"), MinTS: ts(1, 0), MaxTS: ts(9, 0)},
			{Seq: 8, Level: 1, Count: 50, Bytes: 3333, MinKey: []byte(""), MaxKey: []byte("zzz"), MinTS: ts(1, 0), MaxTS: ts(90, 0)},
		},
	}
	blob := EncodeManifest(m)
	empty := EncodeManifest(Manifest{Ver: 1, TableID: 7, NextSeq: 1})
	return [][]byte{
		blob,
		empty,
		blob[:len(blob)-3],  // truncated: CRC cut
		blob[:manHeaderLen], // truncated: runs cut
		flipByte(blob, 17),  // checksum mismatch in a run entry
		flipByte(blob, 1),   // bad magic
	}
}

func FuzzManifestDecode(f *testing.F) {
	for _, s := range fuzzManifestSeeds() {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeManifest(b)
		if err != nil {
			return
		}
		// Valid decodes re-encode to the identical image (the codec is
		// canonical), so the WAL record and the file slots always agree.
		out := EncodeManifest(m)
		if string(out) != string(b) {
			t.Fatalf("manifest decode/encode not canonical: %d vs %d bytes", len(out), len(b))
		}
	})
}
