package tsb

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"immortaldb/internal/buffer"
	"immortaldb/internal/itime"
	"immortaldb/internal/storage/disk"
	"immortaldb/internal/storage/page"
)

// mockStamper resolves TIDs from a committed map, like the real VTT/PTT.
type mockStamper struct {
	mu        sync.Mutex
	committed map[itime.TID]itime.Timestamp
	stamped   map[itime.TID]int
}

func newMockStamper() *mockStamper {
	return &mockStamper{
		committed: make(map[itime.TID]itime.Timestamp),
		stamped:   make(map[itime.TID]int),
	}
}

func (m *mockStamper) Resolve(tid itime.TID) (itime.Timestamp, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts, ok := m.committed[tid]
	return ts, ok
}

func (m *mockStamper) MaxCommitLSN(counts map[itime.TID]int) uint64 { return 0 }

func (m *mockStamper) NoteStamped(counts map[itime.TID]int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for tid, n := range counts {
		m.stamped[tid] += n
	}
}

func (m *mockStamper) commit(tid itime.TID, ts itime.Timestamp) {
	m.mu.Lock()
	m.committed[tid] = ts
	m.mu.Unlock()
}

type harness struct {
	tree    *Tree
	stamper *mockStamper
	nextTID itime.TID
	lastTS  itime.Timestamp
	t       *testing.T
}

func newHarness(t *testing.T, mode Mode, pageSize int, immortal bool) *harness {
	t.Helper()
	return newHarnessAt(t, filepath.Join(t.TempDir(), "db.pages"), mode, pageSize, immortal)
}

// newHarnessAt is newHarness with the page file at path.
func newHarnessAt(t *testing.T, path string, mode Mode, pageSize int, immortal bool) *harness {
	t.Helper()
	pager, err := disk.Open(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pager.Close() })
	pool := buffer.New(pager, 256)
	st := newMockStamper()
	h := &harness{stamper: st, nextTID: 1, t: t}
	cfg := Config{
		Pool:     pool,
		Pager:    pager,
		Stamper:  st,
		Mode:     mode,
		Immortal: immortal,
		SplitNow: func() itime.Timestamp { return h.lastTS.Next() },
	}
	tree, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.tree = tree
	return h
}

// write runs a single-record transaction: insert + commit(stamp mapping).
func (h *harness) write(key, value string, stub bool) itime.Timestamp {
	h.t.Helper()
	tid := h.nextTID
	h.nextTID++
	var v []byte
	if !stub {
		v = []byte(value)
	}
	if _, err := h.tree.Insert(tid, []byte(key), v, stub, nil); err != nil {
		h.t.Fatalf("insert %q: %v", key, err)
	}
	h.lastTS = h.lastTS.Next()
	if h.lastTS.Seq%5 == 4 { // spread across wall ticks
		h.lastTS = itime.Timestamp{Wall: h.lastTS.Wall + 1}
	}
	h.stamper.commit(tid, h.lastTS)
	return h.lastTS
}

func (h *harness) read(key string, ts itime.Timestamp) Result {
	h.t.Helper()
	r, err := h.tree.ReadKey([]byte(key), ts, 0)
	if err != nil {
		h.t.Fatalf("read %q: %v", key, err)
	}
	return r
}

func TestInsertAndReadCurrent(t *testing.T) {
	for _, mode := range []Mode{ModeChain, ModeTSB} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			h := newHarness(t, mode, page.DefaultSize, true)
			h.write("alpha", "1", false)
			h.write("beta", "2", false)
			h.write("alpha", "3", false)

			r := h.read("alpha", itime.Max)
			if !r.Found || string(r.Value) != "3" {
				t.Fatalf("current alpha = %+v", r)
			}
			r = h.read("beta", itime.Max)
			if !r.Found || string(r.Value) != "2" {
				t.Fatalf("current beta = %+v", r)
			}
			if r := h.read("gamma", itime.Max); r.Found {
				t.Fatalf("ghost key = %+v", r)
			}
		})
	}
}

func TestOwnUncommittedWritesVisible(t *testing.T) {
	h := newHarness(t, ModeChain, page.DefaultSize, true)
	tid := h.nextTID
	h.nextTID++
	if _, err := h.tree.Insert(tid, []byte("k"), []byte("mine"), false, nil); err != nil {
		t.Fatal(err)
	}
	// Uncommitted: invisible to others, visible to self.
	r, _ := h.tree.ReadKey([]byte("k"), itime.Max, 0)
	if r.Found {
		t.Fatalf("other txn sees uncommitted write: %+v", r)
	}
	r, _ = h.tree.ReadKey([]byte("k"), itime.Max, tid)
	if !r.Found || string(r.Value) != "mine" {
		t.Fatalf("own write invisible: %+v", r)
	}
}

func TestDeleteStubSemantics(t *testing.T) {
	h := newHarness(t, ModeChain, page.DefaultSize, true)
	t1 := h.write("k", "v1", false)
	t2 := h.write("k", "", true) // delete
	t3 := h.write("k", "v2", false)

	if r := h.read("k", t1); !r.Found || string(r.Value) != "v1" {
		t.Fatalf("as of t1: %+v", r)
	}
	if r := h.read("k", t2); r.Found || !r.Deleted {
		t.Fatalf("as of t2 (deleted): %+v", r)
	}
	if r := h.read("k", t3); !r.Found || string(r.Value) != "v2" {
		t.Fatalf("as of t3: %+v", r)
	}
}

func TestKeySplitsPreserveEverything(t *testing.T) {
	for _, mode := range []Mode{ModeChain, ModeTSB} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			h := newHarness(t, mode, 512, true) // tiny pages force splits
			const n = 300
			for i := 0; i < n; i++ {
				h.write(fmt.Sprintf("key-%04d", i*7%n), fmt.Sprintf("val-%d", i), false)
			}
			if h.tree.Snapshot().KeySplits == 0 {
				t.Fatal("no key splits with 512-byte pages and 300 keys")
			}
			seen := 0
			err := h.tree.ScanAsOf(nil, nil, itime.Max, 0, func(r Result) bool {
				seen++
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if seen != n {
				t.Fatalf("current scan found %d of %d keys", seen, n)
			}
			for i := 0; i < n; i += 17 {
				k := fmt.Sprintf("key-%04d", i)
				if r := h.read(k, itime.Max); !r.Found {
					t.Fatalf("key %q lost", k)
				}
			}
		})
	}
}

func TestTimeSplitsAndAsOfReads(t *testing.T) {
	for _, mode := range []Mode{ModeChain, ModeTSB} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			h := newHarness(t, mode, 512, true)
			// Few keys, many updates: history builds up, forcing time splits.
			const keys, rounds = 6, 120
			type verRec struct {
				ts  itime.Timestamp
				val string
			}
			model := make(map[string][]verRec)
			for r := 0; r < rounds; r++ {
				k := fmt.Sprintf("k%d", r%keys)
				v := fmt.Sprintf("v%d-%d", r%keys, r)
				ts := h.write(k, v, false)
				model[k] = append(model[k], verRec{ts, v})
			}
			if h.tree.Snapshot().TimeSplits == 0 {
				t.Fatal("no time splits despite heavy update history")
			}
			// Check every model version is visible at its own time and at a
			// point just before its successor.
			for k, vers := range model {
				for i, vr := range vers {
					if r := h.read(k, vr.ts); !r.Found || string(r.Value) != vr.val {
						t.Fatalf("%s as of %v: got %+v want %q", k, vr.ts, r, vr.val)
					}
					if i+1 < len(vers) {
						// Immediately before successor: still this version.
						prev := verJustBefore(vers[i+1].ts)
						if r := h.read(k, prev); !r.Found || string(r.Value) != vr.val {
							t.Fatalf("%s just before %v: got %+v want %q", k, vers[i+1].ts, r, vr.val)
						}
					}
				}
				// Before the first version: not found.
				if r := h.read(k, verJustBefore(vers[0].ts)); r.Found {
					t.Fatalf("%s before creation: %+v", k, r)
				}
			}
		})
	}
}

func verJustBefore(ts itime.Timestamp) itime.Timestamp {
	if ts.Seq > 0 {
		return itime.Timestamp{Wall: ts.Wall, Seq: ts.Seq - 1}
	}
	return itime.Timestamp{Wall: ts.Wall - 1, Seq: 1<<32 - 1}
}

func TestChainHopsGrowOnlyInChainMode(t *testing.T) {
	deep := func(mode Mode) (*harness, itime.Timestamp) {
		h := newHarness(t, mode, 512, true)
		first := h.write("k0", "genesis", false)
		for r := 0; r < 400; r++ {
			h.write(fmt.Sprintf("k%d", r%4), fmt.Sprintf("v%d", r), false)
		}
		return h, first
	}

	hChain, firstC := deep(ModeChain)
	if r := hChain.read("k0", firstC); !r.Found || string(r.Value) != "genesis" {
		t.Fatalf("chain deep read: %+v", r)
	}
	if hops := hChain.tree.Snapshot().ChainHops; hops == 0 {
		t.Fatal("chain mode deep history read did not walk the chain")
	}

	hTSB, firstT := deep(ModeTSB)
	before := hTSB.tree.Snapshot().ChainHops
	if r := hTSB.read("k0", firstT); !r.Found || string(r.Value) != "genesis" {
		t.Fatalf("tsb deep read: %+v", r)
	}
	if hops := hTSB.tree.Snapshot().ChainHops; hops != before {
		t.Fatalf("TSB mode used the chain: %d hops", hops-before)
	}
}

func TestUndoInsertThroughTree(t *testing.T) {
	h := newHarness(t, ModeChain, page.DefaultSize, true)
	h.write("k", "committed", false)
	tid := h.nextTID
	h.nextTID++
	if _, err := h.tree.Insert(tid, []byte("k"), []byte("doomed"), false, nil); err != nil {
		t.Fatal(err)
	}
	if err := h.tree.UndoInsert(tid, []byte("k"), nil); err != nil {
		t.Fatal(err)
	}
	if r := h.read("k", itime.Max); !r.Found || string(r.Value) != "committed" {
		t.Fatalf("after undo: %+v", r)
	}
}

// leafFree returns the free bytes on the current page holding key.
func (h *harness) leafFree(key string) int {
	h.t.Helper()
	h.tree.mu.RLock()
	defer h.tree.mu.RUnlock()
	path, lf, err := h.tree.descend([]byte(key), itime.Max)
	if err != nil {
		h.t.Fatal(err)
	}
	h.tree.releasePath(path)
	defer h.tree.cfg.Pool.Release(lf)
	return lf.Data().Size - lf.Data().Used()
}

// TestUndoReplaceOwnOnFullPage: a transaction shrinks its own uncommitted
// value in place, committed neighbours then fill the page to the byte, and
// the rollback must still put the longer value back — by splitting, like
// every other write path.
func TestUndoReplaceOwnOnFullPage(t *testing.T) {
	h := newHarness(t, ModeChain, 512, true)
	tid := h.nextTID
	h.nextTID++
	long := bytes.Repeat([]byte("L"), 120)
	for _, v := range [][]byte{long, []byte("s")} {
		if _, err := h.tree.Insert(tid, []byte("k"), v, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	// A probe neighbour measures a record's fixed cost; the second is sized
	// to land the page on exactly zero free bytes.
	before := h.leafFree("k")
	h.write("f0", "0123456789", false)
	fixed := before - h.leafFree("k") - 10
	h.write("f1", string(bytes.Repeat([]byte("f"), h.leafFree("k")-fixed)), false)
	if s := h.tree.Snapshot(); h.leafFree("k") != 0 || s.TimeSplits+s.KeySplits != 0 {
		t.Fatalf("setup: %d bytes free after %+v, want a full, never-split page", h.leafFree("k"), s)
	}

	if err := h.tree.UndoReplaceOwn(tid, []byte("k"), long, false, nil); err != nil {
		t.Fatalf("undo of own overwrite on a full page: %v", err)
	}
	r, err := h.tree.ReadKey([]byte("k"), itime.Max, tid)
	if err != nil || !r.Found || !bytes.Equal(r.Value, long) {
		t.Fatalf("own read after undo = %+v, %v; want the %d-byte value back", r, err, len(long))
	}
	if r := h.read("f0", itime.Max); !r.Found || string(r.Value) != "0123456789" {
		t.Fatalf("neighbour after the undo's split: %+v", r)
	}
}

func TestHistoryTimeTravel(t *testing.T) {
	for _, mode := range []Mode{ModeChain, ModeTSB} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			h := newHarness(t, mode, 512, true)
			var wrote []string
			for i := 0; i < 60; i++ {
				v := fmt.Sprintf("v%02d", i)
				h.write("traveler", v, false)
				wrote = append(wrote, v)
				// Interleave other keys to force splits.
				h.write(fmt.Sprintf("filler-%d", i%9), fmt.Sprintf("f%d", i), false)
			}
			hist, err := h.tree.History([]byte("traveler"))
			if err != nil {
				t.Fatal(err)
			}
			if len(hist) != len(wrote) {
				t.Fatalf("history has %d versions, want %d", len(hist), len(wrote))
			}
			for i, vi := range hist { // newest first
				want := wrote[len(wrote)-1-i]
				if string(vi.Value) != want {
					t.Fatalf("history[%d] = %q, want %q", i, vi.Value, want)
				}
				if i > 0 && hist[i-1].TS.Less(vi.TS) {
					t.Fatal("history not in descending time order")
				}
			}
		})
	}
}

func TestScanAsOfMatchesModel(t *testing.T) {
	for _, mode := range []Mode{ModeChain, ModeTSB} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			h := newHarness(t, mode, 512, true)
			rng := rand.New(rand.NewSource(7))
			type event struct {
				ts   itime.Timestamp
				key  string
				val  string
				stub bool
			}
			var log []event
			var checkpoints []itime.Timestamp
			for i := 0; i < 250; i++ {
				k := fmt.Sprintf("key-%02d", rng.Intn(25))
				stub := rng.Intn(7) == 0
				v := fmt.Sprintf("v%d", i)
				ts := h.write(k, v, stub)
				log = append(log, event{ts, k, v, stub})
				if i%40 == 13 {
					checkpoints = append(checkpoints, ts)
				}
			}
			checkpoints = append(checkpoints, itime.Max)

			for _, at := range checkpoints {
				want := map[string]string{}
				for _, e := range log {
					if e.ts.After(at) {
						continue
					}
					if e.stub {
						delete(want, e.key)
					} else {
						want[e.key] = e.val
					}
				}
				got := map[string]string{}
				var lastKey string
				err := h.tree.ScanAsOf(nil, nil, at, 0, func(r Result) bool {
					if lastKey != "" && string(r.Key) <= lastKey {
						t.Fatalf("scan out of order: %q after %q", r.Key, lastKey)
					}
					lastKey = string(r.Key)
					got[string(r.Key)] = string(r.Value)
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("as of %v: scan found %d keys, want %d\ngot: %v\nwant: %v",
						at, len(got), len(want), got, want)
				}
				for k, v := range want {
					if got[k] != v {
						t.Fatalf("as of %v: %s = %q, want %q", at, k, got[k], v)
					}
				}
			}
		})
	}
}

func TestScanKeyRange(t *testing.T) {
	h := newHarness(t, ModeTSB, 512, true)
	for i := 0; i < 100; i++ {
		h.write(fmt.Sprintf("key-%03d", i), "v", false)
	}
	var got []string
	err := h.tree.ScanAsOf([]byte("key-020"), []byte("key-030"), itime.Max, 0, func(r Result) bool {
		got = append(got, string(r.Key))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != "key-020" || got[9] != "key-029" {
		t.Fatalf("range scan = %v", got)
	}
	// Early stop.
	n := 0
	h.tree.ScanAsOf(nil, nil, itime.Max, 0, func(Result) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop scanned %d", n)
	}
}

func TestNoTailTable(t *testing.T) {
	pager, err := disk.Open(filepath.Join(t.TempDir(), "db.pages"), 512)
	if err != nil {
		t.Fatal(err)
	}
	defer pager.Close()
	pool := buffer.New(pager, 64)
	tree, err := Create(Config{Pool: pool, Pager: pager, NoTail: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := tree.Insert(0, []byte(fmt.Sprintf("k%03d", i)), []byte("v0"), false, nil); err != nil {
			t.Fatal(err)
		}
	}
	// In-place update.
	old, found, err := tree.ReplaceNoTail([]byte("k005"), []byte("v1-longer"), nil)
	if err != nil || !found || string(old) != "v0" {
		t.Fatalf("replace: old=%q found=%v err=%v", old, found, err)
	}
	r, err := tree.ReadKey([]byte("k005"), itime.Max, 0)
	if err != nil || !r.Found || string(r.Value) != "v1-longer" {
		t.Fatalf("read after replace: %+v err=%v", r, err)
	}
	// Remove.
	if _, err := tree.RemoveNoTail([]byte("k007"), nil); err != nil {
		t.Fatal(err)
	}
	if r, _ := tree.ReadKey([]byte("k007"), itime.Max, 0); r.Found {
		t.Fatal("removed key still present")
	}
	// Restore (undo).
	if err := tree.RestoreNoTail([]byte("k007"), []byte("v0"), true, nil); err != nil {
		t.Fatal(err)
	}
	if r, _ := tree.ReadKey([]byte("k007"), itime.Max, 0); !r.Found {
		t.Fatal("restored key missing")
	}
	// Splits happened and everything is still reachable.
	if tree.Snapshot().KeySplits == 0 {
		t.Fatal("no key splits on 512-byte pages with 200 keys")
	}
	if tree.Snapshot().TimeSplits != 0 {
		t.Fatal("conventional table must never time split")
	}
	count := 0
	tree.ScanAsOf(nil, nil, itime.Max, 0, func(Result) bool { count++; return true })
	if count != 200 {
		t.Fatalf("scan found %d, want 200", count)
	}
}

func TestSnapshotTableGC(t *testing.T) {
	pager, err := disk.Open(filepath.Join(t.TempDir(), "db.pages"), 512)
	if err != nil {
		t.Fatal(err)
	}
	defer pager.Close()
	pool := buffer.New(pager, 64)
	st := newMockStamper()
	horizon := itime.Timestamp{}
	var last itime.Timestamp
	tree, err := Create(Config{
		Pool: pool, Pager: pager, Stamper: st,
		Immortal:        false,
		SnapshotHorizon: func() itime.Timestamp { return horizon },
	})
	if err != nil {
		t.Fatal(err)
	}
	tid := itime.TID(1)
	write := func(k, v string) itime.Timestamp {
		if _, err := tree.Insert(tid, []byte(k), []byte(v), false, nil); err != nil {
			t.Fatal(err)
		}
		last = last.Next()
		st.commit(tid, last)
		tid++
		return last
	}
	// Build deep version chains with the horizon tracking "now": old
	// versions are reclaimable, so the table must never time split and must
	// stay compact.
	for r := 0; r < 500; r++ {
		write(fmt.Sprintf("k%d", r%5), fmt.Sprintf("v%d", r))
		horizon = last
	}
	if tree.Snapshot().TimeSplits != 0 {
		t.Fatal("snapshot-only table must never time split")
	}
	// All current values correct.
	for i := 0; i < 5; i++ {
		r, err := tree.ReadKey([]byte(fmt.Sprintf("k%d", i)), itime.Max, 0)
		if err != nil || !r.Found {
			t.Fatalf("k%d: %+v err=%v", i, r, err)
		}
	}
	// The file must stay small: GC keeps reclaiming, so 500 updates of 5
	// keys need only a handful of pages.
	if n := pager.NumPages(); n > 8 {
		t.Fatalf("snapshot table grew to %d pages; GC is not reclaiming", n)
	}
}

func TestSnapshotTableReadAtHorizon(t *testing.T) {
	pager, _ := disk.Open(filepath.Join(t.TempDir(), "db.pages"), 512)
	defer pager.Close()
	pool := buffer.New(pager, 64)
	st := newMockStamper()
	horizon := itime.Timestamp{}
	var last itime.Timestamp
	tree, _ := Create(Config{
		Pool: pool, Pager: pager, Stamper: st,
		SnapshotHorizon: func() itime.Timestamp { return horizon },
	})
	tid := itime.TID(1)
	write := func(k, v string) itime.Timestamp {
		tree.Insert(tid, []byte(k), []byte(v), false, nil)
		last = last.Next()
		st.commit(tid, last)
		tid++
		return last
	}
	// A snapshot pins the horizon; versions it can see must survive GC.
	snapAt := write("k", "visible-to-snapshot")
	horizon = snapAt
	for i := 0; i < 300; i++ {
		write("k", fmt.Sprintf("newer-%d", i))
		write(fmt.Sprintf("pad%d", i%7), "x") // force page pressure
	}
	r, err := tree.ReadKey([]byte("k"), snapAt, 0)
	if err != nil || !r.Found || string(r.Value) != "visible-to-snapshot" {
		t.Fatalf("snapshot lost its version: %+v err=%v", r, err)
	}
}

// TestRandomizedModelBothModes is the heavyweight invariant test: a random
// single-writer workload checked against an in-memory model at many points
// in time, on tiny pages, in both index modes.
func TestRandomizedModelBothModes(t *testing.T) {
	for _, mode := range []Mode{ModeChain, ModeTSB} {
		mode := mode
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				h := newHarness(t, mode, 512, true)
				type event struct {
					ts   itime.Timestamp
					key  string
					val  string
					stub bool
				}
				var log []event
				for i := 0; i < 400; i++ {
					k := fmt.Sprintf("key-%02d", rng.Intn(30))
					stub := rng.Intn(8) == 0
					v := fmt.Sprintf("s%d-v%d", seed, i)
					ts := h.write(k, v, stub)
					log = append(log, event{ts, k, v, stub})
				}
				// Probe random (key, time) points.
				for probe := 0; probe < 300; probe++ {
					e := log[rng.Intn(len(log))]
					at := e.ts
					if rng.Intn(2) == 0 {
						at = verJustBefore(at)
					}
					var wantVal string
					wantFound := false
					for _, ev := range log {
						if ev.key != e.key || ev.ts.After(at) {
							continue
						}
						wantFound = !ev.stub
						wantVal = ev.val
					}
					r := h.read(e.key, at)
					if r.Found != wantFound || (wantFound && string(r.Value) != wantVal) {
						t.Fatalf("seed %d mode %v: %s as of %v: got (%v,%q) want (%v,%q)",
							seed, mode, e.key, at, r.Found, r.Value, wantFound, wantVal)
					}
				}
			}
		})
	}
}

// TestIndexInvariants walks the whole index after heavy splitting and checks
// that every index page's entries are disjoint and nested inside the rect
// the parent assigned, and that data page fences match their entry rects.
func TestIndexInvariants(t *testing.T) {
	h := newHarness(t, ModeTSB, 512, true)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 600; i++ {
		h.write(fmt.Sprintf("key-%03d", rng.Intn(60)), fmt.Sprintf("v%d", i), false)
	}
	root, rootIsLeaf := h.tree.Root()
	if rootIsLeaf {
		t.Fatal("tree never grew an index")
	}
	pool := h.tree.cfg.Pool
	var walk func(id page.ID, rect page.Rect, depth int)
	walk = func(id page.ID, rect page.Rect, depth int) {
		if depth > 20 {
			t.Fatal("index too deep; probable cycle")
		}
		f, err := pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Release(f)
		if ip := f.Index(); ip != nil {
			if err := ip.Validate(); err != nil {
				t.Fatal(err)
			}
			// Historical entries replicated by index splits may stick out of
			// the parent region (the copy in the sibling covers the rest);
			// the invariant is that entries are disjoint (checked above) and
			// CURRENT entries nest, since they are never replicated.
			for _, e := range ip.Entries {
				if e.R.HighTS.IsMax() {
					if rect.LowKey != nil && (e.R.LowKey == nil || bytes.Compare(e.R.LowKey, rect.LowKey) < 0) {
						t.Fatalf("current child rect %v escapes parent %v (low)", e.R, rect)
					}
					if rect.HighKey != nil && (e.R.HighKey == nil || bytes.Compare(e.R.HighKey, rect.HighKey) > 0) {
						t.Fatalf("current child rect %v escapes parent %v (high)", e.R, rect)
					}
				}
				walk(e.Child, e.R, depth+1)
			}
			return
		}
		dp := f.Data()
		if dp == nil {
			t.Fatalf("page %d is neither index nor data", id)
		}
		if err := dp.Validate(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dp.LowKey, rect.LowKey) || !bytes.Equal(dp.HighKey, rect.HighKey) {
			t.Fatalf("page %d fences [%q,%q) disagree with entry rect %v",
				id, dp.LowKey, dp.HighKey, rect)
		}
		if dp.Current && !rect.HighTS.IsMax() {
			t.Fatalf("current page %d indexed with closed time rect %v", id, rect)
		}
	}
	walk(root, everything, 0)
}
