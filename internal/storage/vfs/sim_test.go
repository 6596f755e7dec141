package vfs

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sort"
	"testing"
)

func TestSimReadWriteRoundTrip(t *testing.T) {
	fs := NewSim(1)
	f, err := fs.OpenFile("a")
	if err != nil {
		t.Fatal(err)
	}
	in := []byte("hello, simulated world")
	if _, err := f.WriteAt(in, 100); err != nil {
		t.Fatal(err)
	}
	sz, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	if sz != 100+int64(len(in)) {
		t.Fatalf("size = %d", sz)
	}
	out := make([]byte, len(in))
	if _, err := f.ReadAt(out, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Fatalf("read %q", out)
	}
	// Gap before the write reads as zeros.
	gap := make([]byte, 100)
	if _, err := f.ReadAt(gap, 0); err != nil {
		t.Fatal(err)
	}
	for _, b := range gap {
		if b != 0 {
			t.Fatal("gap not zero-filled")
		}
	}
	if _, err := f.ReadAt(out, sz); err != io.EOF {
		t.Fatalf("read past end: %v", err)
	}
}

func TestSimSameNameSameFile(t *testing.T) {
	fs := NewSim(1)
	f1, _ := fs.OpenFile("x")
	f2, _ := fs.OpenFile("x")
	if _, err := f1.WriteAt([]byte{42}, 0); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := f2.ReadAt(b, 0); err != nil {
		t.Fatal(err)
	}
	if b[0] != 42 {
		t.Fatal("second handle does not see the write")
	}
}

func TestSimCrashLosesUnsynced(t *testing.T) {
	fs := NewSim(7)
	f, _ := fs.OpenFile("a")
	if _, err := f.WriteAt(bytes.Repeat([]byte{1}, SectorSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// Overwrite without sync: the crash may keep either version per sector,
	// but with one sector the content must be all-1 or all-2, never mixed.
	if _, err := f.WriteAt(bytes.Repeat([]byte{2}, SectorSize), 0); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	if _, err := f.WriteAt([]byte{9}, 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write while down: %v", err)
	}
	fs.Reboot()
	out := make([]byte, SectorSize)
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatal(err)
	}
	if out[0] != out[SectorSize-1] || (out[0] != 1 && out[0] != 2) {
		t.Fatalf("sector not atomic: first=%d last=%d", out[0], out[SectorSize-1])
	}
}

func TestSimCrashAtNthOpAndTornWrite(t *testing.T) {
	// An 8-sector page written in one WriteAt must be able to tear: across
	// seeds, some reboot outcome keeps a strict subset of the new sectors.
	torn := false
	for seed := int64(0); seed < 32 && !torn; seed++ {
		fs := NewSim(seed)
		f, _ := fs.OpenFile("p")
		old := bytes.Repeat([]byte{0xAA}, 8*SectorSize)
		if _, err := f.WriteAt(old, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		fs.SetCrashAt(fs.OpCount() + 1)
		nw := bytes.Repeat([]byte{0xBB}, 8*SectorSize)
		if _, err := f.WriteAt(nw, 0); !errors.Is(err, ErrCrashed) {
			t.Fatalf("armed write: %v", err)
		}
		fs.Reboot()
		got := make([]byte, 8*SectorSize)
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		newSectors := 0
		for s := 0; s < 8; s++ {
			sec := got[s*SectorSize : (s+1)*SectorSize]
			switch sec[0] {
			case 0xBB:
				newSectors++
			case 0xAA:
			default:
				t.Fatalf("seed %d sector %d: garbage byte %x", seed, s, sec[0])
			}
			if !bytes.Equal(sec, bytes.Repeat([]byte{sec[0]}, SectorSize)) {
				t.Fatalf("seed %d sector %d torn inside a sector", seed, s)
			}
		}
		if newSectors > 0 && newSectors < 8 {
			torn = true
		}
	}
	if !torn {
		t.Fatal("no seed produced a torn page in 32 tries")
	}
}

func TestSimRebootDeterministic(t *testing.T) {
	run := func() []byte {
		fs := NewSim(99)
		f, _ := fs.OpenFile("p")
		f.WriteAt(bytes.Repeat([]byte{1}, 4*SectorSize), 0)
		f.Sync()
		fs.SetCrashAt(fs.OpCount() + 2)
		f.WriteAt(bytes.Repeat([]byte{2}, 2*SectorSize), 0)
		f.WriteAt(bytes.Repeat([]byte{3}, 2*SectorSize), 2*SectorSize)
		fs.Reboot()
		out := make([]byte, 4*SectorSize)
		f.ReadAt(out, 0)
		return out
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("same (seed, point) produced different survivors")
	}
}

func TestSimInjectedSyncError(t *testing.T) {
	fs := NewSim(3)
	f, _ := fs.OpenFile("a")
	f.WriteAt([]byte{1}, 0)
	fs.InjectSyncError(fs.OpCount() + 1)
	if err := f.Sync(); !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("sync: %v", err)
	}
	// Durability must not have advanced: a crash now can lose the write.
	fs.Crash()
	fs.Reboot()
	// Whether the sector survived is seed-dependent; what matters is the
	// next sync succeeds and then the data is stable across crashes.
	f.WriteAt([]byte{5}, 0)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	fs.Reboot()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, 0); err != nil {
		t.Fatal(err)
	}
	if b[0] != 5 {
		t.Fatalf("synced byte lost: %d", b[0])
	}
}

func TestSimTruncateNotDurableUntilSync(t *testing.T) {
	fs := NewSim(5)
	f, _ := fs.OpenFile("a")
	f.WriteAt(bytes.Repeat([]byte{1}, SectorSize), 0)
	f.Sync()
	if err := f.Truncate(3 * SectorSize); err != nil {
		t.Fatal(err)
	}
	if sz, _ := f.Size(); sz != 3*SectorSize {
		t.Fatalf("size after grow = %d", sz)
	}
	fs.Crash()
	fs.Reboot()
	if sz, _ := f.Size(); sz != SectorSize {
		t.Fatalf("unsynced growth survived crash: size = %d", sz)
	}
	if err := f.Truncate(2 * SectorSize); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	fs.Reboot()
	if sz, _ := f.Size(); sz != 2*SectorSize {
		t.Fatalf("synced growth lost: size = %d", sz)
	}
}

func TestSimTrace(t *testing.T) {
	fs := NewSim(1)
	f, _ := fs.OpenFile("a")
	f.WriteAt([]byte{1}, 0)
	f.Sync()
	tr := fs.Trace()
	if len(tr) != 2 || tr[0].Kind != "write" || tr[1].Kind != "sync" {
		t.Fatalf("trace = %v", tr)
	}
	if tr[0].Index != 1 || tr[1].Index != 2 {
		t.Fatalf("indices = %d,%d", tr[0].Index, tr[1].Index)
	}
}

func TestOSFSImplements(t *testing.T) {
	dir := t.TempDir()
	f, err := OS().OpenFile(dir + "/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if sz, err := f.Size(); err != nil || sz != 1 {
		t.Fatalf("size = %d, %v", sz, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestSimSyncMatchesFullCopy drives seeded write/truncate/sync/crash/reboot
// sequences, fsyncgate drops and injected sync errors included, and checks
// after every step that each file's durable image is byte-identical to the
// full-copy rule: a successful Sync makes the whole volatile image durable,
// and Reboot keeps the durable image plus each dirty sector the seeded
// generator lets through.
func TestSimSyncMatchesFullCopy(t *testing.T) {
	names := []string{"a", "b"}
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		fs := NewSim(seed)
		files := map[string]*simFile{}
		model := map[string][]byte{}
		for _, name := range names {
			f, err := fs.OpenFile(name)
			if err != nil {
				t.Fatal(err)
			}
			files[name] = f.(*simFile)
		}
		for step := 0; step < 400; step++ {
			name := names[r.Intn(len(names))]
			f := files[name]
			sync := func() {
				if f.Sync() == nil {
					model[name] = append([]byte(nil), f.data...)
				}
			}
			switch k := r.Intn(20); {
			case k < 9:
				p := make([]byte, 1+r.Intn(3*SectorSize))
				r.Read(p)
				f.WriteAt(p, r.Int63n(16*SectorSize))
			case k < 12:
				f.Truncate(r.Int63n(20 * SectorSize))
			case k < 16:
				sync()
			case k == 16:
				fs.InjectFault(Fault{Op: OpSync, File: name, Count: 1, DropDirty: true})
				sync()
			case k == 17:
				fs.InjectSyncError(fs.OpCount() + 1)
				sync()
			case k == 18:
				fs.SetCrashAt(fs.OpCount() + 1 + r.Int63n(4))
			default:
				fs.Crash()
			}
			if fs.Crashed() {
				want := fullCopyReboot(fs, model)
				fs.Reboot()
				for n, img := range want {
					if !bytes.Equal(files[n].data, img) {
						t.Fatalf("seed %d step %d: %s after reboot differs from the full-copy model", seed, step, n)
					}
				}
			}
			for _, n := range names {
				if !bytes.Equal(files[n].durable, model[n]) {
					t.Fatalf("seed %d step %d: %s durable image differs from the full-copy model", seed, step, n)
				}
			}
		}
	}
}

// fullCopyReboot resolves a crash the way Reboot does, but from the model's
// durable images; it sets model to the surviving images and returns them.
func fullCopyReboot(fs *SimFS, model map[string][]byte) map[string][]byte {
	rng := rand.New(rand.NewSource(fs.seed*1_000_003 + fs.ops))
	names := make([]string, 0, len(fs.files))
	for name := range fs.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fs.files[name]
		survived := append([]byte(nil), model[name]...)
		sectors := make([]int64, 0, len(f.dirty))
		for s := range f.dirty {
			sectors = append(sectors, s)
		}
		sort.Slice(sectors, func(i, j int) bool { return sectors[i] < sectors[j] })
		for _, s := range sectors {
			if rng.Intn(2) == 0 {
				continue
			}
			lo, hi := s*SectorSize, min((s+1)*SectorSize, int64(len(f.data)))
			if lo >= hi {
				continue
			}
			if hi > int64(len(survived)) {
				survived = append(survived, make([]byte, hi-int64(len(survived)))...)
			}
			copy(survived[lo:hi], f.data[lo:hi])
		}
		model[name] = survived
	}
	return model
}
