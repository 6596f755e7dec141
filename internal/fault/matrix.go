// Package fault is the crash-matrix engine: one body that runs a seeded
// workload against a database on the simulated disk (vfs.SimFS), injects one
// fault at a chosen coordinate, reboots the disk with torn and lost sectors,
// brings the survivor back, and checks it against a reference model recorded
// at runtime. What varies between matrices — which workload runs, where the
// fault is armed, how the survivor is reopened — is a Scenario value; the
// model, the oracle, the forward-life check, the failure report and the
// replay coordinate exist once, here.
//
// Determinism contract: for the single-threaded scenarios the sequence of
// database calls, and therefore of disk operations, is a function of the
// seed alone; the coordinate's point only chooses where the run is cut
// short. That is what makes "crash at operation N" replayable: a failing
// coordinate re-runs bit-identically. The Racy scenarios drive concurrent
// committers, so their disk-op sequence varies with the interleaving; they
// are self-verifying (the model is whatever the run saw acknowledged) and a
// coordinate localizes a failure without reproducing it exactly.
package fault

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"immortaldb"
	"immortaldb/internal/itime"
	"immortaldb/internal/storage/vfs"
	"immortaldb/internal/wal"
)

// Coord is one matrix coordinate, written <scenario>:<seed>:<point>[:<extra>]
// — the single replay dialect shared by tests, failure reports and CI.
type Coord struct {
	// Scenario names the Scenario value.
	Scenario string
	// Seed drives the workload generator and the disk's torn-write coin flips.
	Seed int64
	// Point places the fault: the 1-based disk operation, counted from where
	// the scenario arms it, at which the disk crashes (or, for the persistence
	// scenarios, at which the sustained fault starts). 0 runs the workload
	// fault-free to a clean close, which is how a sweep learns its size.
	Point int64
	// Extra is scenario-specific: "<kind>:<count>" for the persistence
	// scenarios, an optional group-commit window ("200us") for the
	// concurrent ones.
	Extra string
}

func (c Coord) String() string {
	s := fmt.Sprintf("%s:%d:%d", c.Scenario, c.Seed, c.Point)
	if c.Extra != "" {
		s += ":" + c.Extra
	}
	return s
}

// ParseCoord parses the -matrix flag syntax. The point may be omitted
// ("tiered:7"), meaning the whole sweep of that scenario under that seed.
func ParseCoord(s string) (Coord, error) {
	f := strings.SplitN(s, ":", 4)
	c := Coord{Scenario: f[0]}
	if ByName(c.Scenario) == nil {
		return c, fmt.Errorf("fault: unknown scenario %q (have %s)", c.Scenario, strings.Join(Names(), ", "))
	}
	if len(f) < 2 {
		return c, fmt.Errorf("fault: coordinate %q: want <scenario>:<seed>[:<point>[:<extra>]]", s)
	}
	var err error
	if c.Seed, err = strconv.ParseInt(f[1], 10, 64); err != nil {
		return c, fmt.Errorf("fault: coordinate %q: seed: %w", s, err)
	}
	if len(f) > 2 {
		if c.Point, err = strconv.ParseInt(f[2], 10, 64); err != nil {
			return c, fmt.Errorf("fault: coordinate %q: point: %w", s, err)
		}
	}
	if len(f) > 3 {
		c.Extra = f[3]
	}
	return c, nil
}

// Scenario is one matrix: what it drives and how its survivor comes back.
// Everything else — disk and options construction, the model, the oracle,
// forward life, reporting — is the shared body below.
type Scenario struct {
	Name string
	// Tiered turns tiered history on and follows every workload checkpoint
	// with a CompactHistory pass, so faults land inside cold-run writes,
	// manifest flips, chain cuts and page reclamation.
	Tiered bool
	// Racy marks a scenario whose disk-op sequence depends on goroutine
	// interleaving: its coordinates are not bit-replayable and a late point
	// may finish cleanly before the crash fires.
	Racy bool
	// Txns is the number of transactions the (primary) workload attempts.
	Txns int
	// Kinds lists the sustained-fault shapes a persistence scenario sweeps.
	Kinds []Kind
	// Drive runs the seeded workload on r.FS up to the fault r.Coord places,
	// recording what was acknowledged in r.Writers and any scenario state
	// Reopen needs. It arms the fault itself (r.arm) at the point its matrix
	// starts counting from.
	Drive func(r *Result)
	// Live, if set, checks the engine's behaviour before the reboot, from
	// what Drive recorded while the fault was still in force.
	Live func(r *Result) error
	// Reopen brings the survivor back on the rebooted disk, including any
	// scenario-specific recovery steps and the checks entangled with them.
	// Nil reopens dirName as an ordinary primary.
	Reopen func(r *Result) (*immortaldb.DB, error)
}

// Result captures one run: the faulted disk, the model, and how it ended.
type Result struct {
	Scenario *Scenario
	Coord    Coord
	// FS is the disk the fault is injected into (the follower's, in the
	// replication scenarios).
	FS *vfs.SimFS
	// Writers is the reference model, recorded at runtime.
	Writers []*Writer

	// SetupDone is false when the fault hit during initial Open/CreateTable,
	// before any transaction ran.
	SetupDone bool
	// Skipped counts transactions abandoned mid-write on a tolerated fault.
	Skipped int
	// Clean is true when the workload ran to the end and closed cleanly.
	Clean bool
	// Err is the first error the workload observed — the injected fault, on a
	// healthy engine.
	Err error
	// Ops is the size of the coordinate space a fault-free run spans: disk
	// operations from the arming point to the clean close.
	Ops int64
	// Trace is the tail of the disk-operation log at the end of the run.
	Trace []vfs.Op

	armed    bool  // a crash point was set
	armedAt  int64 // FS.OpCount() when the scenario armed the fault
	executed int64 // FS.OpCount() at the end of the run
	crashed  bool

	commitEvery time.Duration // concurrent scenarios: group-commit window
	stopPump    func()        // stops the pump a group-commit window needs

	// Persistence scenarios: how the engine behaved once the disk started
	// failing. Degraded is DB.Degraded() != nil at the end of the writing
	// phase; the scan and write probes were taken while it was.
	Degraded         bool
	DegradedScan     map[string]string
	DegradedScanErr  error
	DegradedWriteErr error

	// Replication scenarios. Primary stays open for Verify (which resyncs
	// from it and closes it). Synced is the follower's last durably
	// acknowledged horizon, which recovery must never fall below;
	// PromotedEpoch is what Promote returned, 0 if it never did.
	Primary       *immortaldb.DB
	Synced        immortaldb.ReplicaHorizon
	PromotedEpoch uint64
}

const (
	dirName    = "crashsim"
	primaryDir = "crashsim-primary"
	tableName  = "t"
)

// workloadStart is the fixed simulated wall-clock origin.
var workloadStart = time.Date(2006, 4, 3, 12, 0, 0, 0, time.UTC)

// options builds the small-geometry engine options every scenario runs
// under. The compactor interval stays zero: matrices call CompactHistory at
// fixed workload points so the I/O sequence remains deterministic.
func (r *Result) options(fs *vfs.SimFS) *immortaldb.Options {
	return &immortaldb.Options{
		PageSize:       1024,
		CacheFrames:    8,
		Clock:          itime.NewSimClock(workloadStart),
		FS:             fs,
		FullPageWrites: true,
		// Small segments force frequent WAL rotation, so faults land inside
		// segment creation and switch-over too.
		WALSegmentSize: 4096,
		TieredHistory:  r.Scenario.Tiered,
	}
}

// create opens a fresh database in dir on fs and creates the workload table.
// Only the driven database waits out a group-commit window: reopens for
// recovery run without one.
func (r *Result) create(fs *vfs.SimFS, dir string, retainWAL bool) (*immortaldb.DB, *immortaldb.Table, *itime.SimClock, error) {
	opts := r.options(fs)
	opts.RetainWAL = retainWAL
	opts.CommitEvery = r.commitEvery
	clock := opts.Clock.(*itime.SimClock)
	if r.commitEvery > 0 {
		// The group-commit leader waits out its window on the engine's
		// clock, so something must move it: a pump stepping one window per
		// poll keeps that wait near one poll of real time. Run stops it.
		r.stopPump = clock.StartPump(0, r.commitEvery)
	}
	db, err := immortaldb.Open(dir, opts)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("open: %w", err)
	}
	tbl, err := db.CreateTable(tableName, immortaldb.TableOptions{Immortal: true})
	if err != nil {
		db.Close()
		return nil, nil, nil, fmt.Errorf("create table: %w", err)
	}
	return db, tbl, clock, nil
}

// arm sets the crash point relative to the disk operations executed so far,
// and marks where the scenario's coordinate space begins.
func (r *Result) arm() {
	r.armedAt = r.FS.OpCount()
	if r.Coord.Point > 0 {
		r.armed = true
		r.FS.SetCrashAt(r.armedAt + r.Coord.Point)
	}
}

// writer adds a model writer owning the keys that start with prefix.
func (r *Result) writer(prefix string) *Writer {
	w := &Writer{Prefix: prefix}
	r.Writers = append(r.Writers, w)
	return w
}

// finish ends a Drive. After an error the disk has usually failed under db,
// so its Close is best effort; otherwise Close must succeed for the run to
// count as clean.
func (r *Result) finish(db *immortaldb.DB) {
	if r.Err == nil && !r.Degraded {
		r.Err = db.Close()
	} else {
		db.Close()
	}
	r.Clean = r.Err == nil && !r.Degraded && r.Skipped == 0
	r.Ops = r.FS.OpCount() - r.armedAt
}

// Run executes the scenario c names, with the fault c places.
func Run(c Coord) *Result {
	r := &Result{Scenario: ByName(c.Scenario), Coord: c, FS: vfs.NewSim(c.Seed)}
	r.Scenario.Drive(r)
	if r.stopPump != nil {
		r.stopPump()
	}
	r.Trace = r.FS.Trace()
	r.executed = r.FS.OpCount()
	r.crashed = r.FS.Crashed() || errors.Is(r.Err, vfs.ErrCrashed)
	return r
}

// Crashed reports whether the run was cut short by the injected crash, as
// opposed to finishing or failing without it.
func Crashed(r *Result) bool { return r.crashed }

// injected reports whether err traces back to a sustained fault (directly,
// through the WAL's failure latch, or through the engine's degradation).
func injected(err error) bool {
	return errors.Is(err, vfs.ErrInjectedIO) ||
		errors.Is(err, vfs.ErrNoSpace) ||
		errors.Is(err, vfs.ErrInjectedSync) ||
		errors.Is(err, wal.ErrFailed) ||
		errors.Is(err, immortaldb.ErrDegraded)
}

// Verify reboots the faulted disk, brings the survivor back through the
// scenario's Reopen, and runs the shared oracle:
//
//  1. Containment: every error the workload saw is explained by the fault —
//     in a crash scenario, no error at all unless the crash fired.
//  2. Durability/atomicity: per writer, the current state equals the replay
//     of its acknowledged transactions — plus, all or nothing, the single
//     maybe-committed one. No ghosts, no partial transactions, no
//     rolled-back data.
//  3. History: AS OF every acknowledged commit timestamp reproduces the
//     writer's model prefix (see check).
//  4. Forward life: a sentinel transaction commits, a checkpoint (which
//     flush-stamps recovered pages and hardens the PTT) and, when tiered, a
//     compaction succeed, and a second clean reopen in the same role keeps
//     the epoch and re-verifies everything. A survivor that is still a
//     replica skips the writes and proves the reopen alone.
func Verify(r *Result) error {
	sc := r.Scenario
	if r.Primary != nil {
		defer r.Primary.Close()
	}
	switch {
	case len(sc.Kinds) > 0:
		// A sustained fault explains the errors it raises and their typed
		// consequences (the WAL's failure latch, the engine's degradation).
		if r.Err != nil && !injected(r.Err) {
			return fmt.Errorf("engine error not explained by the injected fault: %w", r.Err)
		}
	case !r.crashed:
		// Only the crash explains an error in a crash scenario. r.Err is the
		// first error of any writer or of Close, so nil covers them all.
		if r.Err != nil {
			return fmt.Errorf("workload failed without a crash: %w", r.Err)
		}
		if r.armed && !sc.Racy {
			return fmt.Errorf("workload finished without hitting the crash point (%d ops executed)", r.executed)
		}
	}
	if sc.Live != nil {
		if err := sc.Live(r); err != nil {
			return err
		}
	}

	// Whatever was never synced is now at the mercy of the reboot, which also
	// clears any sustained fault.
	r.FS.Crash()
	r.FS.Reboot()

	model := make([]*Writer, len(r.Writers))
	pending := false
	for i, w := range r.Writers {
		c := *w // check folds resolved pendings into its own copy
		model[i] = &c
		pending = pending || w.Pending != nil
	}
	acked := r.Acked()

	reopen := sc.Reopen
	if reopen == nil {
		reopen = func(r *Result) (*immortaldb.DB, error) { return immortaldb.Open(dirName, r.options(r.FS)) }
	}
	db, err := reopen(r)
	if err != nil {
		if !r.SetupDone && acked == 0 && !pending {
			// Creation window: the database never finished coming into
			// existence and holds no committed data; a clean refusal to open
			// is acceptable.
			return nil
		}
		return fmt.Errorf("reopen after recovery failed: %w", err)
	}
	defer db.Close() // harmless after the explicit Close below
	tbl, err := db.Table(tableName)
	if err != nil {
		if acked == 0 {
			// The fault hit before CreateTable became durable and nothing was
			// ever acknowledged; an absent table is a valid outcome.
			return nil
		}
		return fmt.Errorf("table lost despite %d acked commits: %w", acked, err)
	}
	if err := check(db, tbl, model); err != nil {
		return err
	}

	replica := db.IsReplica()
	if !replica {
		txn, err := commit(db, tbl, Event{Key: "sentinel", Val: "alive"})
		if err != nil {
			return fmt.Errorf("post-recovery commit: %w", err)
		}
		model = append(model, &Writer{Prefix: "sentinel", Acked: []Txn{txn}})
		if err := db.Checkpoint(); err != nil {
			return fmt.Errorf("post-recovery checkpoint: %w", err)
		}
		if sc.Tiered {
			// Migration after recovery reads a disk image that may hold a torn
			// migration from before the fault; the re-check reads through the
			// cold runs it just wrote.
			if err := db.CompactHistory(); err != nil {
				return fmt.Errorf("post-recovery history compaction: %w", err)
			}
			if err := check(db, tbl, model); err != nil {
				return fmt.Errorf("post-compaction: %w", err)
			}
		}
	}
	epoch := db.Epoch()
	if err := db.Close(); err != nil {
		return fmt.Errorf("post-recovery close: %w", err)
	}
	open := immortaldb.Open
	if replica {
		open = immortaldb.OpenReplica
	}
	db2, err := open(dirName, r.options(r.FS))
	if err != nil {
		return fmt.Errorf("second reopen: %w", err)
	}
	defer db2.Close()
	if got := db2.Epoch(); got != epoch {
		return fmt.Errorf("epoch lost across clean reopen: %d != %d", got, epoch)
	}
	tbl2, err := db2.Table(tableName)
	if err != nil {
		return fmt.Errorf("table lost on second reopen: %w", err)
	}
	if err := check(db2, tbl2, model); err != nil {
		return fmt.Errorf("second reopen: %w", err)
	}
	return nil
}

// Describe renders a failure with its replay coordinate and enough context
// to read it: how far the run got, the model's size, each writer's first
// error, and the last disk operations before the fault.
func Describe(r *Result) string {
	var b strings.Builder
	pending := 0
	for _, w := range r.Writers {
		if w.Pending != nil {
			pending++
		}
	}
	fmt.Fprintf(&b, "-matrix=%s armed-at=%d ops-executed=%d acked=%d pending=%d skipped=%d setup-done=%v clean=%v crashed=%v degraded=%v",
		r.Coord, r.armedAt, r.executed, r.Acked(), pending, r.Skipped, r.SetupDone, r.Clean, r.crashed, r.Degraded)
	if r.Primary != nil {
		fmt.Fprintf(&b, " acked-lsn=%d promoted-epoch=%d", r.Synced.AppliedLSN, r.PromotedEpoch)
	}
	how := "replay"
	if r.Scenario.Racy {
		how = "rerun (not bit-identical)"
	}
	fmt.Fprintf(&b, "\n%s: go test -run TestMatrix -matrix=%s .\n", how, r.Coord)
	if r.Err != nil {
		fmt.Fprintf(&b, "first error: %v\n", r.Err)
	}
	if len(r.Writers) > 1 {
		for _, w := range r.Writers {
			fmt.Fprintf(&b, "writer %q:", w.Prefix)
			for _, txn := range w.Acked {
				fmt.Fprintf(&b, " %d@%v", txn.TID, txn.TS)
			}
			if w.Pending != nil {
				fmt.Fprintf(&b, " pending=%d", w.Pending.TID)
			}
			if w.Err != nil {
				fmt.Fprintf(&b, " error: %v", w.Err)
			}
			fmt.Fprintf(&b, "\n")
		}
	}
	fmt.Fprintf(&b, "last disk ops before the fault:\n")
	for _, op := range r.Trace {
		fmt.Fprintf(&b, "  %s\n", op.String())
	}
	return b.String()
}

// Fingerprint summarizes everything a deterministic scenario must reproduce
// from its seed alone: the size of the coordinate space, every commit
// timestamp, and the replication horizon and epoch.
func (r *Result) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ops=%d lsn=%d visible=%v epoch=%d commits=", r.Ops, r.Synced.AppliedLSN, r.Synced.MaxVisible, r.PromotedEpoch)
	for _, w := range r.Writers {
		for _, txn := range w.Acked {
			fmt.Fprintf(&b, "%v ", txn.TS)
		}
	}
	return b.String()
}
