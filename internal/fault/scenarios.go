package fault

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"immortaldb"
	"immortaldb/internal/storage/vfs"
)

// scenarios is the registry: the eight matrices, as values.
var scenarios = []*Scenario{
	// Crash at every disk operation of a single-threaded committed workload:
	// every page write, log write, timestamp-table write and fsync across the
	// commit, fuzzy-checkpoint, time-split, PTT-hardening and lazy-stamping
	// paths.
	{Name: "sequential", Txns: 60, Drive: driveSequential},
	// The same with tiered history: crash points also land inside cold-run
	// writes, the WAL records that anchor them, the dual-slot manifest flip,
	// the chain-cut SMOs and the reclamation of migrated pages.
	{Name: "tiered", Tiered: true, Txns: 60, Drive: driveSequential},
	// Crash while several goroutines commit through the group-commit pipeline
	// (Extra: an optional CommitEvery window).
	{Name: "concurrent", Racy: true, Drive: driveConcurrent},
	{Name: "tiered-concurrent", Racy: true, Tiered: true, Drive: driveConcurrent},
	// Keep the machine running on a disk that starts failing at Point and
	// keeps failing for a chosen number of operations (Extra: kind:count).
	{Name: "persistence", Txns: 24, Kinds: diskKinds, Drive: drivePersistence, Live: checkContained},
	{Name: "tiered-persistence", Tiered: true, Txns: 36, Kinds: histKinds, Drive: drivePersistence, Live: checkContained},
	// Crash a follower's disk while it ingests and applies a primary's log.
	{Name: "replica", Txns: 40, Drive: driveReplica, Reopen: reopenReplica},
	// Crash a follower's disk during its promotion to primary.
	{Name: "promotion", Txns: 40, Drive: drivePromotion, Reopen: finishFailover},
}

// ByName returns the named scenario, or nil.
func ByName(name string) *Scenario {
	for _, sc := range scenarios {
		if sc.Name == name {
			return sc
		}
	}
	return nil
}

// Names lists the scenarios in registry order.
func Names() []string {
	names := make([]string, len(scenarios))
	for i, sc := range scenarios {
		names[i] = sc.Name
	}
	return names
}

// driveSequential arms the crash before the database exists, so the matrix
// covers Open and CreateTable too.
func driveSequential(r *Result) {
	r.arm()
	db, tbl, clock, err := r.create(r.FS, dirName, false)
	if err != nil {
		r.Err = err
		return
	}
	r.SetupDone = true
	r.Err = serial(r, db, tbl, clock, r.writer("k"), sequentialSpec)
	r.finish(db)
}

// driveConcurrent arms the crash after setup, so every point lands in the
// concurrent commit phase.
func driveConcurrent(r *Result) {
	if r.Coord.Extra != "" {
		var err error
		if r.commitEvery, err = time.ParseDuration(r.Coord.Extra); err != nil {
			r.Err = fmt.Errorf("coordinate extra: %w", err)
			return
		}
	}
	db, tbl, clock, err := r.create(r.FS, dirName, false)
	if err != nil {
		r.Err = err
		return
	}
	r.SetupDone = true
	// Workers advance the clock implicitly: one tick every few reads keeps
	// commit timestamps spread over wall ticks while still exercising the
	// same-tick sequence-number tie-break.
	clock.AutoStep = 1
	clock.AutoEvery = 3
	r.arm()
	r.Err = concurrent(r, db, tbl)
	r.finish(db)
}

// Kind is one named sustained-fault shape. The File/Op selectors aim the
// fault at a particular layer (WAL segments, page file, timestamp table,
// cold tier) or at everything.
type Kind struct {
	Name  string
	Fault vfs.Fault
}

// walSegPrefix matches WAL segment files ("wal.log.00000001", ...) but not
// the tiny control file, so the fault lands on record writes.
const walSegPrefix = "wal.log."

var diskKinds = []Kind{
	{"wal-write-eio", vfs.Fault{Op: vfs.OpWrite, File: walSegPrefix, Err: vfs.ErrInjectedIO}},
	{"pages-write-eio", vfs.Fault{Op: vfs.OpWrite, File: "data.pages", Err: vfs.ErrInjectedIO}},
	{"ptt-write-eio", vfs.Fault{Op: vfs.OpWrite, File: "ptt.cow", Err: vfs.ErrInjectedIO}},
	{"any-write-enospc", vfs.Fault{Op: vfs.OpWrite, Err: vfs.ErrNoSpace}},
	{"truncate-enospc", vfs.Fault{Op: vfs.OpTruncate, Err: vfs.ErrNoSpace}},
	{"sync-eio", vfs.Fault{Op: vfs.OpSync, Err: vfs.ErrInjectedIO}},
	{"sync-fsyncgate", vfs.Fault{Op: vfs.OpSync, Err: vfs.ErrInjectedIO, DropDirty: true}},
	{"read-eio", vfs.Fault{Op: vfs.OpRead, Err: vfs.ErrInjectedIO}},
}

// histKinds aim at the tiered history path: cold-run writes, the manifest
// double-write flip, and the reclamation of merged-away runs and migrated
// hot pages. They only have a target while a migration or compaction is in
// flight. A compactor hitting any of them must trip the read-only latch
// without corrupting acked history; reclamation faults at worst leave
// garbage files that a later open sweeps.
var histKinds = []Kind{
	{"hist-run-write-eio", vfs.Fault{Op: vfs.OpWrite, File: ".run.", Err: vfs.ErrInjectedIO}},
	{"hist-write-enospc", vfs.Fault{Op: vfs.OpWrite, File: "hist.", Err: vfs.ErrNoSpace}},
	{"hist-manifest-sync-eio", vfs.Fault{Op: vfs.OpSync, File: ".manifest.", Err: vfs.ErrInjectedIO}},
	{"hist-reclaim-remove-eio", vfs.Fault{Op: vfs.OpRemove, File: "hist.", Err: vfs.ErrInjectedIO}},
}

// drivePersistence injects the sustained fault Extra names ("<kind>:<count>",
// count -1 = never clears) starting at I/O operation Point — reads included,
// so its coordinate space is IOOpCount — and runs the tolerant workload
// until the engine degrades or the transactions run out.
func drivePersistence(r *Result) {
	if r.Coord.Point > 0 {
		name, count, _ := strings.Cut(r.Coord.Extra, ":")
		n, err := strconv.ParseInt(count, 10, 64)
		if err != nil {
			r.Err = fmt.Errorf("coordinate extra %q: want <kind>:<count>: %w", r.Coord.Extra, err)
			return
		}
		var f vfs.Fault
		for _, k := range r.Scenario.Kinds {
			if k.Name == name {
				f = k.Fault
			}
		}
		if f.Op == "" {
			r.Err = fmt.Errorf("coordinate extra: scenario %s has no fault kind %q", r.Scenario.Name, name)
			return
		}
		f.StartOp, f.Count = r.Coord.Point, n
		r.FS.InjectFault(f)
	}
	db, tbl, clock, err := r.create(r.FS, dirName, false)
	if err != nil {
		r.Err = err
		return
	}
	r.SetupDone = true
	r.Err = serial(r, db, tbl, clock, r.writer("k"), persistenceSpec)
	if r.Degraded = db.Degraded() != nil; r.Degraded {
		// The containment contract, probed live. Close then skips the final
		// checkpoint/flush; the reboot models the operator restart.
		r.DegradedScan, r.DegradedScanErr = scanCurrent(db, tbl)
		_, r.DegradedWriteErr = commit(db, tbl, Event{Key: "probe", Val: "boom"})
	}
	r.finish(db)
	r.Ops = r.FS.IOOpCount()
}

// checkContained is the persistence scenarios' live check: while degraded,
// reads kept working from clean state and writes failed typed, before any
// acknowledgement.
func checkContained(r *Result) error {
	if !r.Degraded {
		return nil
	}
	if r.DegradedScanErr != nil {
		return fmt.Errorf("reads unavailable while degraded: %w", r.DegradedScanErr)
	}
	base := map[string]string{}
	for _, txn := range r.Writers[0].Acked {
		apply(base, txn.Events)
	}
	if !equal(r.DegradedScan, base) {
		return fmt.Errorf("degraded-mode read diverges from acked commits:\n%s", diff(r.DegradedScan, base))
	}
	if !errors.Is(r.DegradedWriteErr, immortaldb.ErrDegraded) {
		return fmt.Errorf("write on degraded engine returned %v, want ErrDegraded", r.DegradedWriteErr)
	}
	return nil
}

const (
	// replChunkMax keeps shipped chunks small so a sweep crosses many
	// ingest/sync/apply boundaries.
	replChunkMax = 1536
	// replApplyStep bounds each ReplicaApply call, pausing redo between
	// records so crash points land mid-redo, not only at chunk boundaries.
	replApplyStep = 3
)

// runPrimary executes the sequential workload on a healthy disk of its own
// and leaves the database open in r.Primary for shipping. Everything it
// commits is acknowledged, so none of it may be missing from a follower that
// has caught up.
func runPrimary(r *Result) error {
	// The follower syncs from genesis: keep every segment.
	db, tbl, clock, err := r.create(vfs.NewSim(r.Coord.Seed^0x1ead), primaryDir, true)
	if err == nil {
		if err = serial(r, db, tbl, clock, r.writer("k"), sequentialSpec); err != nil {
			db.Close()
		}
	}
	if err != nil {
		return fmt.Errorf("primary workload: %w", err)
	}
	r.Primary = db
	return nil
}

// shipAll streams the primary's durable log into the follower from the
// follower's current end: ingest a chunk, fsync it, apply it in bounded redo
// steps. After each fully applied chunk the follower's horizon is durably
// backed, so the caller may record it as acknowledged.
func shipAll(pdb, fdb *immortaldb.DB, acked func(immortaldb.ReplicaHorizon)) error {
	plog, flog := pdb.Log(), fdb.Log()
	for {
		ch, err := plog.ShipRead(flog.End(), replChunkMax)
		if err != nil {
			return err
		}
		if len(ch.Data) == 0 {
			return nil
		}
		if err := flog.IngestChunk(ch); err != nil {
			return err
		}
		if err := flog.SyncIngested(); err != nil {
			return err
		}
		for {
			n, err := fdb.ReplicaApply(replApplyStep)
			if err != nil {
				return err
			}
			if n == 0 {
				break
			}
		}
		if acked != nil {
			acked(fdb.Horizon())
		}
	}
}

// driveReplica crashes the follower's disk anywhere in its life: chunk
// ingestion, the fsync of ingested segments, continuous redo, or the replica
// checkpoints the primary's checkpoint records drive.
func driveReplica(r *Result) {
	if r.Err = runPrimary(r); r.Err != nil {
		return
	}
	r.arm()
	fdb, err := immortaldb.OpenReplica(dirName, r.options(r.FS))
	if err != nil {
		r.Err = err
		return
	}
	r.Err = shipAll(r.Primary, fdb, func(h immortaldb.ReplicaHorizon) { r.Synced = h })
	r.finish(fdb)
}

// checkHorizon verifies the reopened replica is at or above the last durably
// acknowledged position: the horizon never regresses across a crash.
func checkHorizon(r *Result, fdb *immortaldb.DB) error {
	h := fdb.Horizon()
	if h.AppliedLSN < r.Synced.AppliedLSN {
		return fmt.Errorf("horizon regressed across crash: applied %d < acked %d", h.AppliedLSN, r.Synced.AppliedLSN)
	}
	if h.MaxVisible.Less(r.Synced.MaxVisible) {
		return fmt.Errorf("visibility regressed across crash: %v < acked %v", h.MaxVisible, r.Synced.MaxVisible)
	}
	return nil
}

// reopenReplica reopens the follower (ordinary recovery over its
// byte-identical log copy) and resyncs it from its own log end — no
// acknowledged byte is shipped twice, no gap is left — so the shared oracle
// then demands every primary commit of it. A follower whose directory was
// torn before anything was acknowledged may instead wipe and reseed from
// genesis, exactly as the live follower does.
func reopenReplica(r *Result) (*immortaldb.DB, error) {
	fdb, err := immortaldb.OpenReplica(dirName, r.options(r.FS))
	if err != nil {
		if r.Synced.AppliedLSN != 0 {
			return nil, fmt.Errorf("despite acked position %d: %w", r.Synced.AppliedLSN, err)
		}
		if lerr := immortaldb.WipeDir(dirName, &immortaldb.Options{FS: r.FS}); lerr != nil {
			return nil, fmt.Errorf("wipe after failed reopen: %w (reopen error: %v)", lerr, err)
		}
		if fdb, err = immortaldb.OpenReplica(dirName, r.options(r.FS)); err != nil {
			return nil, fmt.Errorf("after wipe: %w", err)
		}
	}
	if err := checkHorizon(r, fdb); err != nil {
		fdb.Close()
		return nil, err
	}
	if err := shipAll(r.Primary, fdb, nil); err != nil {
		fdb.Close()
		return nil, fmt.Errorf("resync after crash: %w", err)
	}
	return fdb, nil
}

// The deposed primary's doomed transaction: one write to a key inside the
// workload space (so a resurrected commit corrupts the current-state
// comparison) and one to a marker key no writer owns (so it would surface as
// a ghost). The padding guarantees the first zombieShipMax shipped bytes can
// never contain the whole transaction.
const (
	zombieKey     = "zombie"
	zombieShipMax = 96
	zombiePadding = 300
)

// drivePromotion replicates the primary to the end on a healthy disk, lets
// the — now partitioned — primary commit one more zombie transaction of
// which only a half-shipped frame reaches the follower, and then promotes
// the follower on a disk armed to crash inside the promotion itself: the
// final redo drain, the fence trim's physical truncation, the promote record
// append and fsync, the promotion checkpoint, the survivor's first own
// commit, or its close.
func drivePromotion(r *Result) {
	// A follower disk salted differently from the replica scenario's.
	r.FS = vfs.NewSim(r.Coord.Seed ^ 0x9107)
	if r.Err = runPrimary(r); r.Err != nil {
		return
	}
	fdb, err := immortaldb.OpenReplica(dirName, r.options(r.FS))
	if err != nil {
		r.Err = err
		return
	}
	r.Err = func() error {
		// Everything shipped here was fsynced and applied: all acknowledged.
		if err := shipAll(r.Primary, fdb, func(h immortaldb.ReplicaHorizon) { r.Synced = h }); err != nil {
			return fmt.Errorf("catch-up: %w", err)
		}
		ptbl, err := r.Primary.Table(tableName)
		if err != nil {
			return err
		}
		pad := strings.Repeat("z", zombiePadding)
		if _, err := commit(r.Primary, ptbl, Event{Key: "k00", Val: "ZOMBIE-" + pad}, Event{Key: zombieKey, Val: pad}); err != nil {
			return fmt.Errorf("zombie commit: %w", err)
		}
		ch, err := r.Primary.Log().ShipRead(fdb.Log().End(), zombieShipMax)
		if err != nil {
			return fmt.Errorf("zombie partial ship: %w", err)
		}
		if len(ch.Data) == 0 {
			return errors.New("zombie partial ship: primary produced no bytes")
		}
		if err := fdb.Log().IngestChunk(ch); err != nil {
			return fmt.Errorf("zombie partial ingest: %w", err)
		}
		if err := fdb.Log().SyncIngested(); err != nil {
			return fmt.Errorf("zombie partial sync: %w", err)
		}
		if _, err := fdb.ReplicaApply(0); err != nil {
			return fmt.Errorf("zombie partial apply: %w", err)
		}

		r.arm()
		if r.PromotedEpoch, err = fdb.Promote(); err != nil {
			return err
		}
		// The survivor's first own commit and its close sit inside the matrix
		// on purpose. Until acked the write is maybe-committed.
		tbl, err := fdb.Table(tableName)
		if err != nil {
			return err
		}
		w := r.writer("promoted")
		w.Pending = &Txn{Events: []Event{{Key: "promoted", Val: "written-after-failover"}}}
		txn, err := commit(fdb, tbl, w.Pending.Events...)
		if err != nil {
			return fmt.Errorf("post-promotion write: %w", err)
		}
		w.Acked, w.Pending = []Txn{txn}, nil
		return nil
	}()
	r.finish(fdb)
}

// finishFailover drives a crashed promotion to completion and checks the
// promotion contract the shared oracle cannot see:
//
//   - the survivor reopens as a replica first — always safe (recovery over
//     the local chain, writes still fenced) — with its acknowledged horizon
//     intact, and recovery surfaces the durable epoch. If the promote record
//     survived, the node IS the primary and a supervisor reopens it as one
//     without promoting again; otherwise a retried Promote must succeed;
//   - its epoch is strictly above the deposed primary's, and its sealed log
//     refuses further ingestion from any old stream.
//
// The oracle then proves no acked commit was lost and no byte of the zombie
// commit survived: the marker key would be a ghost, the k00 overwrite a
// divergence from the model.
func finishFailover(r *Result) (*immortaldb.DB, error) {
	sdb, err := immortaldb.OpenReplica(dirName, r.options(r.FS))
	if err != nil {
		return nil, fmt.Errorf("despite acked position %d: %w", r.Synced.AppliedLSN, err)
	}
	if err := checkHorizon(r, sdb); err != nil {
		sdb.Close()
		return nil, err
	}
	if durable := sdb.Epoch(); r.PromotedEpoch != 0 && durable >= r.PromotedEpoch {
		if err := sdb.Close(); err != nil {
			return nil, fmt.Errorf("close before primary reopen: %w", err)
		}
		if sdb, err = immortaldb.Open(dirName, r.options(r.FS)); err != nil {
			return nil, fmt.Errorf("reopen as primary (durable epoch %d): %w", durable, err)
		}
		if got := sdb.Epoch(); got != durable {
			sdb.Close()
			return nil, fmt.Errorf("epoch lost across primary reopen: %d != %d", got, durable)
		}
	} else if epoch, err := sdb.Promote(); err != nil || epoch == 0 {
		sdb.Close()
		return nil, fmt.Errorf("promotion retry after crash returned epoch %d: %v", epoch, err)
	}
	err = func() error {
		if sdb.IsReplica() {
			return errors.New("survivor still a replica after failover")
		}
		if se, pe := sdb.Epoch(), r.Primary.Epoch(); se <= pe {
			return fmt.Errorf("survivor epoch %d does not fence deposed primary epoch %d", se, pe)
		}
		// A retargeting bug or a zombie shipper must not be able to graft
		// onto this timeline.
		if ch, err := r.Primary.Log().ShipRead(0, 64); err == nil && len(ch.Data) > 0 {
			ch.At = sdb.Log().End()
			if sdb.Log().IngestChunk(ch) == nil {
				return errors.New("promoted survivor's log accepted an ingested chunk")
			}
		}
		return nil
	}()
	if err != nil {
		sdb.Close()
		return nil, err
	}
	return sdb, nil
}
