package immortaldb

// Tiered history storage: migration of cold TSB history pages into the
// compressed immutable run files of internal/hist, plus the background
// compactor that merges small runs into larger levels.
//
// One migration pass per table follows a strict order so that a crash at any
// point loses nothing and duplicates nothing observable:
//
//  1. CollectCold (shared lock) extracts the versions of migratable history
//     pages.
//  2. Per run chunk: a TypeHistRun record is appended (redo idempotence and
//     replica visibility), then the run file is written and fsynced — the
//     file is the durability authority.
//  3. The staged manifest (Ver+1) is appended as TypeHistManifest, the log
//     is flushed to it, and the dual-slot manifest install flips the cold
//     tier to the new run set. From here the migrated versions are served
//     cold.
//  4. CutCold (exclusive lock) severs every chain edge into the victims,
//     one logged SMO per cut page; the log is flushed to the last cut.
//  5. The victim pages are dropped from the buffer pool and freed.
//
// A crash between 3 and 4 leaves versions reachable both through the chain
// and the manifest — benign, because the read path consults the cold tier
// only when a chain ends, so chain-reachable versions are never also asked
// of cold, and a re-migration's duplicate cold entries are (key, TS)-deduped
// at read and compaction time. A crash between 4 and 5 leaks pages until the
// next pass. Any I/O failure latches the engine read-only-degraded; the cold
// tier already installed stays readable.

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"immortaldb/internal/hist"
	"immortaldb/internal/itime"
	"immortaldb/internal/obs"
	"immortaldb/internal/storage/page"
	"immortaldb/internal/tsb"
	"immortaldb/internal/wal"
)

// histRunTarget caps one run file's (approximate, pre-compression) size. A
// variable only so a test can build many-run tiers from little data.
var histRunTarget = 4 << 20

// histFanout is the number of same-level runs that triggers a merge into the
// next level.
const histFanout = 4

// ErrTieredOff reports CompactHistory on a database opened without
// Options.TieredHistory.
var ErrTieredOff = errors.New("immortaldb: TieredHistory not enabled")

var obsHistCompactLatency = obs.NewHistogram("hist_compaction_seconds",
	"Latency of full CompactHistory passes.", obs.LatencyBuckets)

// treeHist adapts the engine's hist.Store to one tree's tsb.HistStore view.
type treeHist struct {
	db      *DB
	tableID uint32
}

func (h *treeHist) Lookup(key []byte, ts itime.Timestamp) (tsb.ColdVersion, bool, error) {
	return h.db.hist.Lookup(h.tableID, key, ts)
}

func (h *treeHist) Newest(key []byte) (tsb.ColdVersion, bool, error) {
	return h.db.hist.Newest(h.tableID, key)
}

func (h *treeHist) KeyHistory(key []byte) ([]tsb.ColdVersion, error) {
	return h.db.hist.KeyHistory(h.tableID, key)
}

func (h *treeHist) ScanAsOf(lo, hi []byte, ts itime.Timestamp, fn func(key []byte, v tsb.ColdVersion) bool) error {
	return h.db.hist.ScanAsOf(h.tableID, lo, hi, ts, fn)
}

// kickCompactor nudges the background compactor after a time split. Called
// inside the tree's writer section, so it must never block.
func (db *DB) kickCompactor() {
	if db.histKick == nil {
		return
	}
	select {
	case db.histKick <- struct{}{}:
	default:
	}
}

// compactorLoop runs CompactHistory every interval of the engine's clock and
// on time-split kicks until stopped. The interval timer kicks like a time
// split does and re-arms itself from its own callback, so on a SimClock each
// Advance(every) kicks one pass; a kick the loop has not yet taken absorbs
// the next. Once the loop stops, the pending timer fires one last time and
// does nothing. Any error parks the loop: ErrDegraded and shutdown errors are
// permanent in-process, and an unexpected failure already latched the engine
// degraded inside CompactHistory.
func (db *DB) compactorLoop(every time.Duration) {
	defer close(db.histDone)
	var tick func()
	tick = func() {
		select {
		case <-db.histStop:
			return
		default:
		}
		db.kickCompactor()
		db.opts.Clock.AfterFunc(every, tick)
	}
	db.opts.Clock.AfterFunc(every, tick)
	for {
		select {
		case <-db.histStop:
			return
		case <-db.histKick:
		}
		if err := db.CompactHistory(); err != nil {
			return
		}
	}
}

// stopCompactor parks the background compactor and waits for it to exit.
// Safe to call multiple times and when no compactor was started.
func (db *DB) stopCompactor() {
	if db.histStop == nil {
		return
	}
	db.histStopOnce.Do(func() { close(db.histStop) })
	<-db.histDone
}

// VacuumStats reports what one VacuumHistory pass reclaimed.
type VacuumStats struct {
	// VersionsReclaimed counts historical versions dropped by retention
	// vacuuming and merge deduplication.
	VersionsReclaimed uint64
	// BytesReclaimed is the net shrink of the cold tier's run files: bytes
	// of merged-away inputs minus bytes of their replacement runs.
	BytesReclaimed uint64
	// PagesMigrated counts hot history pages moved into cold runs.
	PagesMigrated uint64
	// RunsMerged counts run files consumed by merges.
	RunsMerged uint64
}

// VacuumHistory checkpoints (stamping history pages so they become
// migratable) and runs one synchronous cold-tier pass, returning what it
// reclaimed. It is the engine behind the VACUUM HISTORY statement; the
// background compactor does the same work on its ticks without the
// accounting.
func (db *DB) VacuumHistory() (VacuumStats, error) {
	if db.replica.Load() {
		return VacuumStats{}, ErrReplica
	}
	if !db.opts.TieredHistory {
		return VacuumStats{}, ErrTieredOff
	}
	if err := db.Checkpoint(); err != nil {
		return VacuumStats{}, err
	}
	return db.vacuumHistory(true)
}

// CompactHistory runs one full cold-tier pass over every immortal
// chain-indexed table: migratable history pages move into new run files, and
// levels holding histFanout or more runs merge into the next level, vacuuming
// versions behind the Options.Retention horizon. It is what the background
// compactor calls on its ticks; tests and operators call it directly for
// deterministic behaviour. Serialized: concurrent calls queue.
func (db *DB) CompactHistory() error {
	if db.replica.Load() {
		return ErrReplica
	}
	if !db.opts.TieredHistory {
		return ErrTieredOff
	}
	_, err := db.vacuumHistory(false)
	return err
}

// vacuumHistory is the shared pass body; with collect set it wires a
// VacuumStats into db.histPass (under histMu) for migrateCold and mergeRuns
// to fill.
func (db *DB) vacuumHistory(collect bool) (VacuumStats, error) {
	var stats VacuumStats
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return stats, ErrClosed
	}
	if db.draining {
		db.mu.Unlock()
		return stats, ErrShuttingDown
	}
	type target struct {
		tid  uint32
		tree *tsb.Tree
	}
	var targets []target
	for _, t := range db.cat.List() {
		if t.Immortal && db.indexMode(t) == tsb.ModeChain {
			if tr := db.trees[t.ID]; tr != nil {
				targets = append(targets, target{t.ID, tr})
			}
		}
	}
	db.opCount++
	db.mu.Unlock()
	defer db.opExit()
	if err := db.Degraded(); err != nil {
		return stats, err
	}
	db.histMu.Lock()
	defer db.histMu.Unlock()
	if collect {
		db.histPass = &stats
		defer func() { db.histPass = nil }()
	}
	start := obs.Now()
	for _, tgt := range targets {
		if err := db.migrateCold(tgt.tid, tgt.tree); err != nil {
			db.degradeIf(err)
			return stats, err
		}
		if err := db.compactRuns(tgt.tid); err != nil {
			db.degradeIf(err)
			return stats, err
		}
	}
	db.histCompactions.Add(1)
	obsHistCompactLatency.ObserveSince(start)
	return stats, nil
}

// histChunks splits sorted entries into run-sized chunks by an approximate
// uncompressed byte estimate.
func histChunks(entries []hist.Entry) [][]hist.Entry {
	var chunks [][]hist.Entry
	var cur []hist.Entry
	bytes := 0
	for _, e := range entries {
		sz := len(e.Key) + len(e.Value) + 20
		if bytes+sz > histRunTarget && len(cur) > 0 {
			chunks = append(chunks, cur)
			cur, bytes = nil, 0
		}
		cur = append(cur, e)
		bytes += sz
	}
	if len(cur) > 0 {
		chunks = append(chunks, cur)
	}
	return chunks
}

// writeRuns encodes chunks as level-`level` runs, appends their WAL records,
// writes and fsyncs the files, and stages them into m (advancing NextSeq).
func (db *DB) writeRuns(tid uint32, m *hist.Manifest, level uint8, chunks [][]hist.Entry) error {
	for _, chunk := range chunks {
		seq := m.NextSeq
		if seq == 0 {
			seq = 1
		}
		data, meta, err := hist.EncodeRun(tid, seq, level, chunk)
		if err != nil {
			return err
		}
		if _, err := db.log.Append(&wal.Record{
			Type: wal.TypeHistRun, Table: tid, Page: page.ID(seq), Blob: data,
		}); err != nil {
			return err
		}
		if err := db.hist.WriteRun(tid, seq, data); err != nil {
			return err
		}
		m.Runs = append(m.Runs, meta)
		m.NextSeq = seq + 1
	}
	return nil
}

// installManifest makes the staged manifest the table's current one: WAL
// record, flush, dual-slot install.
func (db *DB) installManifest(tid uint32, m hist.Manifest) error {
	lsn, err := db.log.Append(&wal.Record{
		Type: wal.TypeHistManifest, Table: tid, Blob: hist.EncodeManifest(m),
	})
	if err != nil {
		return err
	}
	if err := db.log.FlushTo(lsn); err != nil {
		return err
	}
	return db.hist.Install(tid, m)
}

// migrateCold moves every migratable history page of one tree into new
// level-0 runs and frees the pages. See the file comment for the ordering.
func (db *DB) migrateCold(tid uint32, tree *tsb.Tree) error {
	victims, cold, err := tree.CollectCold()
	if err != nil {
		return err
	}
	if len(victims) == 0 {
		return nil
	}
	if len(cold) > 0 {
		entries := make([]hist.Entry, len(cold))
		for i, e := range cold {
			entries[i] = hist.Entry{Key: e.Key, Value: e.Value, TS: e.TS, Stub: e.Stub}
		}
		m := db.hist.Manifest(tid)
		m.TableID = tid
		if m.NextSeq == 0 {
			m.NextSeq = 1
		}
		if err := db.writeRuns(tid, &m, 0, histChunks(entries)); err != nil {
			return err
		}
		m.Ver++
		if err := db.installManifest(tid, m); err != nil {
			return err
		}
	}
	cutLSN, err := tree.CutCold(victims)
	if err != nil {
		return err
	}
	if cutLSN != 0 {
		if err := db.log.FlushTo(wal.LSN(cutLSN)); err != nil {
			return err
		}
	}
	// With the cuts durable, the victims are unreachable from any chain and
	// safe to free. Strict order — flush, then drop from the pool, then free —
	// means a crash can at worst leak a page until redo replays the SMOs.
	for _, id := range victims {
		if err := db.pool.Drop(id); err != nil {
			return err
		}
		if err := db.pager.Free(id); err != nil {
			return err
		}
	}
	db.pagesMigrated.Add(uint64(len(victims)))
	if db.histPass != nil {
		db.histPass.PagesMigrated += uint64(len(victims))
	}
	return nil
}

// retentionHorizon computes the vacuum horizon for Options.Retention,
// clamped so versions an active snapshot may still read are never dropped.
// Zero means keep everything.
func (db *DB) retentionHorizon() itime.Timestamp {
	if db.opts.Retention <= 0 {
		return itime.Timestamp{}
	}
	ticks := int64(db.opts.Retention / itime.TickDuration)
	wall := db.opts.Clock.NowTick() - ticks
	if wall <= 0 {
		return itime.Timestamp{}
	}
	h := itime.Timestamp{Wall: wall, Seq: ^uint32(0)}
	if sh := db.snapshotHorizon(); !sh.IsZero() && sh.Less(h) {
		h = sh
	}
	return h
}

// wideLevel reports whether merging runs — all of one level — can leave
// fewer of them. A merge writes its output as key-ordered chunks of
// histRunTarget each, so histFanout full-size runs come out as histFanout
// runs again: runs that already are such a sequence (no two share more than
// a border key) are left alone, or a level of them would be re-merged into
// the next level, and that one into the next, without end.
func wideLevel(runs []hist.RunMeta) bool {
	if len(runs) < histFanout {
		return false
	}
	runs = append([]hist.RunMeta(nil), runs...) // the caller merges them in manifest order
	sort.Slice(runs, func(i, j int) bool {
		if c := bytes.Compare(runs[i].MinKey, runs[j].MinKey); c != 0 {
			return c < 0
		}
		return bytes.Compare(runs[i].MaxKey, runs[j].MaxKey) < 0
	})
	for i := 1; i < len(runs); i++ {
		if bytes.Compare(runs[i].MinKey, runs[i-1].MaxKey) < 0 {
			return true
		}
	}
	return false
}

// compactRuns repeatedly merges the lowest wide level (see wideLevel) into
// one (or more) next-level runs until no level is wide, then — with a
// retention horizon set — runs a whole-table sweep so expired versions are
// vacuumed even when no fanout merge triggers. Each merge is its own
// manifest flip, so a crash mid-way loses at most the in-progress merge's
// work, never installed state.
func (db *DB) compactRuns(tid uint32) error {
	horizon := db.retentionHorizon()
	for {
		m := db.hist.Manifest(tid)
		if m.Ver == 0 {
			return nil
		}
		byLevel := map[uint8][]hist.RunMeta{}
		for _, r := range m.Runs {
			byLevel[r.Level] = append(byLevel[r.Level], r)
		}
		// Each merge empties the lowest wide level into the next, so the
		// lowest wide level only rises and the loop ends.
		level, found := uint8(0), false
		for l := 0; l < 255 && !found; l++ {
			if wideLevel(byLevel[uint8(l)]) {
				level, found = uint8(l), true
			}
		}
		if !found {
			break
		}
		if err := db.mergeRuns(tid, m, byLevel[level], level+1, horizon, true); err != nil {
			return err
		}
	}
	if horizon.IsZero() {
		return nil
	}
	// Retention sweep: merge the whole table once when some run still holds
	// versions that might be behind the horizon. mergeRuns skips the rewrite
	// when nothing would actually drop, so a no-progress sweep costs reads
	// but no writes.
	m := db.hist.Manifest(tid)
	if m.Ver == 0 || len(m.Runs) == 0 {
		return nil
	}
	sweep := false
	maxLevel := uint8(0)
	for _, r := range m.Runs {
		if r.MinTS.Less(horizon) {
			sweep = true
		}
		if r.Level > maxLevel {
			maxLevel = r.Level
		}
	}
	if !sweep {
		return nil
	}
	return db.mergeRuns(tid, m, m.Runs, maxLevel+1, horizon, false)
}

// mergeRuns merges group (a subset of m.Runs) into new runs at outLevel,
// vacuuming behind horizon. Delete-stub anchors are dropped only when the
// group covers every run of the table — a partial merge keeping them is what
// prevents an older version in an unmerged run from resurfacing. Unless
// force is set (fanout merges, where consolidation is the point), a merge
// that would not shrink the entry count skips the rewrite: retention sweeps
// then cost reads but never churn writes.
func (db *DB) mergeRuns(tid uint32, m hist.Manifest, group []hist.RunMeta, outLevel uint8, horizon itime.Timestamp, force bool) error {
	old := make(map[uint64]bool, len(group))
	oldSeqs := make([]uint64, 0, len(group))
	var merged []hist.Entry
	inCount := 0
	for _, rm := range group {
		es, err := db.hist.RunEntries(tid, rm.Seq)
		if err != nil {
			return err
		}
		merged = append(merged, es...)
		inCount += len(es)
		old[rm.Seq] = true
		oldSeqs = append(oldSeqs, rm.Seq)
	}
	if len(group) == len(m.Runs) {
		merged = hist.Compact(merged, horizon)
	} else {
		merged = hist.CompactPartial(merged, horizon)
	}
	if len(merged) == inCount && !force {
		return nil // nothing to vacuum
	}
	next := hist.Manifest{Ver: m.Ver, TableID: tid, NextSeq: m.NextSeq}
	for _, r := range m.Runs {
		if !old[r.Seq] {
			next.Runs = append(next.Runs, r)
		}
	}
	// Retention can vacuum a whole group away; the manifest then simply
	// drops it.
	kept := len(next.Runs)
	if len(merged) > 0 {
		if err := db.writeRuns(tid, &next, outLevel, histChunks(merged)); err != nil {
			return err
		}
	}
	next.Ver++
	if err := db.installManifest(tid, next); err != nil {
		return err
	}
	if db.histPass != nil {
		db.histPass.RunsMerged += uint64(len(group))
		if d := inCount - len(merged); d > 0 {
			db.histPass.VersionsReclaimed += uint64(d)
		}
		var oldBytes, newBytes uint64
		for _, rm := range group {
			oldBytes += rm.Bytes
		}
		for _, rm := range next.Runs[kept:] {
			newBytes += rm.Bytes
		}
		if oldBytes > newBytes {
			db.histPass.BytesReclaimed += oldBytes - newBytes
		}
	}
	// The installed manifest no longer references the merged inputs; a
	// failure removing them is still an I/O fault worth degrading on (the
	// caller does), but the tier itself stays consistent.
	if err := db.hist.RemoveRuns(tid, oldSeqs); err != nil {
		return fmt.Errorf("reclaim merged runs: %w", err)
	}
	return nil
}
