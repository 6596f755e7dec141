package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"immortaldb"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed      int64
	window    time.Duration // measured window (--seconds)
	warm      time.Duration // warm-up before it
	setupReps int           // set-ups timed for setup_s; the last one is used
	dir       string        // parent of the data directories
	out       string        // where result and trace files go
	sc        scale
	// brokenModel makes the generator's model expect a wrong value on every
	// hundredth operation. The self-test sets it to see the oracle trip.
	brokenModel bool
}

// metric is one named number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one workload run reports.
type result struct {
	Workload   string            `json:"workload"`
	Why        string            `json:"why"`
	Flush      string            `json:"flush_policy"`
	LoadShape  string            `json:"load_shape"`
	Seed       int64             `json:"seed"`
	StreamHash string            `json:"op_stream_hash"`
	Traced     bool              `json:"traced"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Problems   []string          `json:"problems,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	SetupS     []float64         `json:"setup_s_each"`
	SetupCount counts            `json:"setup_counts"`
	Window     *window           `json:"measured_window,omitempty"`
	Reader     *window           `json:"paced_reader_window,omitempty"`
	Ladder     []rungReport      `json:"ladder,omitempty"`
	Probes     *probes           `json:"probes,omitempty"`
}

func (r *result) problem(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 10 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) set(name string, v float64) {
	for _, decls := range [][]metricDecl{endToEnd, perLayer} {
		for _, m := range decls {
			if m.Name == name {
				r.Metrics[name] = metric{Value: v, Unit: m.Unit}
				return
			}
		}
	}
	panic("metric not declared: " + name)
}

func (w *workload) loadShape(sc scale) string {
	s := fmt.Sprintf("closed loop, %d caller(s)", w.clients)
	if w.wire {
		s += " on pinned client sessions over loopback TCP"
	} else {
		s += " calling the engine in process"
	}
	if w.reader {
		s += fmt.Sprintf("; beside them one open-loop reader paced at %d op/s, timed from each due instant", sc.readerRate)
	}
	return s
}

func newResult(w *workload, cfg runConfig, traced bool) *result {
	return &result{
		Workload: w.name, Why: w.why, Flush: w.flush, LoadShape: w.loadShape(cfg.sc),
		Seed: cfg.seed, StreamHash: fmt.Sprintf("%016x", streamHash(w, cfg.sc, cfg.seed)),
		Traced: traced, Correct: true, Metrics: map[string]metric{},
	}
}

// setUp builds the workload's database cfg.setupReps times, each in a fresh
// directory, and keeps the last.
func (w *workload) setUp(cfg runConfig, res *result) (*dataset, error) {
	var ds *dataset
	for i := 0; i < cfg.setupReps; i++ {
		dir, err := os.MkdirTemp(cfg.dir, w.name+"-")
		if err != nil {
			return nil, err
		}
		t := time.Now()
		ds, err = w.build(dir, cfg.sc)
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.SetupS = append(res.SetupS, time.Since(t).Seconds())
		if i < cfg.setupReps-1 {
			os.RemoveAll(dir)
		}
	}
	res.SetupCount = ds.counts
	if cfg.brokenModel {
		for r := range ds.beginAsOf {
			if r%3 == 0 && r+1 < len(ds.beginAsOf) {
				ds.beginAsOf[r], ds.roundTS[r] = ds.beginAsOf[r+1], ds.roundTS[r+1]
			}
		}
		for k := 0; k < len(ds.last); k += 100 {
			ds.last[k]++
			ds.nver[k]++ // a later update corrects last, never this
		}
	}
	return ds, nil
}

func (res *result) addLoad(w *workload, lr *loadResult) {
	res.Attempted += lr.attempted
	res.Failed += lr.failed
	if lr.firstErr != nil {
		res.problem("first failed operation: %v", lr.firstErr)
	}
	if err := checkBypass(w, lr.stats, lr.measured.Ops); err != nil {
		res.problem("by-pass prediction: %v", err)
	}
	if w.reader && lr.behindFrac > 0.01 {
		res.problem("paced reader ended %.2f%% behind schedule; over 1%% the writer's load is no longer the stated one", 100*lr.behindFrac)
	}
}

// runMeasured is the --trace 0 run: set-up, warm-up, one measured window
// with tracing off, verification. It reports the end-to-end metrics.
func (w *workload) runMeasured(cfg runConfig) (*result, error) {
	res := newResult(w, cfg, false)
	ds, err := w.setUp(cfg, res)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ds.dir)
	e, err := openEnv(ds, w.serve(cfg.sc), w.wire, w.clients+1, newTracer())
	if err != nil {
		return nil, err
	}
	lr, err := e.runLoad(w, cfg.sc, cfg.seed, cfg.warm, cfg.window)
	if err != nil {
		e.close()
		return nil, err
	}
	res.addLoad(w, lr)
	res.checkCommits(w, e)
	if err := e.close(); err != nil {
		return nil, err
	}
	res.Window = &lr.measured
	if w.reader {
		res.Reader = &lr.reader
	}
	if w.kind == opUpdate {
		res.verifyReopen(ds)
	}
	res.set("ops_per_s", lr.measured.OpsPerS)
	res.set("p50_us", lr.measured.Latency.P50us)
	res.set("p99_us", lr.measured.Latency.P99us)
	res.set("setup_s", median(res.SetupS))
	res.set("space_amp", ds.spaceAmp)
	return res, nil
}

// checkCommits compares the engine's commit count since open with the
// updates the callers had acknowledged.
func (res *result) checkCommits(w *workload, e *env) {
	if got := e.db.Stats().Commits; w.kind == opUpdate && got != uint64(e.acked) {
		res.problem("engine counts %d commits since open, callers were acknowledged %d", got, e.acked)
	}
}

// verifyReopen reopens the closed database and checks every key's newest
// value and, on a sample of keys, the number of versions, against what the
// callers were acknowledged.
func (res *result) verifyReopen(ds *dataset) {
	db, err := immortaldb.Open(ds.dir, &immortaldb.Options{NoSync: true})
	if err != nil {
		res.problem("reopen: %v", err)
		return
	}
	defer db.Close()
	tbl, err := db.Table("bench")
	if err != nil {
		res.problem("reopen: %v", err)
		return
	}
	bad := 0
	note := func(format string, args ...any) {
		bad++
		res.problem("after reopen: "+format, args...)
	}
	next := 0
	err = db.View(func(tx *immortaldb.Tx) error {
		return tx.Scan(tbl, nil, nil, func(_, row []byte) bool {
			k, v, err := ds.rowValue(row)
			switch {
			case next >= ds.nkeys:
				// counted below, as a wrong row count
			case err != nil:
				note("row %d: %v", next, err)
			case k != int64(next):
				note("row %d has key %d", next, k)
			case v != ds.last[next]:
				note("key %d holds %d, last acknowledged write was %d", k, v, ds.last[next])
			}
			next++
			return true
		})
	})
	if err != nil {
		note("scan: %v", err)
	}
	if next != ds.nkeys {
		note("%d rows, want %d", next, ds.nkeys)
	}
	for k := 0; k < ds.nkeys; k += max(ds.nkeys/200, 1) {
		h, err := db.History(tbl, ds.key(k))
		if err != nil {
			note("history of key %d: %v", k, err)
		} else if len(h) != int(ds.nver[k]) {
			note("key %d has %d versions, %d were acknowledged", k, len(h), ds.nver[k])
		}
	}
	res.Attempted += ds.nkeys
	res.Failed += bad
}

// rungReport is one rung of the ladder in the traced pass.
type rungReport struct {
	Name      string        `json:"rung"`
	Layer     string        `json:"layer"`
	N         int           `json:"n"`
	MedianUs  float64       `json:"median_us"`
	P99Us     float64       `json:"p99_us"`
	SelfUs    float64       `json:"layer_self_us"` // this rung minus the rung below
	Share     float64       `json:"share_of_top"`
	HarnessUs float64       `json:"harness_self_us"` // root span self time
	Calls     []spanSummary `json:"calls"`
}

// ladderSlice is how long one rung runs before the next takes its turn;
// rotating in short slices spreads drift in the machine over all rungs.
const ladderSlice = 100 * time.Millisecond

// runLadder drives each rung for an equal share of budget, one caller,
// tracing on, plus the top rung with tracing off. Every rung draws its own
// stream of the seed: replaying one stream rung after rung would hand each
// lower rung the pages the rung above had just pulled into the pool. It
// returns each rung's latencies, top rung first, and the untraced top
// rung's.
func (e *env) runLadder(rungs []*rung, w *workload, cfg runConfig, budget time.Duration, res *result) (lat [][]int64, untraced []int64) {
	gens := make([]*gen, len(rungs)+1)
	for i := range gens {
		gens[i] = newGen(e.ds, cfg.sc, cfg.seed, streamLadder+i, 0, 1, w.kind)
	}
	lat = make([][]int64, len(rungs))
	for spent := time.Duration(0); spent < budget; {
		for i := 0; i <= len(rungs); i++ {
			r := rungs[0]
			if i < len(rungs) {
				r = rungs[i]
			}
			e.tr.on = i < len(rungs)
			c := e.drive(r, gens[i], time.Now(), ladderSlice, 0)
			e.tr.on = false
			spent += ladderSlice
			res.Attempted += c.attempted
			res.Failed += c.failed
			if c.firstErr != nil {
				res.problem("rung %s: %v", r.name, c.firstErr)
			}
			if w.kind == opUpdate {
				e.acked += len(c.samples)
			}
			for _, s := range c.samples {
				if i < len(rungs) {
					lat[i] = append(lat[i], s.lat)
				} else {
					untraced = append(untraced, s.lat)
				}
			}
		}
	}
	return lat, untraced
}

// runTraced is the --trace 1 run: set-up, a stretch of the workload's own
// load shape for the engine's counters, then the one-caller traced ladder
// and the direct probes. It reports the per-layer metrics.
func (w *workload) runTraced(cfg runConfig) (*result, error) {
	res := newResult(w, cfg, true)
	cfg.setupReps = 1
	ds, err := w.setUp(cfg, res)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ds.dir)
	tr := newTracer()
	opts := w.serve(cfg.sc)
	e, err := openEnv(ds, opts, w.wire, w.clients+2, tr)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*result, error) {
		return nil, errors.Join(err, e.close())
	}
	if w.tiered {
		if err := e.openCold(); err != nil {
			return fail(err)
		}
	}

	// The engine's counters, under the workload's real load shape.
	lr, err := e.runLoad(w, cfg.sc, cfg.seed, cfg.warm/2, cfg.window*3/10)
	if err != nil {
		return fail(err)
	}
	res.addLoad(w, lr)
	res.Window = &lr.measured
	res.setCounterMetrics(w, lr, opts)

	// The ladder, top rung first.
	var rungs []*rung
	if w.wire {
		r, err := e.clientRung()
		if err != nil {
			return fail(err)
		}
		rungs = append(rungs, r, e.sessionRung(), e.stmtRung())
	}
	durable := w.kind == opUpdate && (opts == nil || !opts.NoSync)
	switch {
	case durable:
		rungs = append(rungs, e.txRung(rungTxSync, "wal.sync_wait"))
	case w.kind == opUpdate:
		rungs = append(rungs, e.txRung(rungTxNo, "engine"))
	default:
		rungs = append(rungs, e.txRung(rungTx, "engine"))
	}
	if w.tiered {
		rungs = append(rungs, e.histRung())
	}
	lat, untraced := e.runLadder(rungs, w, cfg, cfg.window/2, res)
	for _, r := range rungs {
		r.close()
	}

	pr, err := e.runProbes(w, cfg.sc, cfg.seed, cfg.dir)
	if err != nil {
		return fail(err)
	}
	res.Probes = pr
	res.Attempted += pr.attempts
	res.Failed += pr.failures
	res.checkCommits(w, e)
	if err := e.close(); err != nil {
		return nil, err
	}

	if durable {
		// The last rung needs the same database without fsync.
		twin := immortaldb.Options{NoSync: true}
		if opts != nil {
			twin = *opts
			twin.NoSync = true
		}
		e2, err := openEnv(ds, &twin, false, 0, tr)
		if err != nil {
			return nil, err
		}
		r := e2.txRung(rungTxNo, "engine")
		// The reopened pool is empty; fill it before timing.
		warm := e2.drive(r, newGen(ds, cfg.sc, cfg.seed, streamProbe, 0, 1, w.kind), time.Now(), cfg.warm/2, 0)
		res.Attempted += warm.attempted
		res.Failed += warm.failed
		e2.acked += len(warm.samples)
		l2, _ := e2.runLadder([]*rung{r}, w, cfg, cfg.window/5, res)
		rungs, lat = append(rungs, r), append(lat, l2[0])
		res.checkCommits(w, e2)
		if err := e2.close(); err != nil {
			return nil, err
		}
	}
	if w.kind == opUpdate {
		res.verifyReopen(ds)
	}

	spans := tr.summariseSpans()
	res.setLadderMetrics(w, rungs, lat, untraced, spans, pr)
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(cfg.out, "trace-"+w.name+".json"), w.name, cfg.seed, spans); err != nil {
		return nil, err
	}
	return res, nil
}

// setCounterMetrics derives the per-layer metrics that are ratios of the
// engine's own counters over the load stretch.
func (res *result) setCounterMetrics(w *workload, lr *loadResult, opts *immortaldb.Options) {
	d := lr.stats
	pageSize := 8192.0
	if opts != nil && opts.PageSize != 0 {
		pageSize = float64(opts.PageSize)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	commits := float64(d.Commits)
	res.set("wal.commits_per_fsync", d.MeanCommitBatch())
	res.set("wal.fsyncs_per_commit", ratio(float64(d.LogSyncs), commits))
	res.set("wal.bytes_per_commit", ratio(float64(d.LogBytes), commits))
	res.set("write_amp", ratio(float64(d.LogBytes)+float64(d.PagerWrites)*pageSize, commits*float64(versionBytes)))
	res.set("tsb.time_splits_per_kcommit", 1000*ratio(float64(d.TimeSplits), commits))
	res.set("tsb.key_splits_per_kcommit", 1000*ratio(float64(d.KeySplits), commits))
	res.set("stamp.lazy_stamps_per_commit", ratio(float64(d.Stamp.VersionsStamped), commits))
	res.set("stamp.ptt_entries_end", float64(d.PTTEntries))
	res.set("lock.wait_us_per_op", ratio(lr.lockWaitS*1e6, float64(lr.measured.Ops)))

	reads := 0.0
	switch {
	case w.kind != opUpdate:
		reads = float64(lr.measured.Ops)
	case w.reader:
		reads = float64(lr.reader.Ops)
	}
	res.set("tsb.chain_hops_per_read", ratio(float64(d.ChainHops), reads))
	res.set("buffer.miss_per_read", ratio(float64(d.CacheMisses), reads))
	res.set("disk.reads_per_read", ratio(float64(d.PagerReads), reads))
	res.set("hist.runs", float64(d.HistRuns))
	res.set("mixed.reader_p50_us", lr.reader.Latency.P50us)
	res.set("mixed.reader_p99_us", lr.reader.Latency.P99us)
	res.set("mixed.reader_late_frac", lr.sentLateFrac)
	res.set("mixed.reader_behind_frac", lr.behindFrac)
}

// setLadderMetrics turns the ladder's latencies into the rung reports, the
// layer self times (each rung's median minus the median of the rung below)
// and the per-layer metrics that come from them and from the probes.
func (res *result) setLadderMetrics(w *workload, rungs []*rung, lat [][]int64, untraced []int64, spans []spanSummary, pr *probes) {
	med := make([]latencyStats, len(rungs))
	for i := range rungs {
		med[i] = summarise(lat[i])
	}
	top := med[0].P50us
	byName := map[string]float64{}
	for i, r := range rungs {
		rep := rungReport{Name: r.name, Layer: r.layer, N: med[i].N, MedianUs: med[i].P50us, P99Us: med[i].P99us}
		rep.SelfUs = rep.MedianUs
		if i+1 < len(rungs) {
			rep.SelfUs -= med[i+1].P50us
		}
		if top > 0 {
			rep.Share = rep.SelfUs / top
		}
		for _, s := range spans {
			switch {
			case s.Name == r.name:
				rep.HarnessUs = s.SelfUs
			case strings.HasPrefix(s.Name, r.name+": "):
				rep.Calls = append(rep.Calls, s)
			}
		}
		sort.Slice(rep.Calls, func(a, b int) bool { return rep.Calls[a].Name < rep.Calls[b].Name })
		res.Ladder = append(res.Ladder, rep)
		byName[r.name] = rep.MedianUs
		byName["self:"+r.layer] = rep.SelfUs
	}

	res.set("ladder.top_us", top)
	res.set("wire.rtt_us", pr.WireRTTUs)
	res.set("wire.codec_us", pr.WireCodecUs)
	res.set("sqlish.parse_us", pr.ParseUs)
	res.set("sqlish.exec_self_us", byName["self:sqlish.exec"])
	res.set("wal.sync_wait_us", byName["self:wal.sync_wait"])
	res.set("wal.append_us", pr.WalAppendUs)
	res.set("lock.acquire_us", pr.LockAcquireUs)
	res.set("hist.lookup_us", pr.HistLookupUs)
	res.set("hist.scan_us_per_row", pr.HistScanUsPerRow)
	res.set("hist.decode_us_per_kentry", pr.HistDecodeUsPerK)
	res.set("hist.bytes_per_version", pr.HistBytesPerVer)
	engine := 0.0
	res.set("engine.commit_us", 0)
	res.set("engine.asof_get_us", 0)
	res.set("engine.asof_scan_us", 0)
	switch w.kind {
	case opUpdate:
		engine = byName[rungTxNo]
		res.set("engine.commit_us", engine)
	case opPoint:
		engine = byName[rungTx]
		res.set("engine.asof_get_us", engine)
	case opScan:
		engine = byName[rungTx]
		res.set("engine.asof_scan_us", engine)
	}
	// What the direct probes and the engine rung explain of the top rung.
	explained := float64(pr.RoundTripsPerOp)*pr.WireRTTUs + pr.WireCodecUs + pr.ParseUs + engine + byName["self:wal.sync_wait"]
	bare := summarise(untraced).P50us
	if top > 0 && bare > 0 {
		res.set("unattributed_frac", (top-explained)/top)
		res.set("trace_overhead_frac", (top-bare)/bare)
	} else {
		res.problem("the ladder's top rung recorded no operations")
		res.set("unattributed_frac", 0)
		res.set("trace_overhead_frac", 0)
	}
}
