// Package repro regenerates the paper's evaluation (Section 5): the
// transaction-overhead experiment of Figure 5, the AS OF query experiment of
// Figure 6, and the ablations DESIGN.md catalogues (eager vs lazy
// timestamping, chain vs TSB-tree historical access, PTT garbage collection,
// and the key-split threshold). The cmd/benchfig5 and cmd/benchfig6 binaries
// and the root bench_test.go both drive this package.
package repro

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"immortaldb"
	"immortaldb/internal/itime"
	"immortaldb/internal/workload"
)

// Options shape an experiment run.
type Options struct {
	// Scale multiplies transaction counts; 1.0 reproduces the paper's sizes
	// (32,000 / 36,000 transactions). Benchmarks may scale down.
	Scale float64
	// PageSize for the engine (default 8192, the paper's).
	PageSize int
	// Seed for the moving-objects generator.
	Seed int64
	// CacheFrames bounds the buffer pool (0 = engine default). The paper's
	// historical-query results are I/O-bound; a cache smaller than the
	// accumulated history reproduces that regime.
	CacheFrames int
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.PageSize == 0 {
		o.PageSize = 8192
	}
	return o
}

func (o Options) scaled(n int) int {
	v := int(float64(n) * o.Scale)
	if v < 10 {
		v = 10
	}
	return v
}

// Env is a database prepared for an experiment.
type Env struct {
	DB    *immortaldb.DB
	Table *immortaldb.Table
	Clock *itime.SimClock
	dir   string
}

// Close releases the environment.
func (e *Env) Close() error {
	err := e.DB.Close()
	os.RemoveAll(e.dir)
	return err
}

// NewEnv opens a fresh benchmark database with a deterministic clock that
// advances one 20 ms tick every few transactions, so the sequence-number
// machinery is exercised exactly as in a busy real system.
func NewEnv(o Options, immortal bool, mutate func(*immortaldb.Options)) (*Env, error) {
	o = o.withDefaults()
	dir, err := os.MkdirTemp("", "immortaldb-bench")
	if err != nil {
		return nil, err
	}
	clock := itime.NewSimClock(time.Date(2004, 8, 12, 10, 0, 0, 0, time.UTC))
	clock.AutoStep = 1
	clock.AutoEvery = 5
	dbOpts := &immortaldb.Options{
		PageSize:    o.PageSize,
		CacheFrames: o.CacheFrames,
		NoSync:      true, // measure engine cost, not disk latency
		Clock:       clock,
	}
	if mutate != nil {
		mutate(dbOpts)
	}
	db, err := immortaldb.Open(dir, dbOpts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	tbl, err := db.CreateTable("MovingObjects", immortaldb.TableOptions{Immortal: immortal})
	if err != nil {
		db.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return &Env{DB: db, Table: tbl, Clock: clock, dir: dir}, nil
}

// ApplyOp runs one moving-objects operation as its own transaction — the
// paper's worst case ("each transaction updates or inserts only one single
// record").
func ApplyOp(e *Env, op workload.Op) error {
	tx, err := e.DB.Begin(immortaldb.Serializable)
	if err != nil {
		return err
	}
	if err := tx.Set(e.Table, workload.Key(op.OID), workload.Value(op.Pos)); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// ApplyStream applies a stream one-transaction-per-op and returns the commit
// timestamps in order.
func ApplyStream(e *Env, ops []workload.Op) ([]immortaldb.Timestamp, error) {
	times := make([]immortaldb.Timestamp, 0, len(ops))
	for _, op := range ops {
		if err := ApplyOp(e, op); err != nil {
			return nil, err
		}
		times = append(times, e.DB.Now())
	}
	return times, nil
}

// CommitStorm runs about total single-record transactions split evenly across
// clients on disjoint key ranges (no lock conflicts: the measurement is the
// commit pipeline, not the lock manager) and returns the wall-clock seconds
// and the exact commit count.
func CommitStorm(e *Env, clients, total int) (float64, int, error) {
	per := total / clients
	if per == 0 {
		per = 1
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			base := uint16(c * 64)
			for i := 0; i < per; i++ {
				tx, err := e.DB.Begin(immortaldb.Serializable)
				if err != nil {
					errs[c] = err
					return
				}
				pos := workload.Point{X: int32(i), Y: int32(c)}
				if err := tx.Set(e.Table, workload.Key(base+uint16(i%64)), workload.Value(pos)); err != nil {
					tx.Rollback()
					errs[c] = err
					return
				}
				if err := tx.Commit(); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	sec := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	return sec, per * clients, nil
}

// ---------------------------------------------------------------- Figure 5

// Fig5Row is one x-axis point of Figure 5: cumulative elapsed time to
// execute the first Txns transactions.
type Fig5Row struct {
	Txns            int
	ImmortalSec     float64
	ConventionalSec float64
	OverheadPct     float64
}

// Fig5Result is the regenerated Figure 5 plus the Section 5.1 headline
// numbers.
type Fig5Result struct {
	Rows []Fig5Row
	// Per-transaction averages at the largest point (the paper reports
	// 9.6 ms conventional + 1.1 ms Immortal DB overhead ≈ 11%).
	ConvPerTxnMs     float64
	ImmortalPerTxnMs float64
	OverheadPct      float64
	// BatchedImmortalSec is the lowest-overhead case: all records in ONE
	// transaction ("indistinguishable from non-timestamped updates").
	BatchedImmortalSec     float64
	BatchedConventionalSec float64
}

// RunFig5 regenerates Figure 5: up to 32,000 single-record transactions
// (500 inserts, the rest updates) against a transaction-time table and a
// conventional table.
func RunFig5(o Options) (*Fig5Result, error) {
	o = o.withDefaults()
	total := o.scaled(32000)
	inserts := o.scaled(500)
	ops, err := workload.New(workload.Config{Seed: o.Seed}).Stream(inserts, total)
	if err != nil {
		return nil, err
	}
	points := fig5Points(total)

	run := func(immortal bool) ([]float64, error) {
		e, err := NewEnv(o, immortal, nil)
		if err != nil {
			return nil, err
		}
		defer e.Close()
		var cum []float64
		start := time.Now()
		next := 0
		for i, op := range ops {
			if err := ApplyOp(e, op); err != nil {
				return nil, err
			}
			if next < len(points) && i+1 == points[next] {
				cum = append(cum, time.Since(start).Seconds())
				next++
			}
		}
		return cum, nil
	}

	// Two runs per arm, best-of (cumulative timings on a shared machine are
	// noisy; the minimum is the least-disturbed run).
	runBest := func(immortal bool) ([]float64, error) {
		best, err := run(immortal)
		if err != nil {
			return nil, err
		}
		again, err := run(immortal)
		if err != nil {
			return nil, err
		}
		for i := range best {
			if again[i] < best[i] {
				best[i] = again[i]
			}
		}
		return best, nil
	}
	imm, err := runBest(true)
	if err != nil {
		return nil, err
	}
	conv, err := runBest(false)
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{}
	for i, p := range points {
		row := Fig5Row{Txns: p, ImmortalSec: imm[i], ConventionalSec: conv[i]}
		if row.ConventionalSec > 0 {
			row.OverheadPct = 100 * (row.ImmortalSec - row.ConventionalSec) / row.ConventionalSec
		}
		res.Rows = append(res.Rows, row)
	}
	last := res.Rows[len(res.Rows)-1]
	res.ConvPerTxnMs = 1000 * last.ConventionalSec / float64(last.Txns)
	res.ImmortalPerTxnMs = 1000 * last.ImmortalSec / float64(last.Txns)
	res.OverheadPct = last.OverheadPct

	// Lowest-overhead case: the same records inside a single transaction —
	// one timestamp-table update total.
	batch := func(immortal bool) (float64, error) {
		e, err := NewEnv(o, immortal, nil)
		if err != nil {
			return 0, err
		}
		defer e.Close()
		start := time.Now()
		tx, err := e.DB.Begin(immortaldb.Serializable)
		if err != nil {
			return 0, err
		}
		for _, op := range ops {
			if err := tx.Set(e.Table, workload.Key(op.OID), workload.Value(op.Pos)); err != nil {
				return 0, err
			}
		}
		if err := tx.Commit(); err != nil {
			return 0, err
		}
		return time.Since(start).Seconds(), nil
	}
	batchBest := func(immortal bool) (float64, error) {
		a, err := batch(immortal)
		if err != nil {
			return 0, err
		}
		b, err := batch(immortal)
		if err != nil {
			return 0, err
		}
		if b < a {
			a = b
		}
		return a, nil
	}
	if res.BatchedImmortalSec, err = batchBest(true); err != nil {
		return nil, err
	}
	if res.BatchedConventionalSec, err = batchBest(false); err != nil {
		return nil, err
	}
	return res, nil
}

func fig5Points(total int) []int {
	// The paper's x axis: 2K steps up to 32K, scaled.
	var out []int
	for i := 1; i <= 16; i++ {
		out = append(out, total*i/16)
	}
	return out
}

// ---------------------------------------------------------------- Figure 6

// Fig6Mix is one insert/update ratio of Figure 6.
type Fig6Mix struct {
	Inserts        int
	UpdatesPerItem int // label only: 72, 36, 18, 9
}

// Fig6Mixes are the paper's four configurations over 36,000 transactions.
var Fig6Mixes = []Fig6Mix{
	{500, 72},
	{1000, 36},
	{2000, 18},
	{4000, 9},
}

// Fig6Row is one measured point of Figure 6.
type Fig6Row struct {
	Mix        Fig6Mix
	PctHistory int // how far back the AS OF time lies: 0 = now, 100 = oldest
	Millis     float64
	Rows       int // records returned by the full-table AS OF scan
}

// Fig6Label renders a mix like the paper's legend ("0.5K*72").
func Fig6Label(m Fig6Mix) string {
	if m.Inserts%1000 == 0 {
		return fmt.Sprintf("%dK*%d", m.Inserts/1000, m.UpdatesPerItem)
	}
	return fmt.Sprintf("%.1fK*%d", float64(m.Inserts)/1000, m.UpdatesPerItem)
}

// RunFig6 regenerates Figure 6: full-table-scan AS OF queries at increasing
// history depth, for each insert/update mix, over 36,000 transactions. The
// scan repeats `reps` times per point (>=1) and reports the average.
func RunFig6(o Options, mixes []Fig6Mix, pcts []int, reps int, mutate func(*immortaldb.Options)) ([]Fig6Row, error) {
	o = o.withDefaults()
	if len(pcts) == 0 {
		pcts = []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	}
	if reps < 1 {
		reps = 1
	}
	var out []Fig6Row
	for _, mix := range mixes {
		total := o.scaled(36000)
		inserts := o.scaled(mix.Inserts)
		ops, err := workload.New(workload.Config{Seed: o.Seed}).Stream(inserts, total)
		if err != nil {
			return nil, err
		}
		oe := o
		if oe.CacheFrames == 0 {
			// Keep the buffer pool smaller than the accumulated history so
			// deep AS OF scans pay for page fetches, as in the paper's
			// disk-bound testbed.
			oe.CacheFrames = 64
		}
		e, err := NewEnv(oe, true, mutate)
		if err != nil {
			return nil, err
		}
		times, err := ApplyStream(e, ops)
		if err != nil {
			e.Close()
			return nil, err
		}
		// Push everything through lazy timestamping and to disk, as a
		// steady-state server would have.
		if err := e.DB.Checkpoint(); err != nil {
			e.Close()
			return nil, err
		}
		for _, pct := range pcts {
			at := asOfPoint(times, pct)
			var rows int
			samples := make([]float64, 0, reps)
			for r := 0; r < reps; r++ {
				rows = 0
				start := time.Now()
				tx, err := e.DB.BeginAsOfTS(at)
				if err != nil {
					e.Close()
					return nil, err
				}
				err = tx.Scan(e.Table, nil, nil, func(k, v []byte) bool {
					rows++
					return true
				})
				tx.Commit()
				if err != nil {
					e.Close()
					return nil, err
				}
				samples = append(samples, float64(time.Since(start).Microseconds())/1000)
			}
			out = append(out, Fig6Row{
				Mix:        mix,
				PctHistory: pct,
				Millis:     median(samples),
				Rows:       rows,
			})
		}
		e.Close()
	}
	return out, nil
}

// median returns the middle sample (average of the middle two for even n).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// asOfPoint maps "pct of history back from now" onto a commit timestamp.
func asOfPoint(times []immortaldb.Timestamp, pct int) immortaldb.Timestamp {
	if len(times) == 0 {
		return immortaldb.MaxTime()
	}
	idx := (len(times) - 1) * (100 - pct) / 100
	return times[idx]
}
