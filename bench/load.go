package main

import (
	"fmt"
	"sync"
	"time"

	"immortaldb"
)

// sample is one finished operation: when it ended and how long the caller
// waited for it, both in nanoseconds from the start of the load.
type sample struct{ end, lat int64 }

// callerResult is what one caller goroutine saw.
type callerResult struct {
	samples   []sample
	attempted int
	failed    int
	late      int // paced caller: operations sent more than one period late
	firstErr  error
}

func (c *callerResult) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// drive replays g's operations through r until the load is `until` old.
// With period 0 it is a closed loop: the next operation is sent when the
// previous one has been answered and checked. With a period it is an open
// loop: operation i is due at i*period and is timed from that instant
// however late it is sent, so a stall lengthens the waits of the operations
// queued behind it; one sent more than a period late is counted as late.
func (e *env) drive(r *rung, g *gen, t0 time.Time, until, period time.Duration) callerResult {
	var c callerResult
	c.samples = make([]sample, 0, 1<<12)
	ds := e.ds
	for i := 0; ; i++ {
		p, err := e.prepare(g.next(), r.parse)
		if err != nil {
			c.attempted++
			c.fail(err)
			return c
		}
		start := time.Since(t0)
		if period > 0 {
			due := time.Duration(i) * period
			if due > start {
				time.Sleep(due - start)
			}
			if time.Since(t0)-due > period {
				c.late++
			}
			start = due
		}
		if start >= until {
			return c
		}
		c.attempted++
		e.tr.beginOp(r.root)
		err = r.run(p)
		e.tr.endOp()
		end := time.Since(t0)
		if err == nil {
			err = p.check(ds)
		}
		if err != nil {
			c.fail(err)
			continue
		}
		if p.o.kind == opUpdate {
			ds.last[p.o.key] = int64(p.o.val)
			ds.nver[p.o.key]++
		}
		c.samples = append(c.samples, sample{end: int64(end), lat: int64(end - start)})
	}
}

// window is the statistics of the operations that ended inside one stretch
// of a load. The metrics are taken over the whole window. Its seconds are
// reported beside them as the dispersion inside the run. (Medians over the
// seconds were tried as the gated figures and were no steadier from run to
// run: ten runs of each workload spread 4.9 % against 2.8 % on commit-wire's
// ops_per_s, and within a point of each other elsewhere.)
type window struct {
	Seconds float64      `json:"seconds"`
	Ops     int          `json:"ops"`
	OpsPerS float64      `json:"ops_per_s"`
	Latency latencyStats `json:"latency"`
	// One entry per whole second, then first quartile, median and third
	// quartile over the seconds of each column.
	EachSecond []secondStats `json:"each_second"`
	OpsPerSQ   [3]float64    `json:"ops_per_s_quartiles"`
	P50UsQ     [3]float64    `json:"p50_us_quartiles"`
	P99UsQ     [3]float64    `json:"p99_us_quartiles"`
}

type secondStats struct {
	Ops   int     `json:"ops"`
	P50us float64 `json:"p50_us"`
	P99us float64 `json:"p99_us"`
}

func windowOf(samples []sample, from, to time.Duration) window {
	w := window{Seconds: (to - from).Seconds()}
	// A window shorter than a second (the self-tests') is one sub-sample.
	step, n := time.Second, int((to-from)/time.Second)
	if n == 0 {
		step, n = to-from, 1
	}
	perSecond := make([][]int64, n)
	var lat []int64
	for _, s := range samples {
		if s.end <= int64(from) || s.end > int64(to) {
			continue
		}
		lat = append(lat, s.lat)
		if i := int((s.end - int64(from) - 1) / int64(step)); i < n {
			perSecond[i] = append(perSecond[i], s.lat)
		}
	}
	w.Ops = len(lat)
	w.OpsPerS = float64(w.Ops) / w.Seconds
	w.Latency = summarise(lat)
	ops, p50, p99 := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, l := range perSecond {
		st := summarise(l)
		w.EachSecond = append(w.EachSecond, secondStats{Ops: st.N, P50us: st.P50us, P99us: st.P99us})
		ops[i], p50[i], p99[i] = float64(st.N)/step.Seconds(), st.P50us, st.P99us
	}
	w.OpsPerSQ[0], w.OpsPerSQ[1], w.OpsPerSQ[2] = quartiles(ops)
	w.P50UsQ[0], w.P50UsQ[1], w.P50UsQ[2] = quartiles(p50)
	w.P99UsQ[0], w.P99UsQ[1], w.P99UsQ[2] = quartiles(p99)
	return w
}

// loadResult is one run of a workload's own load shape.
type loadResult struct {
	measured window // the measured operation, inside the window
	reader   window // mixed: the paced reader, inside the window
	// behindFrac is the share of the reads that fell due inside the window
	// and were not answered inside it: how far behind schedule the paced
	// reader ended. sentLateFrac is the share sent over a period late.
	behindFrac   float64
	sentLateFrac float64
	attempted    int
	failed       int
	firstErr     error
	stats        immortaldb.Stats // engine counters over the window, as deltas
	lockWaitS    float64          // immortaldb_lock_wait_seconds sum over the window
}

// runLoad drives the workload's load shape — its closed-loop callers and, for
// mixed, the paced reader beside them — for warm+length, and reports the
// operations that ended in the last `length` of it. Tracing is off.
func (e *env) runLoad(w *workload, sc scale, seed int64, warm, length time.Duration) (*loadResult, error) {
	type caller struct {
		r      *rung
		g      *gen
		period time.Duration
	}
	var callers []caller
	top := func() (*rung, error) {
		if w.wire {
			return e.clientRung()
		}
		return e.txRung(rungTx, "engine"), nil
	}
	for c := 0; c < w.clients; c++ {
		r, err := top()
		if err != nil {
			return nil, err
		}
		defer r.close()
		callers = append(callers, caller{r: r, g: newGen(e.ds, sc, seed, c, c, w.clients, w.kind)})
	}
	if w.reader {
		r, err := top()
		if err != nil {
			return nil, err
		}
		defer r.close()
		callers = append(callers, caller{r: r, g: newGen(e.ds, sc, seed, streamReader, 0, 1, opPoint),
			period: time.Second / time.Duration(sc.readerRate)})
	}

	results := make([]callerResult, len(callers))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = e.drive(c.r, c.g, t0, warm+length, c.period)
		}()
	}
	time.Sleep(warm - time.Since(t0))
	before, lockBefore := e.db.Stats(), lockWaitSeconds()
	wg.Wait()
	after, lockAfter := e.db.Stats(), lockWaitSeconds()

	res := &loadResult{stats: statsDelta(before, after), lockWaitS: lockAfter - lockBefore}
	var measured []sample
	for i, r := range results {
		res.attempted += r.attempted
		res.failed += r.failed
		if res.firstErr == nil {
			res.firstErr = r.firstErr
		}
		if callers[i].period > 0 {
			res.reader = windowOf(r.samples, warm, warm+length)
			// The read in flight when the window closes is not behind.
			due := int(length / callers[i].period)
			res.behindFrac = float64(max(due-1-res.reader.Ops, 0)) / float64(due)
			res.sentLateFrac = float64(r.late) / float64(max(r.attempted, 1))
		} else {
			measured = append(measured, r.samples...)
			if w.kind == opUpdate {
				e.acked += len(r.samples)
			}
		}
	}
	res.measured = windowOf(measured, warm, warm+length)
	return res, nil
}

// statsDelta subtracts the counters two snapshots share; gauges (PTT
// entries, run counts) keep the later snapshot's value.
func statsDelta(a, b immortaldb.Stats) immortaldb.Stats {
	d := b
	d.Commits -= a.Commits
	d.Aborts -= a.Aborts
	d.Stamp.PTTPuts -= a.Stamp.PTTPuts
	d.Stamp.PTTGets -= a.Stamp.PTTGets
	d.Stamp.PTTDeletes -= a.Stamp.PTTDeletes
	d.Stamp.VersionsStamped -= a.Stamp.VersionsStamped
	d.Stamp.GCRuns -= a.Stamp.GCRuns
	d.LogBytes -= a.LogBytes
	d.LogAppends -= a.LogAppends
	d.LogSyncs -= a.LogSyncs
	d.GroupedCommits -= a.GroupedCommits
	d.PagerReads -= a.PagerReads
	d.PagerWrites -= a.PagerWrites
	d.CacheHits -= a.CacheHits
	d.CacheMisses -= a.CacheMisses
	d.TimeSplits -= a.TimeSplits
	d.KeySplits -= a.KeySplits
	d.ChainHops -= a.ChainHops
	return d
}

// checkBypass turns each workload's by-pass prediction into a hard check on
// the engine's own counters over a window of ops operations.
func checkBypass(w *workload, d immortaldb.Stats, ops int) error {
	per := func(n uint64) float64 { return float64(n) / float64(max(ops, 1)) }
	switch w.name {
	case "commit-embedded":
		if d.LogSyncs != 0 {
			return fmt.Errorf("commit-embedded issued %d fsyncs; it must issue none", d.LogSyncs)
		}
	case "asof-hot":
		if d.HistRuns != 0 {
			return fmt.Errorf("asof-hot has %d cold runs; its history must all be hot", d.HistRuns)
		}
	case "asof-cold":
		if d.HistRuns == 0 {
			return fmt.Errorf("asof-cold has no cold runs")
		}
		if h, m := per(d.ChainHops), per(d.CacheMisses); h >= 0.05 || m >= 0.05 {
			return fmt.Errorf("asof-cold walked %.3f chain hops and missed the pool %.3f times per read; both must stay under 0.05", h, m)
		}
	case "scan-cold":
		if d.HistRuns == 0 {
			return fmt.Errorf("scan-cold has no cold runs")
		}
	}
	return nil
}
