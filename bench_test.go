// Benchmarks regenerating the paper's evaluation (one per table/figure/
// ablation in DESIGN.md). The figure-shaped sweeps with paper-sized
// workloads live in cmd/benchfig5 and cmd/benchfig6; these testing.B
// benchmarks measure the same code paths per operation so regressions are
// visible in `go test -bench`.
package immortaldb_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"immortaldb"
	"immortaldb/internal/repro"
	"immortaldb/internal/workload"
)

// benchOpts keeps setup time reasonable under `go test -bench`.
func benchOpts() repro.Options { return repro.Options{Scale: 0.1, PageSize: 8192, Seed: 1} }

// prepEnv builds an environment with the Figure 5 workload pre-applied.
func prepEnv(b *testing.B, immortal bool, mutate func(*immortaldb.Options)) (*repro.Env, []workload.Op) {
	b.Helper()
	o := benchOpts()
	ops, err := workload.New(workload.Config{Seed: o.Seed}).Stream(100, 2000)
	if err != nil {
		b.Fatal(err)
	}
	e, err := repro.NewEnv(o, immortal, mutate)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	if _, err := repro.ApplyStream(e, ops); err != nil {
		b.Fatal(err)
	}
	return e, ops
}

// oneRecordTxn is the paper's highest-overhead case: one update per txn.
func oneRecordTxn(b *testing.B, e *repro.Env, i int) {
	op := workload.Op{OID: uint16(i % 100), Pos: workload.Point{X: int32(i), Y: int32(i)}}
	if err := repro.ApplyOp(e, op); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig5ImmortalTxn measures a single-record transaction against a
// transaction-time table (Figure 5, Immortal DB curve).
func BenchmarkFig5ImmortalTxn(b *testing.B) {
	e, _ := prepEnv(b, true, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oneRecordTxn(b, e, i)
	}
}

// BenchmarkFig5ConventionalTxn measures the same transaction against a
// conventional table (Figure 5, baseline curve).
func BenchmarkFig5ConventionalTxn(b *testing.B) {
	e, _ := prepEnv(b, false, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oneRecordTxn(b, e, i)
	}
}

// BenchmarkFig5BatchedWrite measures the lowest-overhead case: many records
// inside one transaction (per-record cost).
func BenchmarkFig5BatchedWrite(b *testing.B) {
	e, _ := prepEnv(b, true, nil)
	tx, err := e.DB.Begin(immortaldb.Serializable)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oid := uint16(i % 100)
		if err := tx.Set(e.Table, workload.Key(oid), workload.Value(workload.Point{X: int32(i)})); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig6AsOfScan measures the Figure 6 full-table AS OF scan at three
// history depths for two insert/update mixes.
func BenchmarkFig6AsOfScan(b *testing.B) {
	for _, mix := range []repro.Fig6Mix{{Inserts: 100, UpdatesPerItem: 36}, {Inserts: 400, UpdatesPerItem: 9}} {
		o := benchOpts()
		ops, err := workload.New(workload.Config{Seed: o.Seed}).Stream(mix.Inserts, 3600)
		if err != nil {
			b.Fatal(err)
		}
		e, err := repro.NewEnv(o, true, nil)
		if err != nil {
			b.Fatal(err)
		}
		times, err := repro.ApplyStream(e, ops)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.DB.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		for _, pct := range []int{0, 50, 100} {
			at := times[(len(times)-1)*(100-pct)/100]
			b.Run(fmt.Sprintf("mix=%dx%d/pct=%d", mix.Inserts, mix.UpdatesPerItem, pct), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tx, err := e.DB.BeginAsOfTS(at)
					if err != nil {
						b.Fatal(err)
					}
					rows := 0
					if err := tx.Scan(e.Table, nil, nil, func(k, v []byte) bool { rows++; return true }); err != nil {
						b.Fatal(err)
					}
					tx.Commit()
					if rows == 0 {
						b.Fatal("empty scan")
					}
				}
			})
		}
		e.Close()
	}
}

// BenchmarkAblationEagerVsLazy compares the per-transaction cost of the two
// timestamping strategies (ablation A1).
func BenchmarkAblationEagerVsLazy(b *testing.B) {
	for _, eager := range []bool{false, true} {
		name := "lazy"
		if eager {
			name = "eager"
		}
		b.Run(name, func(b *testing.B) {
			e, _ := prepEnv(b, true, func(o *immortaldb.Options) { o.Ablation.EagerTimestamping = eager })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				oneRecordTxn(b, e, i)
			}
			b.StopTimer()
			b.ReportMetric(float64(e.DB.Stats().LogBytes)/float64(b.N+2000), "logB/txn")
		})
	}
}

// BenchmarkAblationChainVsTSB compares a deep-history point read through the
// chain traversal against the TSB-tree index (ablation A2).
func BenchmarkAblationChainVsTSB(b *testing.B) {
	for _, mode := range []immortaldb.IndexMode{immortaldb.IndexChain, immortaldb.IndexTSB} {
		name := "chain"
		if mode == immortaldb.IndexTSB {
			name = "tsb"
		}
		b.Run(name, func(b *testing.B) {
			o := benchOpts()
			ops, err := workload.New(workload.Config{Seed: o.Seed}).Stream(50, 4000)
			if err != nil {
				b.Fatal(err)
			}
			e, err := repro.NewEnv(o, true, func(op *immortaldb.Options) { op.Ablation.HistoricalIndex = mode })
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			times, err := repro.ApplyStream(e, ops)
			if err != nil {
				b.Fatal(err)
			}
			if err := e.DB.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			oldest := times[0] // deepest history
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx, err := e.DB.BeginAsOfTS(oldest)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := tx.Get(e.Table, workload.Key(uint16(i%50))); err != nil {
					b.Fatal(err)
				}
				tx.Commit()
			}
			b.StopTimer()
			b.ReportMetric(float64(e.DB.TreeStats(e.Table).ChainHops)/float64(b.N), "chainhops/op")
		})
	}
}

// BenchmarkAblationPTTGC measures the commit path with timestamp-table GC on
// and off, reporting the final PTT size (ablation A3).
func BenchmarkAblationPTTGC(b *testing.B) {
	for _, gc := range []bool{true, false} {
		name := "gc=on"
		if !gc {
			name = "gc=off"
		}
		b.Run(name, func(b *testing.B) {
			e, _ := prepEnv(b, true, func(o *immortaldb.Options) {
				o.Ablation.DisablePTTGC = !gc
				o.CheckpointEveryN = 500
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				oneRecordTxn(b, e, i)
			}
			b.StopTimer()
			b.ReportMetric(float64(e.DB.Stats().PTTEntries), "PTTentries")
		})
	}
}

// BenchmarkAblationThreshold reports current-timeslice utilization across
// key-split thresholds (ablation A4; the paper predicts ~T·ln2).
func BenchmarkAblationThreshold(b *testing.B) {
	for _, t := range []float64{0.5, 0.7, 0.9} {
		b.Run(fmt.Sprintf("T=%.1f", t), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e, err := repro.NewEnv(benchOpts(), true, func(o *immortaldb.Options) { o.Ablation.Threshold = t })
				if err != nil {
					b.Fatal(err)
				}
				ops, err := workload.New(workload.Config{Seed: 1}).Stream(2000, 8000)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := repro.ApplyStream(e, ops); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				u, err := e.DB.TableUtilization(e.Table)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*u.CurrentSliceUtilization(), "sliceutil%")
				e.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkSnapshotIsolation measures snapshot reads racing a writer stream
// against serializable reads that contend on locks (experiment S1).
func BenchmarkSnapshotIsolation(b *testing.B) {
	for _, level := range []immortaldb.IsolationLevel{immortaldb.SnapshotIsolation, immortaldb.Serializable} {
		b.Run(level.String(), func(b *testing.B) {
			e, _ := prepEnv(b, true, func(o *immortaldb.Options) { o.LockTimeout = 30 * time.Second })
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				i := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					op := workload.Op{OID: uint16(i % 16), Pos: workload.Point{X: int32(i)}}
					if repro.ApplyOp(e, op) != nil {
						return
					}
					i++
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx, err := e.DB.Begin(level)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := tx.Get(e.Table, workload.Key(uint16(i%16))); err != nil {
					b.Fatal(err)
				}
				tx.Commit()
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}

// BenchmarkCommitThroughput measures durable single-record commits as the
// client count grows under group commit (experiment C1); clients=1 is the
// serial reference, one fsync per commit. Unlike the other benchmarks fsync
// stays ON — the shared sync is the effect under test. The reported ns/op is
// per commit regardless of the client count; commits/fsync is
// Stats.MeanCommitBatch over the timed storm and fsyncs/commit its log fsyncs
// per commit.
func BenchmarkCommitThroughput(b *testing.B) {
	for _, clients := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			e, err := repro.NewEnv(benchOpts(), true, func(o *immortaldb.Options) { o.NoSync = false })
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			before := e.DB.Stats()
			b.ResetTimer()
			sec, commits, err := repro.CommitStorm(e, clients, b.N)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			after := e.DB.Stats()
			window := immortaldb.Stats{
				LogSyncs:       after.LogSyncs - before.LogSyncs,
				GroupedCommits: after.GroupedCommits - before.GroupedCommits,
			}
			b.ReportMetric(float64(commits)/sec, "commits/s")
			b.ReportMetric(window.MeanCommitBatch(), "commits/fsync")
			b.ReportMetric(float64(window.LogSyncs)/float64(commits), "fsyncs/commit")
		})
	}
}

// BenchmarkHistoryTimeTravel measures whole-history retrieval of one record.
func BenchmarkHistoryTimeTravel(b *testing.B) {
	e, _ := prepEnv(b, true, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hist, err := e.DB.History(e.Table, workload.Key(uint16(i%100)))
		if err != nil {
			b.Fatal(err)
		}
		if len(hist) == 0 {
			b.Fatal("no history")
		}
	}
}
