// Benchmarks for the two experiments with no internal/repro twin: commit
// throughput under group commit (C1) and whole-history retrieval. The
// paper's figures and ablations (F5, F6, A1–A4, S1) are defined once, in
// internal/repro; cmd/benchpaper prints them, and its tests run each one.
package immortaldb_test

import (
	"fmt"
	"testing"

	"immortaldb"
	"immortaldb/internal/repro"
	"immortaldb/internal/workload"
)

// benchOpts keeps setup time reasonable under `go test -bench`.
func benchOpts() repro.Options { return repro.Options{Scale: 0.1, PageSize: 8192, Seed: 1} }

// BenchmarkCommitThroughput measures durable single-record commits as the
// client count grows under group commit (experiment C1); clients=1 is the
// serial reference, one fsync per commit. Unlike the paper's experiments fsync
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

// BenchmarkHistoryTimeTravel measures whole-history retrieval of one record
// after 2,000 moving-objects transactions over 100 objects.
func BenchmarkHistoryTimeTravel(b *testing.B) {
	o := benchOpts()
	ops, err := workload.New(workload.Config{Seed: o.Seed}).Stream(100, 2000)
	if err != nil {
		b.Fatal(err)
	}
	e, err := repro.NewEnv(o, true, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if _, err := repro.ApplyStream(e, ops); err != nil {
		b.Fatal(err)
	}
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
