package main

import (
	"fmt"
	"io"
	"net/http"

	"immortaldb"
	"immortaldb/internal/admit"
	"immortaldb/internal/obs"
	"immortaldb/internal/repl"
	"immortaldb/internal/server"
)

// scrape is what one /metrics request reads: one snapshot of each instance
// this process serves. Parts a process does not run (an admission gate, a
// follower) stay zero.
type scrape struct {
	db                immortaldb.Stats
	srv               server.Stats
	gate              admit.Stats
	followers         int
	maxLag            uint64
	ingested, resyncs uint64
}

// instanceMetric is one /metrics family read from the instance snapshots.
// The obs registry holds only facts no instance counts, so no name below is
// registered there.
type instanceMetric struct {
	name, kind, help string
	read             func(*scrape) any
}

func b01(b bool) int {
	if b {
		return 1
	}
	return 0
}

var instanceMetrics = []instanceMetric{
	{"immortaldb_commits_total", "counter", "Committed transactions.", func(s *scrape) any { return s.db.Commits }},
	{"immortaldb_aborts_total", "counter", "Aborted transactions.", func(s *scrape) any { return s.db.Aborts }},
	{"immortaldb_open_txns", "gauge", "Currently active transactions.", func(s *scrape) any { return s.db.OpenTxns }},
	{"immortaldb_stamp_vtt_size", "gauge", "Volatile timestamp table entries (commits awaiting lazy timestamping plus active writers).", func(s *scrape) any { return s.db.VTTBacklog }},
	{"immortaldb_stamp_ptt_size", "gauge", "Persistent timestamp table entries.", func(s *scrape) any { return s.db.PTTEntries }},
	{"immortaldb_stamp_versions_total", "counter", "Record versions lazily timestamped.", func(s *scrape) any { return s.db.Stamp.VersionsStamped }},
	{"immortaldb_stamp_gc_runs_total", "counter", "Incremental PTT garbage-collection passes.", func(s *scrape) any { return s.db.Stamp.GCRuns }},
	{"immortaldb_stamp_gc_removed_total", "counter", "PTT entries reclaimed by garbage collection.", func(s *scrape) any { return s.db.Stamp.PTTDeletes }},
	{"immortaldb_log_bytes", "gauge", "Write-ahead log size in bytes.", func(s *scrape) any { return s.db.LogBytes }},
	{"immortaldb_log_appends_total", "counter", "Log records appended.", func(s *scrape) any { return s.db.LogAppends }},
	{"immortaldb_log_syncs_total", "counter", "Log fsyncs issued.", func(s *scrape) any { return s.db.LogSyncs }},
	{"immortaldb_grouped_commits_total", "counter", "Commit hardenings satisfied by another committer's fsync.", func(s *scrape) any { return s.db.GroupedCommits }},
	{"immortaldb_group_commit_batch_mean", "gauge", "Mean commits hardened per fsync.", func(s *scrape) any { return s.db.MeanCommitBatch() }},
	{"immortaldb_wal_segments", "gauge", "Live WAL segment files (grows on rotation, shrinks on checkpoint truncation).", func(s *scrape) any { return s.db.WALSegments }},
	{"immortaldb_pager_reads_total", "counter", "Pages read from disk.", func(s *scrape) any { return s.db.PagerReads }},
	{"immortaldb_pager_writes_total", "counter", "Pages written to disk.", func(s *scrape) any { return s.db.PagerWrites }},
	{"immortaldb_buffer_hits_total", "counter", "Buffer-pool fetches served from cache.", func(s *scrape) any { return s.db.CacheHits }},
	{"immortaldb_buffer_misses_total", "counter", "Buffer-pool fetches that read from disk.", func(s *scrape) any { return s.db.CacheMisses }},
	{"immortaldb_buffer_evictions_total", "counter", "Frames evicted to make room.", func(s *scrape) any { return s.db.Evictions }},
	{"immortaldb_tsb_time_splits_total", "counter", "TSB-tree time splits (historical page migrations).", func(s *scrape) any { return s.db.TimeSplits }},
	{"immortaldb_tsb_key_splits_total", "counter", "TSB-tree key splits of current pages.", func(s *scrape) any { return s.db.KeySplits }},
	{"immortaldb_tsb_chain_hops_total", "counter", "History-chain pages visited across all operations.", func(s *scrape) any { return s.db.ChainHops }},
	{"immortaldb_hist_runs", "gauge", "Live run files across all tables.", func(s *scrape) any { return s.db.HistRuns }},
	{"immortaldb_hist_cold_bytes", "gauge", "Bytes held in live cold-tier run files.", func(s *scrape) any { return s.db.HistBytes }},
	{"immortaldb_degraded", "gauge", "1 while the engine is read-only-degraded after an I/O failure, else 0.", func(s *scrape) any { return b01(s.db.Degraded) }},
	{"immortaldb_replica_applied_lsn", "gauge", "Replication horizon: end LSN of the last fully applied record.", func(s *scrape) any { return s.db.AppliedLSN }},
	{"immortald_conns_accepted_total", "counter", "Connections accepted.", func(s *scrape) any { return s.srv.Accepted }},
	{"immortald_conns_refused_total", "counter", "Connections refused over the cap.", func(s *scrape) any { return s.srv.Refused }},
	{"immortald_open_connections", "gauge", "Currently open client connections.", func(s *scrape) any { return s.srv.ActiveConns }},
	{"immortald_requests_total", "counter", "Exec requests served (one per exec or batch frame).", func(s *scrape) any { return s.srv.Requests }},
	{"immortald_request_errors_total", "counter", "Exec requests answered with an error frame.", func(s *scrape) any { return s.srv.Errors }},
	{"immortald_conn_panics_total", "counter", "Connection handlers killed by a panic.", func(s *scrape) any { return s.srv.Panics }},
	{"immortald_draining", "gauge", "1 while a graceful shutdown is in progress.", func(s *scrape) any { return b01(s.srv.Draining) }},
	{"immortald_admission_admitted_total", "counter", "Requests admitted through the gate (0 when the gate is off).", func(s *scrape) any { return s.srv.Admitted }},
	{"immortald_admission_shed_total", "counter", "Requests shed by the gate (quota, queue, or deadline).", func(s *scrape) any { return s.srv.Shed }},
	{"immortald_admission_queue_depth", "gauge", "Requests currently waiting for a concurrency slot.", func(s *scrape) any { return s.gate.Queued }},
	{"immortald_admission_limit", "gauge", "Current adaptive global concurrency limit (0 when the gate is off).", func(s *scrape) any { return s.gate.Limit }},
	{"immortald_repl_followers", "gauge", "Replication connections currently being served.", func(s *scrape) any { return s.followers }},
	{"immortald_repl_max_lag_bytes", "gauge", "Largest follower lag: primary durable end minus the follower's last acked applied LSN.", func(s *scrape) any { return s.maxLag }},
	{"immortald_follower_ingested_bytes_total", "counter", "Log bytes ingested from the primary.", func(s *scrape) any { return s.ingested }},
	{"immortald_follower_base_resyncs_total", "counter", "Times the follower was re-seeded from a base snapshot.", func(s *scrape) any { return s.resyncs }},
}

// writeMetrics renders sc's instance families, then the obs registry, in
// Prometheus text exposition format.
func writeMetrics(w io.Writer, sc *scrape) {
	for _, m := range instanceMetrics {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", m.name, m.help, m.name, m.kind, m.name, m.read(sc))
	}
	obs.WriteMetrics(w)
}

// metricsHandler answers /metrics for srv's database, and for follower when
// this process replicates (nil on a primary).
func metricsHandler(srv *server.Server, follower *repl.Follower) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sc := &scrape{db: srv.DB().Stats(), srv: srv.Stats()}
		if g := srv.Gate(); g != nil {
			sc.gate = g.Stats()
		}
		sc.followers, sc.maxLag = srv.Shipper().Stats()
		if follower != nil {
			sc.ingested, sc.resyncs = follower.Stats()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		writeMetrics(w, sc)
	}
}
