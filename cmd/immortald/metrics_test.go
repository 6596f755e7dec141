package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"immortaldb"
	"immortaldb/internal/admit"
	"immortaldb/internal/client"
	"immortaldb/internal/itime"
	"immortaldb/internal/repl"
	"immortaldb/internal/server"
	"immortaldb/internal/sim"
	"immortaldb/internal/storage/vfs"
)

const (
	metricMapBegin = "<!-- metric map: generated from what /metrics serves by TestMetricMap (cmd/immortald); on drift it prints the table to paste here -->\n"
	metricMapEnd   = "<!-- end of metric map -->\n"
)

// metricsGet drives the /metrics handler exactly as an HTTP client would.
func metricsGet(t *testing.T, srv *server.Server, f *repl.Follower) string {
	t.Helper()
	rec := httptest.NewRecorder()
	metricsHandler(srv, f)(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	return rec.Body.String()
}

// samples maps each sample line's series (name plus labels) to its value.
func samples(t *testing.T, exposition string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for sc := bufio.NewScanner(strings.NewReader(exposition)); sc.Scan(); {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		series, v, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed sample %q", line)
		}
		if _, dup := out[series]; dup {
			t.Errorf("series %s rendered twice", series)
		}
		out[series] = v
	}
	return out
}

// TestMetricMap renders every family /metrics serves with its type and help
// text and fails if DESIGN.md's metric map says anything else.
func TestMetricMap(t *testing.T) {
	var prom strings.Builder
	writeMetrics(&prom, &scrape{})
	help := map[string]string{}
	var rows []string
	sc := bufio.NewScanner(strings.NewReader(prom.String()))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			help[name] = strings.ReplaceAll(text, "|", `\|`)
		} else if rest, ok := strings.CutPrefix(sc.Text(), "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			rows = append(rows, "| `"+name+"` | "+kind+" | "+help[name]+" |\n")
		}
	}
	sort.Strings(rows)
	want := metricMapBegin + "\n| metric | type | meaning |\n|---|---|---|\n" + strings.Join(rows, "") + "\n" + metricMapEnd

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(design)
	i, j := strings.Index(doc, metricMapBegin), strings.Index(doc, metricMapEnd)
	if i < 0 || j < i {
		t.Fatal("DESIGN.md has no generated metric map")
	}
	if got := doc[i : j+len(metricMapEnd)]; got != want {
		t.Errorf("DESIGN.md's metric map has drifted from /metrics; replace it with:\n%s", want)
	}
}

// TestMetricsOneNamePerFact renders /metrics for a live primary (admission
// gate on, one follower streaming from its shipper) and for that follower.
// Every family is declared once, every _total is a counter, and every
// instance family reads exactly its Stats field.
func TestMetricsOneNamePerFact(t *testing.T) {
	primary, err := immortaldb.Open(t.TempDir(), healthzOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	n := sim.NewNet(nil, 3)
	const addr = "primary:7707"
	lis, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(primary, server.Config{Logf: t.Logf, Admission: &admit.Config{Limit: 4}})
	if err := srv.ListenOn(lis); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	pool, err := client.Open(addr, &client.Options{MaxConns: 1, Dialer: n.Dialer("client")})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ctx := context.Background()
	if _, err := pool.Exec(ctx, "CREATE IMMORTAL TABLE kv (k INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := pool.Exec(ctx, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pool.Exec(ctx, "SELECT * FROM nosuchtable"); err == nil {
		t.Fatal("select from a missing table succeeded")
	}

	f := repl.NewFollower(repl.Config{
		Dir:          t.TempDir(),
		Addr:         addr,
		DBOptions:    healthzOpts(),
		Dialer:       n.Dialer("follower"),
		PollInterval: 5 * time.Millisecond,
		Logf:         t.Logf,
	})
	defer f.Close()
	runCtx, stop := context.WithCancel(ctx)
	runDone := make(chan error, 1)
	go func() { runDone <- f.Run(runCtx) }()
	defer func() { stop(); <-runDone }()

	// Wait until the follower is connected, has applied the whole log and
	// has acked it: from then on, with no writes, nothing below moves.
	end := primary.Log().FlushedLSN()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		followers, lag := srv.Shipper().Stats()
		if followers == 1 && lag == 0 && f.Horizon().AppliedLSN >= uint64(end) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never settled: followers=%d lag=%d applied=%d end=%d", followers, lag, f.Horizon().AppliedLSN, end)
		}
	}

	fsrv := server.New(f.DB(), server.Config{Logf: t.Logf})
	for _, node := range []struct {
		name string
		srv  *server.Server
		f    *repl.Follower
	}{{"primary", srv, nil}, {"follower", fsrv, f}} {
		t.Run(node.name, func(t *testing.T) {
			ds, ss := node.srv.DB().Stats(), node.srv.Stats()
			var gs admit.Stats
			if g := node.srv.Gate(); g != nil {
				gs = g.Stats()
			}
			followers, lag := node.srv.Shipper().Stats()
			var ingested, resyncs uint64
			if node.f != nil {
				ingested, resyncs = node.f.Stats()
			}
			out := metricsGet(t, node.srv, node.f)

			typ := map[string]string{}
			for sc := bufio.NewScanner(strings.NewReader(out)); sc.Scan(); {
				if rest, ok := strings.CutPrefix(sc.Text(), "# TYPE "); ok {
					name, kind, _ := strings.Cut(rest, " ")
					if _, dup := typ[name]; dup {
						t.Errorf("%s declared twice", name)
					}
					typ[name] = kind
				}
			}
			got := samples(t, out)
			for name, kind := range typ {
				if strings.HasSuffix(name, "_total") && kind != "counter" {
					t.Errorf("%s is TYPE %s, want counter", name, kind)
				}
			}
			for series := range got {
				name, _, _ := strings.Cut(series, "{")
				fam := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
				if typ[name] == "" && typ[fam] != "summary" {
					t.Errorf("sample %s belongs to no declared family", series)
				}
			}

			want := map[string]any{
				"immortaldb_commits_total":                ds.Commits,
				"immortaldb_aborts_total":                 ds.Aborts,
				"immortaldb_open_txns":                    ds.OpenTxns,
				"immortaldb_stamp_vtt_size":               ds.VTTBacklog,
				"immortaldb_stamp_ptt_size":               ds.PTTEntries,
				"immortaldb_stamp_versions_total":         ds.Stamp.VersionsStamped,
				"immortaldb_stamp_gc_runs_total":          ds.Stamp.GCRuns,
				"immortaldb_stamp_gc_removed_total":       ds.Stamp.PTTDeletes,
				"immortaldb_log_bytes":                    ds.LogBytes,
				"immortaldb_log_appends_total":            ds.LogAppends,
				"immortaldb_log_syncs_total":              ds.LogSyncs,
				"immortaldb_grouped_commits_total":        ds.GroupedCommits,
				"immortaldb_group_commit_batch_mean":      ds.MeanCommitBatch(),
				"immortaldb_wal_segments":                 ds.WALSegments,
				"immortaldb_pager_reads_total":            ds.PagerReads,
				"immortaldb_pager_writes_total":           ds.PagerWrites,
				"immortaldb_buffer_hits_total":            ds.CacheHits,
				"immortaldb_buffer_misses_total":          ds.CacheMisses,
				"immortaldb_buffer_evictions_total":       ds.Evictions,
				"immortaldb_tsb_time_splits_total":        ds.TimeSplits,
				"immortaldb_tsb_key_splits_total":         ds.KeySplits,
				"immortaldb_tsb_chain_hops_total":         ds.ChainHops,
				"immortaldb_hist_runs":                    ds.HistRuns,
				"immortaldb_hist_cold_bytes":              ds.HistBytes,
				"immortaldb_degraded":                     b01(ds.Degraded),
				"immortaldb_replica_applied_lsn":          ds.AppliedLSN,
				"immortald_conns_accepted_total":          ss.Accepted,
				"immortald_conns_refused_total":           ss.Refused,
				"immortald_open_connections":              ss.ActiveConns,
				"immortald_requests_total":                ss.Requests,
				"immortald_request_errors_total":          ss.Errors,
				"immortald_conn_panics_total":             ss.Panics,
				"immortald_draining":                      b01(ss.Draining),
				"immortald_admission_admitted_total":      gs.Admitted,
				"immortald_admission_shed_total":          gs.Shed,
				"immortald_admission_queue_depth":         gs.Queued,
				"immortald_admission_limit":               gs.Limit,
				"immortald_repl_followers":                followers,
				"immortald_repl_max_lag_bytes":            lag,
				"immortald_follower_ingested_bytes_total": ingested,
				"immortald_follower_base_resyncs_total":   resyncs,
			}
			for _, m := range instanceMetrics {
				w, ok := want[m.name]
				if !ok {
					t.Errorf("instance family %s has no expected Stats field here", m.name)
					continue
				}
				if got[m.name] != fmt.Sprint(w) {
					t.Errorf("%s = %s, want %v", m.name, got[m.name], w)
				}
			}

			// The run must have exercised what it claims to check.
			switch node.name {
			case "primary":
				if ds.Commits == 0 || ss.Requests == 0 || ss.Errors == 0 || gs.Admitted == 0 || gs.Limit == 0 || followers != 1 {
					t.Errorf("primary workload too thin: %+v %+v %+v followers=%d", ds, ss, gs, followers)
				}
			case "follower":
				if ingested == 0 || ds.AppliedLSN == 0 {
					t.Errorf("follower workload too thin: ingested=%d applied=%d", ingested, ds.AppliedLSN)
				}
			}
		})
	}
}

// TestMetricsSurviveASecondEngine degrades engine A, opens engine B in the
// same process, and renders /metrics for A: A's degraded state and WAL
// segment count must be A's own, not whatever B's open last wrote.
func TestMetricsSurviveASecondEngine(t *testing.T) {
	fs := vfs.NewSim(1)
	clock := itime.NewSimClock(time.Date(2004, 8, 12, 10, 0, 0, 0, time.UTC))
	clock.AutoStep = 1
	a, err := immortaldb.Open("/a", &immortaldb.Options{
		PageSize: 1024, CacheFrames: 64, WALSegmentSize: 4096, Clock: clock, FS: fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	tbl, err := a.CreateTable("kv", immortaldb.TableOptions{Immortal: true})
	if err != nil {
		t.Fatal(err)
	}
	set := func(i int) error {
		return a.Update(func(tx *immortaldb.Tx) error {
			return tx.Set(tbl, []byte(fmt.Sprintf("k%03d", i)), []byte(strings.Repeat("v", 64)))
		})
	}
	for i := 0; i < 100; i++ {
		if err := set(i); err != nil {
			t.Fatal(err)
		}
	}
	fs.InjectFault(vfs.Fault{Op: vfs.OpWrite, File: "wal.log.", Count: -1})
	if err := set(100); err == nil {
		t.Fatal("commit acknowledged over a failed log write")
	}
	if a.Degraded() == nil {
		t.Fatal("A not degraded after a failed log write")
	}

	b, err := immortaldb.Open(t.TempDir(), healthzOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	segs := a.Stats().WALSegments
	if segs == b.Stats().WALSegments {
		t.Fatalf("A and B both have %d WAL segments: the check below would prove nothing", segs)
	}

	got := samples(t, metricsGet(t, server.New(a, server.Config{}), nil))
	degraded := 0
	for series, v := range got {
		if strings.Contains(series, "degraded") {
			degraded++
			if v != "1" {
				t.Errorf("%s = %s on a degraded engine, want 1", series, v)
			}
		}
	}
	if degraded == 0 {
		t.Error("/metrics carries no degraded sample")
	}
	if v := got["immortaldb_wal_segments"]; v != fmt.Sprint(segs) {
		t.Errorf("immortaldb_wal_segments = %s, want A's %d", v, segs)
	}
}
