// Command immortald serves an Immortal DB database over the wire protocol.
//
// It listens for wire-protocol clients (cmd/immortalsql -connect, or the
// internal/client Go package), enforces a connection cap and per-request
// deadlines, and exposes Prometheus-style /metrics, /healthz, the slow
// operation log (/debug/slowops) and net/http/pprof profiling over a
// separate HTTP listener. SIGINT/SIGTERM triggers a graceful shutdown: the
// listener closes, connections holding an open transaction get the drain
// timeout to commit or roll back, and the database closes cleanly behind
// them.
//
// A replica follows a primary with -follow: the local directory is seeded
// (from a base snapshot when the primary has truncated history) and kept
// current by continuous WAL segment shipping, and the same listener serves
// read-only snapshot and AS OF transactions against the replication horizon.
// Writes are answered with a typed redirect. If the replica falls so far
// behind that the primary must re-seed it mid-flight, the process exits so a
// supervisor restarts it onto the fresh copy.
//
// -restore-from together with -restore-asof runs a one-shot point-in-time
// restore into -db and exits: the source's retained log chain is cut at the
// last commit at or before the given time and replayed from genesis.
//
// Usage:
//
//	immortald -db ./mydb -listen :7707 -http :7708
//	immortald -db ./replica -listen :7717 -follow primary:7707
//	immortald -db ./clone -restore-from ./mydb -restore-asof "2004-08-12 10:15:20"
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"immortaldb"
	"immortaldb/internal/admit"
	"immortaldb/internal/obs"
	"immortaldb/internal/repl"
	"immortaldb/internal/server"
)

func main() {
	dir := flag.String("db", "immortaldb-data", "database directory")
	listen := flag.String("listen", ":7707", "wire-protocol listen address")
	httpAddr := flag.String("http", "", "HTTP listen address for /metrics and /healthz (empty = disabled)")
	maxConns := flag.Int("max-conns", 128, "maximum concurrent client connections")
	idle := flag.Duration("idle-timeout", 5*time.Minute, "close connections idle this long")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request I/O deadline")
	drain := flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown drain window for open transactions")
	slowOp := flag.Duration("slowop-threshold", 100*time.Millisecond, "operations slower than this record their span tree in /debug/slowops (negative = off)")
	follow := flag.String("follow", "", "primary address to replicate from; serves read-only")
	promoteFlag := flag.Bool("promote", false, "with -follow: promote to read-write primary once the initial catch-up finishes (SIGUSR1 promotes a running follower)")
	restoreFrom := flag.String("restore-from", "", "source directory for a point-in-time restore into -db")
	restoreAsOf := flag.String("restore-asof", "", `restore cut time, e.g. "2004-08-12 10:15:20" (with -restore-from)`)
	tiered := flag.Bool("tiered", false, "migrate cold history pages into compressed immutable runs")
	retention := flag.Duration("retention", 0, "vacuum historical versions older than this from the cold tier (0 = keep forever; with -tiered)")
	compactEvery := flag.Duration("compact-every", time.Minute, "background history-compaction interval (0 = manual only; with -tiered)")
	admitLimit := flag.Int("admit-limit", 0, "starting adaptive concurrency limit for the admission gate (0 = admission control off unless a quota flag enables it)")
	admitTarget := flag.Duration("admit-target", 25*time.Millisecond, "commit latency the adaptive limit steers toward (0 = fixed limit)")
	admitQueue := flag.Int("admit-queue", 0, "admission queue depth (0 = 2x the limit)")
	admitWait := flag.Duration("admit-wait", 0, "longest a request may wait for an admission slot before it is shed (0 = 1s)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant token refill rate in requests/s (0 = no refill beyond the burst)")
	tenantBurst := flag.Float64("tenant-burst", 0, "per-tenant token bucket capacity (0 = tenants unlimited)")
	untaggedRate := flag.Float64("untagged-rate", 0, "token refill rate for statements carrying no tenant key (0 = no refill)")
	untaggedBurst := flag.Float64("untagged-burst", 0, "token bucket capacity shared by untagged statements (0 = unlimited)")
	flag.Parse()

	obs.SetSlowOpThreshold(*slowOp)

	logger := log.New(os.Stderr, "immortald: ", log.LstdFlags)

	opts := &immortaldb.Options{DrainTimeout: *drain}
	if *tiered {
		opts.TieredHistory = true
		opts.Retention = *retention
		opts.HistCompactEvery = *compactEvery
	}

	if *restoreFrom != "" || *restoreAsOf != "" {
		if *restoreFrom == "" || *restoreAsOf == "" {
			logger.Fatalf("-restore-from and -restore-asof must be given together")
		}
		ts, err := immortaldb.ParseAsOf(*restoreAsOf)
		if err != nil {
			logger.Fatalf("restore: %v", err)
		}
		if err := immortaldb.RestoreAsOf(*restoreFrom, *dir, ts, opts); err != nil {
			logger.Fatalf("restore: %v", err)
		}
		logger.Printf("restored %s as of %s into %s", *restoreFrom, *restoreAsOf, *dir)
		return
	}

	// replaced fires when the follower's local engine is swapped for a fresh
	// base copy mid-flight; the process exits so a supervisor restarts it.
	var replaced chan struct{}
	var follower *repl.Follower
	var followerDone chan error
	followCtx, stopFollow := context.WithCancel(context.Background())
	defer stopFollow()

	var db *immortaldb.DB
	var err error
	if *follow != "" {
		follower = repl.NewFollower(repl.Config{
			Dir:       *dir,
			Addr:      *follow,
			DBOptions: opts,
			Logf:      logger.Printf,
		})
		logger.Printf("syncing from %s", *follow)
		if err := follower.Sync(followCtx); err != nil {
			logger.Fatalf("follow %s: %v", *follow, err)
		}
		db = follower.DB()
		_, reseeds := follower.Stats()
		h := follower.Horizon()
		logger.Printf("caught up to %s (applied LSN %d, base reseeds %d)", h.MaxVisible, h.AppliedLSN, reseeds)
		followerDone = make(chan error, 1)
		replaced = make(chan struct{})
		go func() { followerDone <- follower.Run(followCtx) }()
		go func() {
			t := time.NewTicker(time.Second)
			defer t.Stop()
			for range t.C {
				if cur := follower.DB(); cur != nil && cur != db {
					close(replaced)
					return
				}
			}
		}()
	} else {
		if *promoteFlag {
			logger.Fatalf("-promote requires -follow: only a follower can be promoted")
		}
		db, err = immortaldb.Open(*dir, opts)
		if err != nil {
			logger.Fatalf("open %s: %v", *dir, err)
		}
	}

	// Any admission flag turns the gate on: a concurrency limit alone, tenant
	// quotas alone, or both. With only quotas set, the concurrency limit
	// takes the gate's own default.
	var admission *admit.Config
	if *admitLimit > 0 || *tenantBurst > 0 || *untaggedBurst > 0 {
		admission = &admit.Config{
			Default:  admit.Quota{Rate: *untaggedRate, Burst: *untaggedBurst},
			Tenant:   admit.Quota{Rate: *tenantRate, Burst: *tenantBurst},
			Limit:    *admitLimit,
			Target:   *admitTarget,
			MaxQueue: *admitQueue,
			MaxWait:  *admitWait,
		}
	}

	srv := server.New(db, server.Config{
		MaxConns:       *maxConns,
		IdleTimeout:    *idle,
		RequestTimeout: *reqTimeout,
		Admission:      admission,
		Logf:           logger.Printf,
	})
	if follower != nil {
		// Write refusals carry the primary's address, so clients re-resolve
		// without an external directory.
		srv.SetPrimaryAddr(*follow)
	}
	addr, err := srv.Listen(*listen)
	if err != nil {
		db.Close()
		logger.Fatalf("listen %s: %v", *listen, err)
	}
	logger.Printf("serving %s on %s", *dir, addr)

	var httpSrv *http.Server
	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", metricsHandler(srv, follower))
		mux.HandleFunc("/debug/slowops", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(obs.SlowOps())
		})
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.HandleFunc("/healthz", healthzHandler(db, srv, follower))
		hl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			logger.Fatalf("http listen %s: %v", *httpAddr, err)
		}
		httpSrv = &http.Server{Handler: mux}
		go func() {
			if err := httpSrv.Serve(hl); err != nil && err != http.ErrServerClosed {
				logger.Printf("http: %v", err)
			}
		}()
		logger.Printf("metrics on http://%s/metrics", hl.Addr())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	// promote turns a follower into the read-write primary in place: redo
	// finishes, the log seals, the epoch fences the deposed primary, and the
	// same listener starts accepting writes — no restart, no reconnects.
	promote := func(reason string) {
		if follower == nil {
			logger.Printf("promote (%s): not a follower, ignoring", reason)
			return
		}
		epoch, err := follower.Promote()
		if err != nil {
			logger.Printf("promote (%s): %v", reason, err)
			return
		}
		srv.SetPrimaryAddr("")
		logger.Printf("promoted to primary (%s): epoch %d, fence LSN %d", reason, epoch, follower.Horizon().AppliedLSN)
	}
	if *promoteFlag {
		promote("-promote")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
wait:
	for {
		select {
		case s := <-sig:
			logger.Printf("signal %v: draining (up to %v)", s, *drain)
			break wait
		case err := <-serveErr:
			logger.Printf("serve: %v", err)
			break wait
		case <-replaced:
			logger.Printf("local copy re-seeded from base snapshot; restarting to serve the fresh copy")
			break wait
		case err := <-followerDone:
			if errors.Is(err, repl.ErrPromoted) {
				// The replication loop retired because this node is the
				// primary now; keep serving.
				logger.Printf("replication loop retired: %v", err)
				followerDone = nil
				continue
			}
			logger.Printf("replication stream ended: %v", err)
			break wait
		case <-usr1:
			promote("SIGUSR1")
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("shutdown: %v (survivors force-closed)", err)
	}
	if httpSrv != nil {
		httpSrv.Close()
	}
	if follower != nil {
		stopFollow()
		if followerDone != nil {
			<-followerDone
		}
		if err := follower.Close(); err != nil {
			logger.Fatalf("close follower: %v", err)
		}
		logger.Printf("closed cleanly")
		return
	}
	// A degraded engine skips the final checkpoint inside Close — writing one
	// would claim durability the failed I/O disproved — so the error it
	// returns is expected, not fatal: recovery at the next start settles
	// everything from the last synced log prefix.
	if derr := db.Degraded(); derr != nil {
		logger.Printf("engine degraded, skipping final checkpoint: %v", derr)
		db.Close()
		logger.Printf("closed degraded; next start will run recovery")
		return
	}
	if err := db.Close(); err != nil {
		logger.Fatalf("close: %v", err)
	}
	logger.Printf("closed cleanly")
}
