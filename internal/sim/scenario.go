package sim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"immortaldb"
	"immortaldb/internal/admit"
	"immortaldb/internal/client"
	"immortaldb/internal/itime"
	"immortaldb/internal/repl"
	"immortaldb/internal/server"
	"immortaldb/internal/sqlish"
	"immortaldb/internal/workload"
)

// Scenario timing constants. All virtual. They are sized so that no
// deadline can fire across the virtual-time drift one healthy operation
// spans (the pump advances time between events at a nondeterministic
// real-time cadence, so semantics must not hinge on how much virtual time a
// microsecond of real work consumes) — while still resolving a black-holed
// connection in a couple of real seconds.
const (
	scnOpTimeout   = 5 * time.Minute
	scnIdleTimeout = 24 * time.Hour
	scnReqTimeout  = 30 * time.Minute
	// scnEngineTimeout bounds the engine's lock waits and Close drain.
	scnEngineTimeout = 30 * time.Minute
	scnBackoff       = 5 * time.Millisecond
	pumpPoll         = 200 * time.Microsecond
	pumpStep         = 100 * time.Millisecond
)

// Step is one entry of a scenario script. Exactly one field should be set;
// fault-schedule changes happen at phase barriers — between Ops steps, with
// no requests in flight — so a schedule change can never race an operation.
type Step struct {
	// Ops runs a phase: every client executes this many workload ops.
	Ops int
	// Partition isolates a server address (connections killed, dials
	// refused); Heal reconnects it.
	Partition, Heal string
	// Faults arms scripted faults; ClearFaults disarms all.
	Faults      []Fault
	ClearFaults bool
	// SyncReplicas runs one replication sync on every follower, in index
	// order, recording each outcome class in the trace. A follower whose
	// sync dies under a scripted fault simply stays behind until the next
	// sync step — the final verification syncs everyone over a clean
	// network first.
	SyncReplicas bool
	// KillServer abruptly stops a server: its address is partitioned and its
	// listener and connections close, simulating a primary crash. The engine
	// is never heard from again (the deposed primary stays out of the final
	// verification).
	KillServer string
	// Promote promotes the most-caught-up follower to a read-write primary:
	// bounded redo to its ingested end, log sealed, epoch fenced. A server
	// is booted over the promoted engine and every surviving follower is
	// retargeted at it.
	Promote bool
	// Repoint re-points every client pool at the current primary address
	// (the promoted survivor after a Promote step).
	Repoint bool
	// RefillQuotas refills every admission token bucket on every live server
	// to its burst capacity. Deterministic scenarios use manual-refill quotas
	// (Rate zero) and replenish them at script barriers, so every shed
	// decision is a pure function of each actor's operation sequence rather
	// than of the virtual-time pump's cadence.
	RefillQuotas bool
}

// Scenario describes one simulation: a cluster shape, a workload, a chaos
// profile, and a scripted fault schedule.
type Scenario struct {
	Name string
	// Servers and Clients set the cluster shape; client i talks to server
	// i mod Servers. Each server owns an independent database.
	Servers, Clients int
	// Followers boots this many WAL-shipping read replicas of server 0.
	// They sync at SyncReplicas script barriers (so fault coordinates stay
	// deterministic), and the post-run oracle replays every worker's AS OF
	// invoice audit against each replica: the totals must match exactly.
	Followers int
	// Workload is "metering" (default) or "moving".
	Workload string
	// Admission installs an admission-control gate on every server, including
	// a promoted survivor. Deterministic scenarios use manual-refill quotas;
	// see Step.RefillQuotas.
	Admission *admit.Config
	// ShedFree and MustShed are the admission oracle, by client index:
	// ShedFree workers must finish with zero sheds and zero errors (the
	// well-behaved tenant's goodput floor), MustShed workers must observe at
	// least one shed. Every worker, listed or not, must never see a shed
	// without a retry-after hint.
	ShedFree, MustShed []int
	// Profile is the probabilistic chaos profile for connections dialed
	// during op phases.
	Profile Profile
	Script  []Step
}

// Result is one scenario run's outcome.
type Result struct {
	Scenario string
	Seed     int64
	// Hash is the canonical trace hash; runs of the same scenario and seed
	// must produce byte-identical hashes.
	Hash   string
	Events int
	// Ops counts workload operations attempted; Errors those that failed
	// (network or server error).
	Ops, Errors int
	// Violations are oracle failures: an acked commit missing after heal,
	// or an AS OF invoice audit that does not match its recorded total.
	Violations []string
	Trace      *Trace
}

// Predefined returns a named scenario from the suite.
func Predefined(name string) (Scenario, bool) {
	switch name {
	case "smoke":
		return Scenario{
			Name: "smoke", Servers: 1, Clients: 2,
			Profile: Profile{Latency: time.Millisecond, Jitter: time.Millisecond},
			Script:  []Step{{Ops: 25}},
		}, true
	case "partition":
		return Scenario{
			Name: "partition", Servers: 2, Clients: 3,
			Profile: Profile{Latency: time.Millisecond, Jitter: 2 * time.Millisecond},
			Script: []Step{
				{Ops: 20},
				// Cut a request frame mid-write, black-hole a response, then
				// partition one server outright.
				{Faults: []Fault{
					{Dialer: "cli0", Op: "write", StartOp: 4, Count: 1, Mode: Kill, KeepBytes: 3},
					{Dialer: "cli1", Op: "write", StartOp: 5, Count: 1, Mode: Drop},
				}},
				{Ops: 12},
				{ClearFaults: true},
				{Partition: "srv1:7707"},
				{Ops: 10},
				{Heal: "srv1:7707"},
				{Ops: 20},
			},
		}, true
	case "churn":
		return Scenario{
			Name: "churn", Servers: 1, Clients: 4,
			Profile: Profile{
				Latency: 500 * time.Microsecond, Jitter: 2 * time.Millisecond,
				RefuseProb: 0.05, KillProb: 0.02, DropProb: 0.004,
			},
			Script: []Step{{Ops: 20}, {Ops: 20}},
		}, true
	case "replica-kill":
		return Scenario{
			Name: "replica-kill", Servers: 1, Clients: 2, Followers: 2,
			Profile: Profile{Latency: time.Millisecond, Jitter: time.Millisecond},
			Script: []Step{
				{Ops: 15},
				{SyncReplicas: true},
				// Cut follower 0's next sync mid-chunk: the 5th operation on
				// its next connection is the first shipped frame, and only 9
				// bytes of it — a frame header plus a sliver — arrive.
				{Faults: []Fault{{Dialer: "repl0", Op: "write", StartOp: 5, Count: 1, Mode: Kill, KeepBytes: 9}}},
				{Ops: 15},
				{SyncReplicas: true}, // repl0 dies mid-chunk, repl1 catches up
				{ClearFaults: true},
				{SyncReplicas: true}, // repl0 reconnects and resumes from its log end
				{Ops: 10},
			},
		}, true
	case "replica-partition":
		return Scenario{
			Name: "replica-partition", Servers: 1, Clients: 2, Followers: 2,
			Profile: Profile{Latency: time.Millisecond, Jitter: 2 * time.Millisecond},
			Script: []Step{
				{Ops: 12},
				{SyncReplicas: true},
				{Partition: "srv0:7707"},
				{SyncReplicas: true}, // both followers refused at dial
				{Heal: "srv0:7707"},
				{Ops: 12},
				{SyncReplicas: true},
			},
		}, true
	case "primary-kill-promote":
		return Scenario{
			Name: "primary-kill-promote", Servers: 1, Clients: 2, Followers: 2,
			Profile: Profile{Latency: time.Millisecond, Jitter: time.Millisecond},
			Script: []Step{
				{Ops: 15},
				{SyncReplicas: true},
				{Ops: 10},
				{SyncReplicas: true},
				// Doom every client frame: writes tear three bytes in, so no
				// commit can be acknowledged between the last sync barrier and
				// the kill — exactly the uncertainty window a real primary
				// crash leaves behind.
				{Faults: []Fault{
					{Dialer: "cli0", Op: "write", StartOp: 1, Count: -1, Mode: Kill, KeepBytes: 3},
					{Dialer: "cli1", Op: "write", StartOp: 1, Count: -1, Mode: Kill, KeepBytes: 3},
				}},
				{Ops: 4},
				{ClearFaults: true},
				{KillServer: "srv0:7707"},
				{Promote: true},
				{Repoint: true},
				{Ops: 12},
				{SyncReplicas: true},
			},
		}, true
	case "overload-storm":
		// Four tenants share one gated server: clients 2 and 3 are greedy —
		// their quota (six tokens per phase, replenished only at the script
		// barrier) sits far below their offered load — while client 1 holds
		// an explicit generous quota and client 0 runs untagged on the
		// default bucket. The greedy tenants must be shed, every shed must
		// carry a retry-after hint, and the well-behaved tenants must sail
		// through at full goodput. The concurrency limit is set above the
		// client count so the storm exercises the quota mechanism alone —
		// queue behavior would couple actors and is covered by unit tests.
		return Scenario{
			Name: "overload-storm", Servers: 1, Clients: 4,
			Profile: Profile{Latency: time.Millisecond, Jitter: time.Millisecond},
			Admission: &admit.Config{
				Default:   admit.Quota{Burst: 1e6},
				Tenant:    admit.Quota{Burst: 6},
				PerTenant: map[uint32]admit.Quota{1: {Burst: 1e6}},
				Limit:     64,
				MaxQueue:  16,
			},
			ShedFree: []int{0, 1},
			MustShed: []int{2, 3},
			Script:   []Step{{Ops: 14}, {RefillQuotas: true}, {Ops: 14}},
		}, true
	case "moving":
		return Scenario{
			Name: "moving", Servers: 1, Clients: 2, Workload: "moving",
			Profile: Profile{Latency: time.Millisecond, Jitter: time.Millisecond},
			Script: []Step{
				{Ops: 20},
				{Faults: []Fault{
					{Dialer: "cli1", Op: "write", StartOp: 6, Count: 1, Mode: Kill, KeepBytes: 5},
				}},
				{Ops: 20},
			},
		}, true
	}
	return Scenario{}, false
}

// engineOptions runs an engine on the scenario's virtual clock.
func engineOptions(tl *itime.SimClock) *immortaldb.Options {
	return &immortaldb.Options{NoSync: true, Clock: tl, LockTimeout: scnEngineTimeout, DrainTimeout: scnEngineTimeout}
}

// ScenarioNames lists the predefined suite.
func ScenarioNames() []string {
	return []string{"smoke", "partition", "churn", "moving", "replica-kill", "replica-partition", "primary-kill-promote", "overload-storm"}
}

// Run executes one scenario under one seed: boots the cluster on a virtual
// timeline over a seeded simnet, drives the workload through the script,
// then heals the network and verifies the oracles — every acknowledged
// commit is present, and every AS OF invoice audit matched its recorded
// total during the run.
func Run(sc Scenario, seed int64) (*Result, error) {
	if sc.Servers <= 0 || sc.Clients <= 0 {
		return nil, errors.New("sim: scenario needs at least one server and one client")
	}
	tl := itime.NewSimClock(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	stopPump := tl.StartPump(pumpPoll, pumpStep)
	defer stopPump()

	n := NewNet(tl, seed)
	trace := NewTrace()
	n.SetRecorder(trace.Add)

	// Boot servers, each over its own database in a throwaway directory.
	type srvRec struct {
		addr string
		db   *immortaldb.DB
		srv  *server.Server
		dir  string
	}
	servers := make([]*srvRec, sc.Servers)
	defer func() {
		for _, r := range servers {
			if r == nil {
				continue
			}
			r.srv.Close()
			r.db.Close()
			os.RemoveAll(r.dir)
		}
	}()
	for i := range servers {
		dir, err := os.MkdirTemp("", "simscn")
		if err != nil {
			return nil, err
		}
		db, err := immortaldb.Open(dir, engineOptions(tl))
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		srv := server.New(db, server.Config{
			Clock:          tl,
			IdleTimeout:    scnIdleTimeout,
			RequestTimeout: scnReqTimeout,
			Admission:      sc.Admission,
		})
		addr := fmt.Sprintf("srv%d:7707", i)
		lis, err := n.Listen(addr)
		if err != nil {
			db.Close()
			os.RemoveAll(dir)
			return nil, err
		}
		if err := srv.ListenOn(lis); err != nil {
			db.Close()
			os.RemoveAll(dir)
			return nil, err
		}
		go srv.Serve()
		servers[i] = &srvRec{addr: addr, db: db, srv: srv, dir: dir}
	}

	// Schema setup over a clean network (the chaos profile is installed
	// after), so every worker starts from the same deterministic state.
	ctx := context.Background()
	for i, r := range servers {
		adb, err := client.Open(r.addr, &client.Options{
			MaxConns: 1, Dialer: n.Dialer(fmt.Sprintf("admin%d", i)),
			Timeline: tl, OpTimeout: scnOpTimeout, RetryBackoff: scnBackoff,
		})
		if err != nil {
			return nil, fmt.Errorf("sim: admin dial %s: %w", r.addr, err)
		}
		var stmts []string
		if sc.Workload == "moving" {
			for w := 0; w < sc.Clients; w++ {
				if w%sc.Servers == i {
					stmts = append(stmts, fmt.Sprintf(
						"CREATE IMMORTAL TABLE mo%d (Oid smallint PRIMARY KEY, LocationX int, LocationY int)", w))
				}
			}
		} else {
			stmts = append(stmts, workload.MeterCreate())
		}
		for _, s := range stmts {
			if _, err := adb.Exec(ctx, s); err != nil {
				adb.Close()
				return nil, fmt.Errorf("sim: setup %q: %w", s, err)
			}
		}
		adb.Close()
	}

	// Followers of server 0, each replicating into its own directory. They
	// are paced by SyncReplicas script barriers rather than free-running, so
	// every replication connection's operation sequence — and therefore
	// every scripted fault coordinate on it — is deterministic.
	type folRec struct {
		f        *repl.Follower
		dir      string
		lastLSN  uint64
		promoted bool
	}
	followers := make([]*folRec, sc.Followers)
	defer func() {
		for _, fr := range followers {
			if fr == nil {
				continue
			}
			fr.f.Close()
			os.RemoveAll(fr.dir)
		}
	}()
	for i := range followers {
		dir, err := os.MkdirTemp("", "simrepl")
		if err != nil {
			return nil, err
		}
		f := repl.NewFollower(repl.Config{
			Dir:          dir,
			Addr:         servers[0].addr,
			DBOptions:    engineOptions(tl),
			Dialer:       n.Dialer(fmt.Sprintf("repl%d", i)),
			Timeline:     tl,
			OpTimeout:    scnOpTimeout,
			DialTimeout:  scnOpTimeout,
			RetryBackoff: scnBackoff,
			MaxPull:      512, // small pulls: several frames per sync to fault
		})
		followers[i] = &folRec{f: f, dir: dir}
	}
	var folViolations []string
	syncReplicas := func() {
		for i, fr := range followers {
			if fr.promoted {
				continue // the survivor is the primary now; nothing to sync
			}
			err := fr.f.Sync(ctx)
			class := "ok"
			var rerr *repl.ReplError
			switch {
			case err == nil:
			case errors.As(err, &rerr) && rerr.Retryable():
				class = "gap"
			default:
				class = "neterr"
			}
			trace.Add(fmt.Sprintf("repl%d", i), "sync "+class)
			// The horizon oracle: a replica's applied position never moves
			// backwards, however its syncs die — even across a base re-seed,
			// which lands it further ahead, never behind.
			if h := fr.f.Horizon(); h.AppliedLSN < fr.lastLSN {
				folViolations = append(folViolations, fmt.Sprintf(
					"repl%d: horizon regressed %d -> %d", i, fr.lastLSN, h.AppliedLSN))
			} else {
				fr.lastLSN = h.AppliedLSN
			}
		}
	}

	n.SetProfile(sc.Profile)

	// Workers.
	workers := make([]*scnWorker, sc.Clients)
	totalOps := 0
	for _, st := range sc.Script {
		totalOps += st.Ops
	}
	for i := range workers {
		workers[i] = newScnWorker(i, sc, servers[i%sc.Servers].addr, n, tl, trace, seed, totalOps)
	}
	defer func() {
		for _, w := range workers {
			w.close()
		}
	}()

	// Failover state: the cluster's current primary address, which servers
	// have been killed, and the server booted over a promoted follower.
	primaryAddr := servers[0].addr
	killed := make(map[string]bool)
	var promotedSrv *server.Server
	var promotedAddr string
	defer func() {
		if promotedSrv != nil {
			promotedSrv.Close()
		}
	}()

	// Script.
	for si, st := range sc.Script {
		switch {
		case st.Ops > 0:
			trace.Add("run", fmt.Sprintf("phase %d ops=%d", si, st.Ops))
			var wg sync.WaitGroup
			for _, w := range workers {
				wg.Add(1)
				go func(w *scnWorker) {
					defer wg.Done()
					for k := 0; k < st.Ops; k++ {
						w.runOp(ctx)
					}
				}(w)
			}
			wg.Wait()
		case st.Partition != "":
			n.Partition(st.Partition)
		case st.Heal != "":
			n.Heal(st.Heal)
		case st.SyncReplicas:
			trace.Add("run", fmt.Sprintf("phase %d sync replicas", si))
			syncReplicas()
		case st.KillServer != "":
			n.Partition(st.KillServer)
			for _, r := range servers {
				if r.addr == st.KillServer {
					r.srv.Close()
					killed[r.addr] = true
				}
			}
			trace.Add("run", "kill "+st.KillServer)
		case st.Promote:
			// Promote the most-caught-up follower: ties break toward the
			// lowest index, so the choice is a pure function of the trace.
			best := -1
			var bestLSN uint64
			for i, fr := range followers {
				if fr.promoted {
					continue
				}
				if h := fr.f.Horizon(); best == -1 || h.AppliedLSN > bestLSN {
					best, bestLSN = i, h.AppliedLSN
				}
			}
			if best == -1 {
				return nil, errors.New("sim: promote step with no follower to promote")
			}
			fr := followers[best]
			epoch, err := fr.f.Promote()
			if err != nil {
				return nil, fmt.Errorf("sim: promote repl%d: %w", best, err)
			}
			fr.promoted = true
			fdb := fr.f.DB()
			if fdb == nil {
				return nil, fmt.Errorf("sim: promoted repl%d has no engine", best)
			}
			psrv := server.New(fdb, server.Config{
				Clock:          tl,
				IdleTimeout:    scnIdleTimeout,
				RequestTimeout: scnReqTimeout,
				Admission:      sc.Admission,
			})
			promotedAddr = fmt.Sprintf("fol%d:7707", best)
			plis, err := n.Listen(promotedAddr)
			if err != nil {
				return nil, fmt.Errorf("sim: listen on promoted %s: %w", promotedAddr, err)
			}
			if err := psrv.ListenOn(plis); err != nil {
				return nil, fmt.Errorf("sim: promoted server: %w", err)
			}
			go psrv.Serve()
			promotedSrv = psrv
			primaryAddr = promotedAddr
			for i, other := range followers {
				if i == best || other.promoted {
					continue
				}
				if err := other.f.Retarget(primaryAddr); err != nil {
					return nil, fmt.Errorf("sim: retarget repl%d: %w", i, err)
				}
				trace.Add(fmt.Sprintf("repl%d", i), "retarget")
			}
			trace.Add("run", fmt.Sprintf("promote repl%d epoch=%d fence=%d", best, epoch, fr.f.Horizon().AppliedLSN))
		case st.Repoint:
			for _, w := range workers {
				if w.db != nil {
					w.db.Repoint(primaryAddr)
				}
				w.addr = primaryAddr
			}
			trace.Add("run", "repoint clients "+primaryAddr)
		case st.RefillQuotas:
			for _, r := range servers {
				if killed[r.addr] {
					continue
				}
				if g := r.srv.Gate(); g != nil {
					g.Refill()
				}
			}
			if promotedSrv != nil {
				if g := promotedSrv.Gate(); g != nil {
					g.Refill()
				}
			}
			trace.Add("run", "refill quotas")
		case st.ClearFaults:
			n.ClearFaults()
			trace.Add("run", "clear faults")
		case len(st.Faults) > 0:
			for _, f := range st.Faults {
				n.InjectFault(f)
			}
			trace.Add("run", fmt.Sprintf("arm %d faults", len(st.Faults)))
		}
	}

	// Heal everything and verify over a clean network. Killed servers stay
	// dead: their engines left the cluster at the kill and the promoted
	// survivor answers for their clients.
	n.ClearFaults()
	n.SetProfile(Profile{})
	for _, r := range servers {
		if !killed[r.addr] {
			n.Heal(r.addr)
		}
	}
	// The oracle phase must observe everything: flip every gate to
	// pass-through so verification reads are never shed on quotas the
	// workload just exhausted.
	for _, r := range servers {
		if g := r.srv.Gate(); g != nil {
			g.SetBypass(true)
		}
	}
	if promotedSrv != nil {
		if g := promotedSrv.Gate(); g != nil {
			g.SetBypass(true)
		}
	}

	res := &Result{Scenario: sc.Name, Seed: seed, Trace: trace}
	verifyAddrs := make([]string, 0, len(servers)+1)
	for _, r := range servers {
		if !killed[r.addr] {
			verifyAddrs = append(verifyAddrs, r.addr)
		}
	}
	if promotedAddr != "" {
		verifyAddrs = append(verifyAddrs, promotedAddr)
	}
	for i, addr := range verifyAddrs {
		vdb, err := client.Open(addr, &client.Options{
			MaxConns: 1, Dialer: n.Dialer(fmt.Sprintf("verify%d", i)),
			Timeline: tl, OpTimeout: scnOpTimeout, RetryBackoff: scnBackoff,
		})
		if err != nil {
			return nil, fmt.Errorf("sim: verify dial %s: %w", addr, err)
		}
		for _, w := range workers {
			if w.addr == addr {
				res.Violations = append(res.Violations, w.verify(ctx, vdb)...)
			}
		}
		vdb.Close()
	}
	for _, w := range workers {
		res.Ops += w.ops
		res.Errors += w.errs
		res.Violations = append(res.Violations, w.violations...)
	}

	// Admission oracle: the well-behaved tenants' goodput floor (never shed,
	// never errored while the greedy tenants starved), the greedy tenants'
	// backpressure (actually shed), and cooperative shedding everywhere —
	// every shed must have carried a retry-after hint.
	for _, i := range sc.ShedFree {
		if w := workers[i]; w.shed != 0 || w.errs != 0 {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"cli%d: goodput floor broken: shed=%d errs=%d", i, w.shed, w.errs))
		}
	}
	for _, i := range sc.MustShed {
		if workers[i].shed == 0 {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"cli%d: greedy tenant was never shed", i))
		}
	}
	for _, w := range workers {
		if w.shedBad != 0 {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"cli%d: %d sheds carried no retry-after hint", w.id, w.shedBad))
		}
	}

	// Replica oracle. A replica only serves AS OF instants at or below its
	// horizon — the newest commit timestamp it has applied — and the last
	// invoice close instant lies after the last workload commit. One fence
	// commit on the primary pushes the replicated horizon past every
	// recorded close instant, exactly as any later primary activity would.
	if len(followers) > 0 {
		fcli, err := client.Open(primaryAddr, &client.Options{
			MaxConns: 1, Dialer: n.Dialer("fence"),
			Timeline: tl, OpTimeout: scnOpTimeout, RetryBackoff: scnBackoff,
		})
		if err != nil {
			return nil, fmt.Errorf("sim: fence dial: %w", err)
		}
		for _, stmt := range []string{
			"CREATE IMMORTAL TABLE repl_fence (id int PRIMARY KEY, v int)",
			"INSERT INTO repl_fence VALUES (1, 1)",
		} {
			if _, err := fcli.Exec(ctx, stmt); err != nil {
				fcli.Close()
				return nil, fmt.Errorf("sim: fence %q: %w", stmt, err)
			}
		}
		fcli.Close()
	}

	// One clean-network sync brings every follower to the primary's flushed
	// end (nothing writes anymore), then every worker's AS OF invoice audit
	// replays against every replica — the replication horizon covers each
	// recorded close instant, and the copied history must produce the exact
	// recorded totals. A promoted survivor skips the sync (it IS the
	// primary) but is audited the same way: its history must reproduce every
	// invoice closed before and after the failover.
	for fi, fr := range followers {
		if !fr.promoted {
			if err := fr.f.Sync(ctx); err != nil {
				return nil, fmt.Errorf("sim: final replica %d sync: %w", fi, err)
			}
			trace.Add(fmt.Sprintf("repl%d", fi), "sync ok")
		}
		fdb := fr.f.DB()
		if fdb == nil {
			return nil, fmt.Errorf("sim: replica %d has no engine after final sync", fi)
		}
		sess := sqlish.NewSession(fdb)
		for _, w := range workers {
			for _, period := range w.invoicePeriods() {
				inv := w.invoices[period]
				got, err := replicaSumAsOf(sess, uint32(w.id), period, inv.asOf, w.gen.RowSeqs(period))
				if err != nil {
					sess.Close()
					return nil, fmt.Errorf("sim: replica %d audit cli%d p%d: %w", fi, w.id, period, err)
				}
				if got != inv.total {
					res.Violations = append(res.Violations, fmt.Sprintf(
						"repl%d: AS OF audit of cli%d period %d read %d, invoice recorded %d",
						fi, w.id, period, got, inv.total))
					trace.Add(fmt.Sprintf("repl%d", fi), fmt.Sprintf(
						"audit cli%d p%d MISMATCH got=%d want=%d", w.id, period, got, inv.total))
					continue
				}
				trace.Add(fmt.Sprintf("repl%d", fi), fmt.Sprintf(
					"audit cli%d p%d match total=%d", w.id, period, got))
			}
		}
		sess.Close()
	}
	res.Violations = append(res.Violations, folViolations...)

	res.Hash = trace.Hash()
	res.Events = trace.Len()
	return res, nil
}

// invoicePeriods lists a metering worker's closed periods in ascending
// order (empty for moving-objects workers).
func (w *scnWorker) invoicePeriods() []uint32 {
	if w.gen == nil {
		return nil
	}
	periods := make([]uint32, 0, len(w.invoices))
	for p := range w.invoices {
		periods = append(periods, p)
	}
	sort.Slice(periods, func(i, j int) bool { return periods[i] < periods[j] })
	return periods
}

// replicaSumAsOf totals one period's meter rows on a replica inside one AS
// OF transaction, through the same SQL surface clients use.
func replicaSumAsOf(sess *sqlish.Session, tenant, period uint32, asOf string, seqs []uint32) (int64, error) {
	if _, err := sess.Exec(fmt.Sprintf("BEGIN TRAN AS OF %q", asOf)); err != nil {
		return 0, err
	}
	var total int64
	for _, seq := range seqs {
		res, err := sess.Exec(workload.MeterSelect(tenant, period, seq))
		if err != nil {
			sess.Exec("ROLLBACK")
			return 0, err
		}
		if len(res.Rows) == 0 {
			continue
		}
		v, err := strconv.ParseInt(res.Rows[0][0], 10, 64)
		if err != nil {
			sess.Exec("ROLLBACK")
			return 0, err
		}
		total += v
	}
	if _, err := sess.Exec("COMMIT"); err != nil {
		return 0, err
	}
	return total, nil
}

// invoice is a closed billing period's recorded total and the AS OF instant
// audits replay it at.
type invoice struct {
	total int64
	asOf  string
}

// scnWorker is one simulated client: a pooled connection, a deterministic
// workload stream, and the bookkeeping the oracles check.
type scnWorker struct {
	id    int
	actor string
	addr  string
	tl    itime.Timeline
	trace *Trace
	db    *client.DB

	// Metering state.
	gen      *workload.MeterGen
	invoices map[uint32]invoice

	// Moving-objects state.
	stream []workload.Op
	next   int
	table  string

	// acked maps key (stringified) to the last value the server definitely
	// acknowledged; uncertain marks keys whose last write got a network
	// error (it may or may not have applied).
	acked     map[int64]int64
	ackedMO   map[uint16]bool
	uncertain map[int64]bool

	ops, errs int
	// shed counts operations the gate refused (class "overloaded"); shedBad
	// counts the subset that arrived without a retry-after hint — the
	// admission oracle requires it to stay zero everywhere.
	shed, shedBad int
	violations    []string
}

func newScnWorker(id int, sc Scenario, addr string, n *Net, tl itime.Timeline, trace *Trace, seed int64, totalOps int) *scnWorker {
	w := &scnWorker{
		id:        id,
		actor:     fmt.Sprintf("cli%d", id),
		addr:      addr,
		tl:        tl,
		trace:     trace,
		invoices:  make(map[uint32]invoice),
		acked:     make(map[int64]int64),
		ackedMO:   make(map[uint16]bool),
		uncertain: make(map[int64]bool),
	}
	if sc.Workload == "moving" {
		w.table = fmt.Sprintf("mo%d", id)
		gen := workload.New(workload.Config{Seed: seed ^ int64(id)<<21})
		inserts := totalOps/10 + 1
		w.stream, _ = gen.Stream(inserts, totalOps)
	} else {
		w.gen = workload.NewMeterGen(uint32(id), seed)
	}
	db, err := client.Open(addr, &client.Options{
		MaxConns:     1,
		Dialer:       n.Dialer(w.actor),
		Timeline:     tl,
		OpTimeout:    scnOpTimeout,
		RetryBackoff: scnBackoff,
		RetryBudget:  2 * time.Minute, // real time: the harness's patience
	})
	if err != nil {
		// A chaos profile can deterministically refuse every dial attempt;
		// the worker then sits the scenario out (recorded, so it hashes).
		trace.Add(w.actor, "open "+classify(err))
		return w
	}
	w.db = db
	return w
}

func (w *scnWorker) close() {
	if w.db != nil {
		w.db.Close()
	}
}

// classify folds an operation error into a per-plan-deterministic outcome
// class. Error strings and timestamps stay out of the trace.
func classify(err error) string {
	var re *client.RemoteError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &re) && strings.Contains(re.Msg, "duplicate primary key"):
		return "dup"
	case errors.As(err, &re) && re.Overloaded():
		return "overloaded"
	case errors.As(err, &re):
		return "remote"
	default:
		return "neterr"
	}
}

// classify folds one operation's final error into its trace class, counting
// sheds — and sheds that arrived without a retry-after hint — for the
// admission oracle.
func (w *scnWorker) classify(err error) string {
	class := classify(err)
	if class == "overloaded" {
		w.shed++
		var re *client.RemoteError
		if !errors.As(err, &re) || re.RetryAfter <= 0 {
			w.shedBad++
		}
	}
	return class
}

func (w *scnWorker) event(detail string) { w.trace.Add(w.actor, detail) }

func (w *scnWorker) runOp(ctx context.Context) {
	if w.db == nil {
		return
	}
	w.ops++
	if w.stream != nil {
		w.runMovingOp(ctx)
		return
	}
	op := w.gen.Next()
	switch op.Kind {
	case workload.MeterAppend:
		_, err := w.db.Exec(ctx, op.Statement())
		class := w.classify(err)
		key := workload.MeterKey(op.Tenant, op.Period, op.Seq)
		switch class {
		case "ok", "dup":
			// "dup" after a network hiccup means the first attempt did
			// execute: the pool's transparent retry re-ran the INSERT and
			// the engine reported the row already present. Either way the
			// commit is acknowledged.
			w.acked[key] = op.Amount
		case "neterr":
			w.errs++
			w.uncertain[key] = true
		default:
			w.errs++
		}
		w.event(fmt.Sprintf("append p%d r%d %s", op.Period, op.Seq, class))
	case workload.MeterClose:
		total, err := w.sumCurrent(ctx, op.Period)
		if err != nil {
			w.errs++
			w.event(fmt.Sprintf("close p%d %s", op.Period, w.classify(err)))
			return
		}
		// Quarantine the AS OF capture by two ticks on each side, so every
		// prior commit's tick is strictly before it and every later
		// correction's strictly after — the timestamps themselves never
		// appear in the trace, only the totals.
		w.tl.Sleep(ctx, 2*itime.TickDuration)
		asOf := w.tl.Now().UTC().Format(time.RFC3339Nano)
		w.tl.Sleep(ctx, 2*itime.TickDuration)
		w.invoices[op.Period] = invoice{total: total, asOf: asOf}
		w.event(fmt.Sprintf("close p%d total=%d", op.Period, total))
	case workload.MeterCorrect:
		_, err := w.db.Exec(ctx, op.Statement())
		class := w.classify(err)
		key := workload.MeterKey(op.Tenant, op.Period, op.Seq)
		switch class {
		case "ok":
			if _, was := w.acked[key]; was {
				w.acked[key] = op.Amount
			}
		case "neterr":
			w.errs++
			w.uncertain[key] = true
		default:
			w.errs++
		}
		w.event(fmt.Sprintf("correct p%d r%d %s", op.Period, op.Seq, class))
	case workload.MeterAudit:
		inv, ok := w.invoices[op.Period]
		if !ok {
			w.event(fmt.Sprintf("audit p%d unrecorded", op.Period))
			return
		}
		got, err := w.sumAsOf(ctx, op.Period, inv.asOf)
		if err != nil {
			w.errs++
			w.event(fmt.Sprintf("audit p%d %s", op.Period, w.classify(err)))
			return
		}
		if got != inv.total {
			w.violations = append(w.violations, fmt.Sprintf(
				"cli%d: AS OF audit of period %d read %d, invoice recorded %d",
				w.id, op.Period, got, inv.total))
			w.event(fmt.Sprintf("audit p%d MISMATCH got=%d want=%d", op.Period, got, inv.total))
			return
		}
		w.event(fmt.Sprintf("audit p%d match total=%d", op.Period, got))
	}
}

// sumCurrent totals a period's rows with current-state point reads.
func (w *scnWorker) sumCurrent(ctx context.Context, period uint32) (int64, error) {
	var total int64
	for _, seq := range w.gen.RowSeqs(period) {
		res, err := w.db.Exec(ctx, workload.MeterSelect(uint32(w.id), period, seq))
		if err != nil {
			return 0, err
		}
		if len(res.Rows) == 0 {
			continue // that append never landed
		}
		v, err := strconv.ParseInt(res.Rows[0][0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// sumAsOf totals a period's rows as of the recorded close instant, inside
// one AS OF transaction.
func (w *scnWorker) sumAsOf(ctx context.Context, period uint32, asOf string) (int64, error) {
	tx, err := w.db.BeginAsOf(ctx, asOf)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, seq := range w.gen.RowSeqs(period) {
		res, err := tx.Exec(ctx, workload.MeterSelect(uint32(w.id), period, seq))
		if err != nil {
			tx.Rollback(ctx)
			return 0, err
		}
		if len(res.Rows) == 0 {
			continue
		}
		v, perr := strconv.ParseInt(res.Rows[0][0], 10, 64)
		if perr != nil {
			tx.Rollback(ctx)
			return 0, perr
		}
		total += v
	}
	if err := tx.Commit(ctx); err != nil {
		return 0, err
	}
	return total, nil
}

// runMovingOp executes the next moving-objects stream op.
func (w *scnWorker) runMovingOp(ctx context.Context) {
	if w.next >= len(w.stream) {
		return
	}
	op := w.stream[w.next]
	w.next++
	var sql string
	if op.Kind == workload.OpInsert {
		sql = fmt.Sprintf("INSERT INTO %s VALUES (%d, %d, %d)", w.table, op.OID, op.Pos.X, op.Pos.Y)
	} else {
		sql = fmt.Sprintf("UPDATE %s SET LocationX = %d WHERE Oid = %d", w.table, op.Pos.X, op.OID)
	}
	_, err := w.db.Exec(ctx, sql)
	class := w.classify(err)
	if op.Kind == workload.OpInsert && (class == "ok" || class == "dup") {
		w.ackedMO[op.OID] = true
	}
	if class != "ok" && class != "dup" {
		w.errs++
	}
	w.event(fmt.Sprintf("%s o%d %s", op.Kind, op.OID, class))
}

// verify checks the no-acked-commit-loss oracle over a healed network: every
// key the server acknowledged must be present, with the acknowledged value
// unless a later write on it was network-uncertain.
func (w *scnWorker) verify(ctx context.Context, vdb *client.DB) []string {
	var out []string
	if w.stream != nil {
		for oid := range w.ackedMO {
			res, err := vdb.Exec(ctx, fmt.Sprintf("SELECT Oid FROM %s WHERE Oid = %d", w.table, oid))
			if err != nil {
				out = append(out, fmt.Sprintf("cli%d: verify read of object %d failed", w.id, oid))
				continue
			}
			if len(res.Rows) == 0 {
				out = append(out, fmt.Sprintf("cli%d: acked insert of object %d lost", w.id, oid))
			}
		}
		return out
	}
	for key, want := range w.acked {
		res, err := vdb.Exec(ctx, fmt.Sprintf("SELECT amount FROM meter WHERE k = %d", key))
		if err != nil {
			out = append(out, fmt.Sprintf("cli%d: verify read of key %d failed", w.id, key))
			continue
		}
		if len(res.Rows) == 0 {
			out = append(out, fmt.Sprintf("cli%d: acked commit on key %d lost", w.id, key))
			continue
		}
		if w.uncertain[key] {
			continue
		}
		if got, _ := strconv.ParseInt(res.Rows[0][0], 10, 64); got != want {
			out = append(out, fmt.Sprintf("cli%d: key %d holds %d, acked %d", w.id, key, got, want))
		}
	}
	return out
}
