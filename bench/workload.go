package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"immortaldb"
	"immortaldb/internal/itime"
)

// scale holds every size the workloads depend on. The benchmark runs at
// fullScale; the self-tests shrink it so every workload runs in well under a
// second.
type scale struct {
	rows       int // commit workloads: rows preloaded
	aging      int // commit workloads: single-record updates applied in set-up
	keys       int // history workloads: keys
	rounds     int // history workloads: rounds, each rewriting every key
	batch      int // history workloads: rows per set-up commit
	scanLen    int // scan-cold: rows per scan
	hotFrames  int // asof-hot, asof-cold, scan-cold: buffer pool frames
	poolFrames int // mixed, commit-embedded: buffer pool frames, enough to hold everything
	readerRate int // mixed: paced reads per second
	ckptEveryN int // commit-embedded: commits between automatic checkpoints
}

var fullScale = scale{
	rows: 100_000, aging: 50_000,
	keys: 10_000, rounds: 20, batch: 100, scanLen: 200,
	hotFrames: 256, poolFrames: 8192, readerRate: 1000,
	ckptEveryN: 50_000,
}

type opKind uint8

const (
	opUpdate opKind = iota // single-record auto-commit update
	opPoint                // AS OF point read
	opScan                 // AS OF range scan
)

// op is one generated operation. The engine sees only the statements or
// keys made from it; val is what the generator's model says must come back.
type op struct {
	kind  opKind
	key   int // update, point: the key; scan: first key of the range
	val   int // update: the value written; point, scan: the value expected
	round int // point, scan: read as of the end of this round
}

// Streams of one seed. Each consumer draws from its own generator so that
// adding operations to one does not shift another's.
const (
	streamSetup  = 60
	streamReader = 61
	streamProbe  = 62
	streamLadder = 63 // and one more per rung after it
)

func newRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1024 + int64(stream)))
}

// gen makes one client's operation stream.
type gen struct {
	rng     *rand.Rand
	kind    opKind
	nkeys   int
	clients int // update: keys are partitioned so no two clients share one
	client  int
	nextVal int // update: next value to write
	rounds  int
	scanLen int
}

// updateValBase keeps written values seven digits long, so statements have
// one length throughout a run.
const updateValBase = 1_000_000

func newGen(ds *dataset, sc scale, seed int64, stream, client, clients int, kind opKind) *gen {
	return &gen{
		rng: newRand(seed, stream), kind: kind, nkeys: ds.nkeys,
		clients: clients, client: client, nextVal: updateValBase * (client + 1),
		rounds: sc.rounds, scanLen: sc.scanLen,
	}
}

func (g *gen) next() op {
	switch g.kind {
	case opUpdate:
		k := g.rng.Intn(g.nkeys/g.clients)*g.clients + g.client
		g.nextVal++
		return op{kind: opUpdate, key: k, val: g.nextVal}
	case opPoint:
		r := g.rng.Intn(g.rounds / 2)
		return op{kind: opPoint, key: g.rng.Intn(g.nkeys), val: r, round: r}
	default:
		// sqlish's WHERE takes one comparison, so the bounded ranges it can
		// express are a prefix (k < n) and a suffix (k >= n) of the table.
		r := g.rng.Intn(g.rounds / 2)
		k := 0
		if g.rng.Intn(2) == 1 {
			k = g.nkeys - g.scanLen
		}
		return op{kind: opScan, key: k, val: r, round: r}
	}
}

// statements renders an operation as the SQL a client sends.
func (ds *dataset) statements(o op) []string {
	switch o.kind {
	case opUpdate:
		return []string{fmt.Sprintf("UPDATE bench SET v = %d WHERE k = %d", o.val, o.key)}
	case opPoint:
		return []string{
			ds.beginAsOf[o.round],
			fmt.Sprintf("SELECT v FROM bench WHERE k = %d", o.key),
			"COMMIT TRAN",
		}
	default:
		sel := fmt.Sprintf("SELECT k, v FROM bench WHERE k < %d", o.key+ds.scanLen)
		if o.key > 0 {
			sel = fmt.Sprintf("SELECT k, v FROM bench WHERE k >= %d", o.key)
		}
		return []string{ds.beginAsOf[o.round], sel, "COMMIT TRAN"}
	}
}

// workload is one named traffic mix: how its database is built, how it is
// served, and who calls it.
type workload struct {
	name  string
	why   string
	flush string // flush policy, part of the workload's identity

	kind    opKind // the measured operation
	clients int    // closed-loop callers of the measured operation
	wire    bool   // callers go through client.DB and the loopback server
	reader  bool   // mixed: one more session issuing paced AS OF point reads
	history bool   // database is the keys x rounds history table
	tiered  bool   // history lives in cold runs

	serve func(sc scale) *immortaldb.Options
}

// simStart is where the set-up's simulated clock begins; serveSimStart is
// where commit-embedded's begins, after every set-up timestamp.
var (
	simStart      = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	serveSimStart = time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
)

// autoStepClock spreads commits over ticks the same way on every run, so
// timestamps, and with them split, stamp and log counts, repeat for a seed.
func autoStepClock(start time.Time) *itime.SimClock {
	c := itime.NewSimClock(start)
	c.AutoStep, c.AutoEvery = 1, 1000
	return c
}

var workloads = []*workload{
	{
		name:  "commit-wire",
		why:   "durable single-record updates through client, wire, server and SQL: the headline path, mostly fsync wait and request handling",
		flush: "fsync on, group commit on",
		kind:  opUpdate, clients: 2, wire: true,
		serve: func(scale) *immortaldb.Options { return nil },
	},
	{
		name:  "commit-embedded",
		why:   "the same updates as raw transactions with no fsync: isolates tsb, stamp, lock and wal append; a wire or parse change must not move it",
		flush: "NoSync, checkpoint every 50000 commits, pool holds the table",
		kind:  opUpdate, clients: 1,
		serve: func(sc scale) *immortaldb.Options {
			// The pool holds the whole table: at the default 1024 frames the
			// current pages sit right at the pool's size, and whether an
			// update misses — buffer and disk work this workload is meant to
			// leave out — swings p50 by 20 % from run to run.
			return &immortaldb.Options{NoSync: true, CheckpointEveryN: sc.ckptEveryN, CacheFrames: sc.poolFrames,
				Clock: autoStepClock(serveSimStart)}
		},
	},
	{
		name:  "asof-hot",
		why:   "AS OF point reads on history 7x the buffer pool: tsb chain walks, pool misses and page reads dominate; the cold tier is unused",
		flush: "read-only after set-up",
		kind:  opPoint, clients: 2, wire: true, history: true,
		serve: func(sc scale) *immortaldb.Options { return &immortaldb.Options{CacheFrames: sc.hotFrames} },
	},
	{
		name:  "asof-cold",
		why:   "the same reads with all history in cold runs: hist lookup and three round trips do the work; chain walks and pool misses vanish",
		flush: "read-only after set-up",
		kind:  opPoint, clients: 2, wire: true, history: true, tiered: true,
		serve: func(sc scale) *immortaldb.Options {
			return &immortaldb.Options{CacheFrames: sc.hotFrames, TieredHistory: true}
		},
	},
	{
		name:  "scan-cold",
		why:   "200-row AS OF range scans on the cold tier: merges every run over a range, so tuning that helps point lookups but hurts scans shows",
		flush: "read-only after set-up",
		kind:  opScan, clients: 2, wire: true, history: true, tiered: true,
		serve: func(sc scale) *immortaldb.Options {
			return &immortaldb.Options{CacheFrames: sc.hotFrames, TieredHistory: true}
		},
	},
	{
		name:  "mixed",
		why:   "one durable writer beside a paced AS OF reader on one tree, pool and lock manager: latch or starvation trade-offs between them show",
		flush: "fsync on, group commit on",
		kind:  opUpdate, clients: 1, wire: true, reader: true, history: true,
		serve: func(sc scale) *immortaldb.Options { return &immortaldb.Options{CacheFrames: sc.poolFrames} },
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// streamHash fingerprints the statements the workload's callers would send
// for a seed: the same seed gives the same hash, another seed another.
func streamHash(w *workload, sc scale, seed int64) uint64 {
	ds := &dataset{nkeys: sc.rows, scanLen: sc.scanLen}
	if w.history {
		ds.nkeys = sc.keys
		for r := 0; r < sc.rounds; r++ {
			ds.beginAsOf = append(ds.beginAsOf, fmt.Sprintf("BEGIN TRAN AS OF round %d", r))
		}
	}
	h := fnv.New64a()
	for c := 0; c < w.clients; c++ {
		g := newGen(ds, sc, seed, c, c, w.clients, w.kind)
		for i := 0; i < 1000; i++ {
			for _, s := range ds.statements(g.next()) {
				h.Write([]byte(s))
				h.Write([]byte{0})
			}
		}
	}
	return h.Sum64()
}
