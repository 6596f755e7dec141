package immortaldb

import (
	"fmt"
	"math/rand"
	"testing"
)

// modelEvent records one committed write for the reference model.
type modelEvent struct {
	ts  Timestamp
	key string
	val string
	del bool
}

// modelStateAt replays events up to ts.
func modelStateAt(events []modelEvent, at Timestamp) map[string]string {
	state := map[string]string{}
	for _, e := range events {
		if e.ts.After(at) {
			continue
		}
		if e.del {
			delete(state, e.key)
		} else {
			state[e.key] = e.val
		}
	}
	return state
}

// verifyAgainstModel checks the current state and a handful of historical
// states against the model.
func verifyAgainstModel(t *testing.T, db *DB, tbl *Table, events []modelEvent, rng *rand.Rand) {
	t.Helper()
	checkAt := func(at Timestamp, label string) {
		want := modelStateAt(events, at)
		tx, err := db.BeginAsOfTS(at)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		err = tx.Scan(tbl, nil, nil, func(k, v []byte) bool {
			got[string(k)] = string(v)
			return true
		})
		tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d keys, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%s: %s = %q, want %q", label, k, got[k], v)
			}
		}
	}
	if len(events) == 0 {
		return
	}
	checkAt(events[len(events)-1].ts, "current")
	for i := 0; i < 5; i++ {
		e := events[rng.Intn(len(events))]
		checkAt(e.ts, fmt.Sprintf("as of %v", e.ts))
	}
}

// TestCrashRecoveryRandomized is the heavyweight durability test: a random
// workload interrupted by crashes at random points (sometimes mid-
// transaction, sometimes right after commits, sometimes after checkpoints),
// re-verified against an in-memory model after every recovery — including
// historical (AS OF) states, which exercise post-crash lazy re-timestamping
// from the recovered PTT.
func TestCrashRecoveryRandomized(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			opts := testOpts(func(o *Options) {
				o.PageSize = 1024
				o.CacheFrames = 16 // force evictions (and flush-path stamping)
			})
			var events []modelEvent

			for round := 0; round < 5; round++ {
				db, err := Open(dir, opts)
				if err != nil {
					t.Fatalf("round %d: open: %v", round, err)
				}
				var tbl *Table
				if round == 0 {
					tbl, err = db.CreateTable("t", TableOptions{Immortal: true})
				} else {
					tbl, err = db.Table("t")
				}
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}

				// Everything committed before this round must have survived.
				verifyAgainstModel(t, db, tbl, events, rng)

				// Random committed work.
				nTxns := 10 + rng.Intn(40)
				for i := 0; i < nTxns; i++ {
					tx, err := db.Begin(Serializable)
					if err != nil {
						t.Fatal(err)
					}
					var txEvents []modelEvent
					nOps := 1 + rng.Intn(4)
					for j := 0; j < nOps; j++ {
						k := fmt.Sprintf("key-%02d", rng.Intn(12))
						del := rng.Intn(6) == 0
						v := fmt.Sprintf("s%d-r%d-%d-%d", seed, round, i, j)
						if del {
							err = tx.Delete(tbl, []byte(k))
						} else {
							err = tx.Set(tbl, []byte(k), []byte(v))
						}
						if err != nil {
							t.Fatal(err)
						}
						txEvents = append(txEvents, modelEvent{key: k, val: v, del: del})
					}
					if rng.Intn(5) == 0 {
						if err := tx.Rollback(); err != nil {
							t.Fatal(err)
						}
						continue
					}
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					at := db.Now()
					for _, e := range txEvents {
						e.ts = at
						events = append(events, e)
					}
				}
				// Sometimes checkpoint; sometimes leave everything dirty.
				if rng.Intn(2) == 0 {
					if err := db.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				// Sometimes leave a loser transaction in flight.
				if rng.Intn(2) == 0 {
					tx, _ := db.Begin(Serializable)
					tx.Set(tbl, []byte("key-00"), []byte("loser"))
					tx.Delete(tbl, []byte("key-01"))
					db.log.Flush()
				}
				verifyAgainstModel(t, db, tbl, events, rng)
				db.crash()
			}

			// Final clean open and verify.
			db, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			tbl, err := db.Table("t")
			if err != nil {
				t.Fatal(err)
			}
			verifyAgainstModel(t, db, tbl, events, rng)
		})
	}
}

// TestChainVsTSBDifferential runs an identical committed workload under both
// historical index modes and requires identical answers for every query —
// the two access paths are different routes to the same versions.
func TestChainVsTSBDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	type q struct {
		at  Timestamp
		key string
	}
	var answers [2]map[string]string
	var queries []q

	for mi, mode := range []IndexMode{IndexChain, IndexTSB} {
		rngW := rand.New(rand.NewSource(123)) // same workload both modes
		db, _ := openTestDB(t, func(o *Options) {
			o.Ablation.HistoricalIndex = mode
			o.PageSize = 1024
		})
		tbl, _ := db.CreateTable("t", TableOptions{Immortal: true})
		var times []Timestamp
		for i := 0; i < 500; i++ {
			k := fmt.Sprintf("key-%02d", rngW.Intn(20))
			if rngW.Intn(7) == 0 {
				del(t, db, tbl, k)
			} else {
				set(t, db, tbl, k, fmt.Sprintf("v%d", i))
			}
			times = append(times, db.Now())
		}
		if mi == 0 {
			// Build the query set once, from the first run's timestamps.
			for i := 0; i < 200; i++ {
				queries = append(queries, q{
					at:  times[rng.Intn(len(times))],
					key: fmt.Sprintf("key-%02d", rng.Intn(20)),
				})
			}
		}
		answers[mi] = map[string]string{}
		for qi, qq := range queries {
			tx, err := db.BeginAsOfTS(qq.at)
			if err != nil {
				t.Fatal(err)
			}
			v, ok, err := tx.Get(tbl, []byte(qq.key))
			tx.Commit()
			if err != nil {
				t.Fatal(err)
			}
			answers[mi][fmt.Sprint(qi)] = fmt.Sprintf("%v:%s", ok, v)
		}
		// Timestamps must be identical across runs (same clock schedule) for
		// the comparison to be meaningful.
		if mi == 1 {
			for k, v := range answers[0] {
				if answers[1][k] != v {
					t.Fatalf("query %s: chain=%q tsb=%q", k, v, answers[1][k])
				}
			}
		}
	}
}
