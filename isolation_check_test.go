package immortaldb

// Timestamp-based isolation checker: R goroutines run a randomized mix of
// serializable, snapshot-isolation and AS OF transactions through the
// concurrent group-commit pipeline, recording every operation and the
// timestamps the engine assigned. Afterwards the recorded history is
// verified offline against the table's ground-truth version history:
//
//   - Reads observe exactly the latest version committed at or before the
//     transaction's effective timestamp — the snapshot timestamp for
//     SI / AS OF transactions, the commit timestamp for serializable ones.
//     For serializable transactions this, together with the write check, is
//     the serializability proof: every committed transaction sees precisely
//     the state produced by the transactions with smaller commit timestamps,
//     so commit-timestamp order is a valid serial order.
//   - First committer wins: no committed SI transaction overlaps a foreign
//     committed version of a key it wrote in (snapTS, commitTS).
//   - Writes are all-or-nothing: every version in the final history maps to
//     exactly one committed transaction's final write of that key, stamped
//     at its commit timestamp; aborted transactions leave no versions.
//
// The workload is deterministic under the seed (per-goroutine rngs); the
// interleaving is not, but the checks hold for every interleaving. Failures
// print a shrunk trace: the offending transaction's ops plus the relevant
// slice of the key's version history.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"
)

type ckOp struct {
	kind  byte   // 'r' read, 'w' write, 'd' delete, 's' scan
	key   string // for r/w/d
	val   string // written value, or observed value for reads
	found bool   // for reads
	scan  map[string]string // for scans: observed key -> value
}

type ckTxn struct {
	gor, idx int
	mode     IsolationLevel
	snapTS   Timestamp
	commitTS Timestamp
	// serTS is the serialization point of a committed READ-ONLY serializable
	// transaction, which gets no commit timestamp: the visibility watermark
	// captured just before Commit, while its S locks still blocked writers
	// on everything it read.
	serTS     Timestamp
	ops       []ckOp
	committed bool
	conflict  bool // aborted with ErrWriteConflict
}

func (x *ckTxn) label() string {
	return fmt.Sprintf("g%d.t%d %v snap=%v commit=%v", x.gor, x.idx, x.mode, x.snapTS, x.commitTS)
}

// lastOwnWrite returns the transaction's final w/d op for key among ops[:n],
// or nil.
func (x *ckTxn) lastOwnWrite(key string, n int) *ckOp {
	for i := n - 1; i >= 0; i-- {
		op := &x.ops[i]
		if (op.kind == 'w' || op.kind == 'd') && op.key == key {
			return op
		}
	}
	return nil
}

// ckVersion is one committed version from the ground-truth history.
type ckVersion struct {
	ts      Timestamp
	val     string
	deleted bool
}

func isoSeed() int64 {
	if s := os.Getenv("IMMORTALDB_ISO_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return 0x1db2006
}

func TestIsolationChecker(t *testing.T) {
	seed := isoSeed()
	t.Logf("seed=%d (override with IMMORTALDB_ISO_SEED)", seed)

	db, _ := openTestDB(t, func(o *Options) {
		o.Clock = pumpedClock(t)
		o.LockTimeout = 500 * time.Millisecond
	})
	runIsolationCheck(t, db, seed)
}

// runIsolationCheck drives the concurrent workload against db and verifies
// the recorded history offline. Shared with the promotion tests, which run
// it on a freshly promoted survivor to prove a post-failover primary honors
// the same isolation contract as one that never failed over.
func runIsolationCheck(t *testing.T, db *DB, seed int64) {
	t.Helper()
	const (
		goroutines  = 8
		txnsPerGor  = 40
		keySpace    = 24
		maxOps      = 6
		maxFailures = 5
	)
	tbl, err := db.CreateTable("iso", TableOptions{Immortal: true})
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }

	// Seed every key in one recorded transaction so early readers have a
	// ground state.
	var txns []*ckTxn
	var txnsMu sync.Mutex
	var commitTimes []Timestamp // for AS OF target picking
	record := func(x *ckTxn) {
		txnsMu.Lock()
		txns = append(txns, x)
		if x.committed && !x.commitTS.IsZero() {
			commitTimes = append(commitTimes, x.commitTS)
		}
		txnsMu.Unlock()
	}
	pickAsOf := func(rng *rand.Rand) (Timestamp, bool) {
		txnsMu.Lock()
		defer txnsMu.Unlock()
		if len(commitTimes) == 0 {
			return Timestamp{}, false
		}
		return commitTimes[rng.Intn(len(commitTimes))], true
	}

	init := &ckTxn{gor: -1, mode: Serializable, committed: true}
	{
		tx, err := db.Begin(Serializable)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < keySpace; i++ {
			v := "init." + key(i)
			if err := tx.Set(tbl, []byte(key(i)), []byte(v)); err != nil {
				t.Fatal(err)
			}
			init.ops = append(init.ops, ckOp{kind: 'w', key: key(i), val: v})
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		init.commitTS = tx.CommitTS()
		record(init)
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(g)*7919))
			for ti := 0; ti < txnsPerGor; ti++ {
				x := &ckTxn{gor: g, idx: ti}
				var tx *Tx
				var err error
				switch r := rng.Intn(10); {
				case r < 4:
					x.mode = Serializable
					tx, err = db.Begin(Serializable)
				case r < 8:
					x.mode = SnapshotIsolation
					tx, err = db.Begin(SnapshotIsolation)
				default:
					at, ok := pickAsOf(rng)
					if !ok {
						x.mode = SnapshotIsolation
						tx, err = db.Begin(SnapshotIsolation)
					} else {
						x.mode = asOf
						tx, err = db.BeginAsOfTS(at)
					}
				}
				if err != nil {
					t.Errorf("g%d.t%d begin: %v", g, ti, err)
					return
				}
				x.snapTS = tx.SnapshotTS()

				nops := 1 + rng.Intn(maxOps)
				opErr := func() error {
					for i := 0; i < nops; i++ {
						k := key(rng.Intn(keySpace))
						r := rng.Intn(10)
						if x.mode == asOf {
							r = 0 // read-only
						}
						switch {
						case r < 4: // read
							v, found, err := tx.Get(tbl, []byte(k))
							if err != nil {
								return err
							}
							x.ops = append(x.ops, ckOp{kind: 'r', key: k, val: string(v), found: found})
						case r < 5 && x.mode != Serializable: // scan (stable snapshot only)
							lo, hi := key(rng.Intn(keySpace)), key(rng.Intn(keySpace))
							if lo > hi {
								lo, hi = hi, lo
							}
							seen := make(map[string]string)
							if err := tx.Scan(tbl, []byte(lo), []byte(hi+"~"), func(k, v []byte) bool {
								seen[string(k)] = string(v)
								return true
							}); err != nil {
								return err
							}
							x.ops = append(x.ops, ckOp{kind: 's', key: lo, val: hi, scan: seen})
						case r < 9: // write
							v := fmt.Sprintf("g%d.t%d.%d", g, ti, i)
							if err := tx.Set(tbl, []byte(k), []byte(v)); err != nil {
								return err
							}
							x.ops = append(x.ops, ckOp{kind: 'w', key: k, val: v})
						default: // delete
							if err := tx.Delete(tbl, []byte(k)); err != nil {
								return err
							}
							x.ops = append(x.ops, ckOp{kind: 'd', key: k})
						}
					}
					return nil
				}()
				if opErr != nil {
					// Write conflict (FCW) or lock timeout/deadlock: abort.
					x.conflict = errors.Is(opErr, ErrWriteConflict)
					if err := tx.Rollback(); err != nil {
						// A failed rollback strands a pending version.
						t.Errorf("g%d.t%d rollback after %v: %v", g, ti, opErr, err)
						return
					}
					record(x)
					continue
				}
				x.serTS = db.Now()
				if err := tx.Commit(); err != nil {
					t.Errorf("g%d.t%d commit: %v", g, ti, err)
					return
				}
				x.committed = true
				x.commitTS = tx.CommitTS()
				record(x)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// ---- Offline verification against ground truth. ----

	// Ground truth: per-key committed version lists, oldest first.
	hist := make(map[string][]ckVersion)
	for i := 0; i < keySpace; i++ {
		entries, err := db.History(tbl, []byte(key(i)))
		if err != nil {
			t.Fatal(err)
		}
		var vs []ckVersion
		for j := len(entries) - 1; j >= 0; j-- { // History is newest-first
			e := entries[j]
			if e.Pending {
				t.Fatalf("key %s: pending version (tid %d) leaked into history", key(i), e.TID)
			}
			vs = append(vs, ckVersion{ts: e.TS, val: string(e.Value), deleted: e.Deleted})
		}
		hist[key(i)] = vs
	}

	// visibleAt returns the latest version at or before ts, excluding the
	// version stamped exactly at exclude (the reading transaction's own
	// commit, for reads that precede the transaction's write of the key).
	visibleAt := func(k string, ts Timestamp, exclude Timestamp) *ckVersion {
		var best *ckVersion
		for i := range hist[k] {
			v := &hist[k][i]
			if v.ts.After(ts) {
				break
			}
			if !exclude.IsZero() && v.ts == exclude {
				continue
			}
			best = v
		}
		return best
	}

	failures := 0
	fail := func(x *ckTxn, opIdx int, format string, args ...any) {
		failures++
		if failures > maxFailures {
			return
		}
		msg := fmt.Sprintf(format, args...)
		trace := ""
		for i, op := range x.ops {
			mark := "  "
			if i == opIdx {
				mark = "->"
			}
			switch op.kind {
			case 'r':
				trace += fmt.Sprintf("%s [%d] get  %s = %q found=%v\n", mark, i, op.key, op.val, op.found)
			case 'w':
				trace += fmt.Sprintf("%s [%d] set  %s = %q\n", mark, i, op.key, op.val)
			case 'd':
				trace += fmt.Sprintf("%s [%d] del  %s\n", mark, i, op.key)
			case 's':
				trace += fmt.Sprintf("%s [%d] scan [%s,%s] saw %d keys\n", mark, i, op.key, op.val, len(op.scan))
			}
		}
		k := ""
		if opIdx >= 0 && opIdx < len(x.ops) {
			k = x.ops[opIdx].key
		}
		histDump := ""
		if k != "" {
			for _, v := range hist[k] {
				histDump += fmt.Sprintf("    %v %q deleted=%v\n", v.ts, v.val, v.deleted)
			}
		}
		t.Errorf("isolation violation: txn %s: %s\nops:\n%shistory of %s:\n%s", x.label(), msg, trace, k, histDump)
	}

	// Expected version set per key from the model: each committed txn's final
	// write of a key becomes one version at its commit timestamp.
	type expVersion struct {
		val     string
		deleted bool
		by      string
	}
	expected := make(map[string]map[Timestamp]expVersion)
	for _, x := range txns {
		if !x.committed {
			continue
		}
		finals := make(map[string]*ckOp)
		for i := range x.ops {
			op := &x.ops[i]
			if op.kind == 'w' || op.kind == 'd' {
				finals[op.key] = op
			}
		}
		for k, op := range finals {
			if expected[k] == nil {
				expected[k] = make(map[Timestamp]expVersion)
			}
			if prev, dup := expected[k][x.commitTS]; dup {
				t.Fatalf("two committed writes of %s share timestamp %v (%s and %s)", k, x.commitTS, prev.by, x.label())
			}
			expected[k][x.commitTS] = expVersion{val: op.val, deleted: op.kind == 'd', by: x.label()}
		}
	}
	for k, vs := range hist {
		for _, v := range vs {
			want, ok := expected[k][v.ts]
			if !ok {
				t.Errorf("ghost version: key %s has version at %v (%q deleted=%v) no committed transaction wrote", k, v.ts, v.val, v.deleted)
				continue
			}
			if want.deleted != v.deleted || (!v.deleted && want.val != v.val) {
				t.Errorf("key %s at %v: history has %q deleted=%v, %s wrote %q deleted=%v",
					k, v.ts, v.val, v.deleted, want.by, want.val, want.deleted)
			}
			delete(expected[k], v.ts)
		}
	}
	for k, rest := range expected {
		for ts, v := range rest {
			t.Errorf("lost write: %s committed %s=%q deleted=%v at %v but history has no such version", v.by, k, v.val, v.deleted, ts)
		}
	}
	if t.Failed() {
		return
	}

	// Read checks.
	committed, conflicts := 0, 0
	for _, x := range txns {
		if x.conflict {
			conflicts++
		}
		if x.committed {
			committed++
		}
		var effective Timestamp
		var exclude Timestamp
		switch {
		case x.mode == Serializable:
			if !x.committed {
				continue // no serialization point assigned
			}
			if x.commitTS.IsZero() {
				effective = x.serTS // read-only: watermark under held S locks
			} else {
				effective = x.commitTS
				exclude = x.commitTS // own writes live at commitTS; reads before a write must not see it
			}
		default: // SnapshotIsolation (committed or aborted) and asOf
			effective = x.snapTS
		}
		for i, op := range x.ops {
			switch op.kind {
			case 'r':
				wantVal, wantFound := "", false
				if own := x.lastOwnWrite(op.key, i); own != nil {
					wantVal, wantFound = own.val, own.kind == 'w'
				} else if v := visibleAt(op.key, effective, exclude); v != nil && !v.deleted {
					wantVal, wantFound = v.val, true
				}
				if op.found != wantFound || (wantFound && op.val != wantVal) {
					fail(x, i, "read of %s at effective ts %v observed (%q, %v), want (%q, %v)",
						op.key, effective, op.val, op.found, wantVal, wantFound)
				}
			case 's':
				lo, hi := op.key, op.val
				for ki := 0; ki < keySpace; ki++ {
					k := key(ki)
					if k < lo || k > hi {
						continue
					}
					wantVal, wantFound := "", false
					if own := x.lastOwnWrite(k, i); own != nil {
						wantVal, wantFound = own.val, own.kind == 'w'
					} else if v := visibleAt(k, effective, exclude); v != nil && !v.deleted {
						wantVal, wantFound = v.val, true
					}
					got, gotFound := op.scan[k]
					if gotFound != wantFound || (wantFound && got != wantVal) {
						fail(x, i, "scan observed %s as (%q, %v), want (%q, %v)", k, got, gotFound, wantVal, wantFound)
					}
				}
			}
		}
		// First committer wins: a committed SI transaction must not overlap
		// a foreign committed version of any key it wrote.
		if x.mode == SnapshotIsolation && x.committed {
			for i, op := range x.ops {
				if op.kind != 'w' && op.kind != 'd' {
					continue
				}
				for _, v := range hist[op.key] {
					if x.snapTS.Less(v.ts) && v.ts.Less(x.commitTS) {
						who := "?"
						for _, o := range txns {
							if o.committed && o.commitTS == v.ts {
								who = o.label()
							}
						}
						fail(x, i, "FCW violation: foreign version of %s at %v inside (%v, %v), written by [%s]",
							op.key, v.ts, x.snapTS, x.commitTS, who)
					}
				}
			}
		}
	}
	t.Logf("txns=%d committed=%d conflicts=%d failures=%d", len(txns), committed, conflicts, failures)
	if committed < goroutines*txnsPerGor/2 {
		t.Errorf("only %d/%d transactions committed — workload degenerate", committed, goroutines*txnsPerGor+1)
	}
}
