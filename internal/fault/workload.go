package fault

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"immortaldb"
	"immortaldb/internal/itime"
)

const numKeys = 12

// serialSpec shapes the single-threaded workload.
type serialSpec struct {
	// ckptEvery runs a checkpoint (and, when tiered, a CompactHistory pass —
	// the checkpoint just flush-stamped everything, so history pages are
	// migratable) before every ckptEvery-th transaction.
	ckptEvery int
	// rollbacks makes one transaction in seven roll back deliberately.
	rollbacks bool
	// tolerate, if set, names the errors the workload survives: a tolerated
	// checkpoint failure is ignored, a tolerated write failure abandons the
	// transaction (it never reached Commit, so its events are definitely
	// absent after reopen) and moves on. The workload then runs until the
	// engine degrades.
	tolerate func(error) bool
}

// serial drives Scenario.Txns transactions through db from one goroutine,
// recording acks and the pending transaction in w. It returns the
// first error it does not tolerate.
//
// The generator is a function of the seed alone: every rng draw happens in a
// fixed order, so two runs with the same seed issue identical I/O.
func serial(r *Result, db *immortaldb.DB, tbl *immortaldb.Table, clock *itime.SimClock, w *Writer, spec serialSpec) error {
	tolerated := func(err error) bool { return spec.tolerate != nil && spec.tolerate(err) }
	rng := rand.New(rand.NewSource(r.Coord.Seed*7919 + 17))
	for i := 0; i < r.Scenario.Txns && db.Degraded() == nil; i++ {
		// Advance the clock by 0–2 ticks: zero keeps consecutive commits on
		// one wall tick, exercising the sequence-number tie-break.
		if adv := rng.Intn(3); adv > 0 {
			clock.Advance(time.Duration(adv) * itime.TickDuration)
		}
		if i%spec.ckptEvery == spec.ckptEvery-1 {
			if err := db.Checkpoint(); err != nil && !tolerated(err) {
				return fmt.Errorf("checkpoint: %w", err)
			}
			if r.Scenario.Tiered && db.Degraded() == nil {
				if err := db.CompactHistory(); err != nil && !tolerated(err) {
					return fmt.Errorf("compact history: %w", err)
				}
			}
		}
		tx, err := db.Begin(immortaldb.Serializable)
		if err != nil {
			return fmt.Errorf("begin: %w", err) // Begin does no I/O
		}
		rollback := spec.rollbacks && rng.Intn(7) == 0
		txn := Txn{TID: tx.ID()}
		var werr error
		for j, n := 0, 1+rng.Intn(4); j < n && werr == nil; j++ {
			key := fmt.Sprintf("k%02d", rng.Intn(numKeys))
			if rng.Intn(5) == 0 {
				werr = tx.Delete(tbl, []byte(key))
				txn.Events = append(txn.Events, Event{Key: key, Del: true})
			} else {
				val := fmt.Sprintf("v%03d.%d.%s", i, j, strings.Repeat("x", 20+rng.Intn(80)))
				werr = tx.Set(tbl, []byte(key), []byte(val))
				txn.Events = append(txn.Events, Event{Key: key, Val: val})
			}
		}
		if werr != nil {
			tx.Rollback()
			if !tolerated(werr) {
				return fmt.Errorf("txn %d write: %w", i, werr)
			}
			r.Skipped++
			continue
		}
		if rollback {
			if err := tx.Rollback(); err != nil {
				return fmt.Errorf("txn %d rollback: %w", i, err)
			}
			continue
		}
		if err := tx.Commit(); err != nil {
			// The commit record may have reached the log before the fault.
			w.Pending = &txn
			return fmt.Errorf("txn %d commit: %w", i, err)
		}
		txn.TS = tx.CommitTS()
		w.Acked = append(w.Acked, txn)
	}
	return nil
}

// sequentialSpec is the crash matrices' workload; persistenceSpec keeps the
// machine running on a failing disk.
var (
	sequentialSpec  = serialSpec{ckptEvery: 8, rollbacks: true}
	persistenceSpec = serialSpec{ckptEvery: 6, tolerate: injected}
)

const (
	concWorkers       = 4
	concTxnsPerWorker = 10
	concKeysPerWorker = 6
)

// concurrent drives concWorkers goroutines through the group-commit
// pipeline, each its own Writer on a disjoint "g<W>." key range. Worker 0
// runs one checkpoint (and, when tiered, one CompactHistory) mid-run, so
// page flushing, flush-stamping, PTT hardening and migration to the cold
// tier all race the committers. It returns the first error in worker order.
func concurrent(r *Result, db *immortaldb.DB, tbl *immortaldb.Table) error {
	var wg sync.WaitGroup
	ws := make([]*Writer, concWorkers)
	for i := range ws {
		ws[i] = r.writer(fmt.Sprintf("g%d.", i))
	}
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *Writer) {
			defer wg.Done()
			w.Err = concWorker(r, db, tbl, i, w)
		}(i, w)
	}
	wg.Wait()
	for _, w := range ws {
		if w.Err != nil {
			return w.Err
		}
	}
	return nil
}

func concWorker(r *Result, db *immortaldb.DB, tbl *immortaldb.Table, id int, w *Writer) error {
	rng := rand.New(rand.NewSource(r.Coord.Seed*104729 + int64(id)*7919 + 1))
	for i := 0; i < concTxnsPerWorker; i++ {
		if id == 0 && i == concTxnsPerWorker/2 {
			if err := db.Checkpoint(); err != nil {
				return err
			}
			if r.Scenario.Tiered {
				if err := db.CompactHistory(); err != nil {
					return err
				}
			}
		}
		tx, err := db.Begin(immortaldb.Serializable)
		if err != nil {
			return err
		}
		txn := Txn{TID: tx.ID()}
		for j, n := 0, 1+rng.Intn(3); j < n; j++ {
			key := fmt.Sprintf("%sk%02d", w.Prefix, rng.Intn(concKeysPerWorker))
			if rng.Intn(5) == 0 {
				err = tx.Delete(tbl, []byte(key))
				txn.Events = append(txn.Events, Event{Key: key, Del: true})
			} else {
				val := fmt.Sprintf("w%d.t%d.%d.%s", id, i, j, strings.Repeat("y", 10+rng.Intn(60)))
				err = tx.Set(tbl, []byte(key), []byte(val))
				txn.Events = append(txn.Events, Event{Key: key, Val: val})
			}
			if err != nil {
				tx.Rollback()
				return err
			}
		}
		if rng.Intn(8) == 0 {
			if err := tx.Rollback(); err != nil {
				return err
			}
			continue
		}
		if err := tx.Commit(); err != nil {
			// The commit record may or may not have reached the durable log;
			// recovery may resolve it either way.
			w.Pending = &txn
			return err
		}
		txn.TS = tx.CommitTS()
		w.Acked = append(w.Acked, txn)
	}
	return nil
}
