package fault

import (
	"fmt"
	"sort"
	"strings"

	"immortaldb"
)

// Event is one write inside a transaction.
type Event struct {
	Key, Val string
	Del      bool
}

// Txn is one transaction a writer attempted.
type Txn struct {
	TID    immortaldb.TID
	Events []Event
	// TS is the commit timestamp the engine reported; zero unless acked.
	TS immortaldb.Timestamp
}

// Writer is one sequential stream of transactions over a private key range
// — the unit the model is exact for. A single-threaded workload has one;
// the concurrent workloads have one per goroutine, on disjoint prefixes, so
// each stays exact while the committers share the sequencer, the
// group-commit dispatcher, the tree latches and the timestamp tables.
type Writer struct {
	// Prefix selects the keys this writer owns.
	Prefix string
	// Acked lists the transactions whose Commit returned nil, in program
	// order — which is also commit-timestamp order, since a writer's next
	// commit starts only after its previous one returned. Recovery must
	// preserve every one of them.
	Acked []Txn
	// Pending is the transaction whose Commit returned an error, or nil; at
	// most one, because a writer stops at its first failure. Its commit
	// record may or may not have reached the disk, so recovery may resolve it
	// either way — but all or nothing.
	Pending *Txn
	// Err is the first error this writer observed.
	Err error
}

// Acked returns how many transactions the run saw acknowledged.
func (r *Result) Acked() int {
	n := 0
	for _, w := range r.Writers {
		n += len(w.Acked)
	}
	return n
}

func apply(state map[string]string, evs []Event) {
	for _, e := range evs {
		if e.Del {
			delete(state, e.Key)
		} else {
			state[e.Key] = e.Val
		}
	}
}

func clone(state map[string]string) map[string]string {
	out := make(map[string]string, len(state))
	for k, v := range state {
		out[k] = v
	}
	return out
}

func equal(got, want map[string]string) bool {
	if len(got) != len(want) {
		return false
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			return false
		}
	}
	return true
}

func diff(got, want map[string]string) string {
	keys := make([]string, 0, len(got)+len(want))
	for k := range got {
		keys = append(keys, k)
	}
	for k := range want {
		if _, dup := got[k]; !dup {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		g, gok := got[k]
		w, wok := want[k]
		if gok == wok && g == w {
			continue
		}
		fmt.Fprintf(&b, "  %s: got %q(%v) want %q(%v)\n", k, g, gok, w, wok)
	}
	return b.String()
}

func scan(tx *immortaldb.Tx, tbl *immortaldb.Table) (map[string]string, error) {
	defer tx.Commit()
	state := map[string]string{}
	err := tx.Scan(tbl, nil, nil, func(k, v []byte) bool {
		state[string(k)] = string(v)
		return true
	})
	return state, err
}

func scanAt(db *immortaldb.DB, tbl *immortaldb.Table, at immortaldb.Timestamp) (map[string]string, error) {
	tx, err := db.BeginAsOfTS(at)
	if err != nil {
		return nil, err
	}
	return scan(tx, tbl)
}

// scanCurrent reads the latest committed state. On a replica Begin
// downgrades to a snapshot read at the replication horizon.
func scanCurrent(db *immortaldb.DB, tbl *immortaldb.Table) (map[string]string, error) {
	tx, err := db.Begin(immortaldb.Serializable)
	if err != nil {
		return nil, err
	}
	return scan(tx, tbl)
}

// commit runs one transaction of evs and returns it with its timestamp.
func commit(db *immortaldb.DB, tbl *immortaldb.Table, evs ...Event) (Txn, error) {
	tx, err := db.Begin(immortaldb.Serializable)
	if err != nil {
		return Txn{}, err
	}
	for _, e := range evs {
		if e.Del {
			err = tx.Delete(tbl, []byte(e.Key))
		} else {
			err = tx.Set(tbl, []byte(e.Key), []byte(e.Val))
		}
		if err != nil {
			tx.Rollback()
			return Txn{}, err
		}
	}
	if err := tx.Commit(); err != nil {
		return Txn{}, err
	}
	return Txn{TID: tx.ID(), Events: evs, TS: tx.CommitTS()}, nil
}

// partition splits state by owning writer. A key outside every writer's
// range is a ghost: nothing the model knows of wrote it.
func partition(state map[string]string, ws []*Writer) ([]map[string]string, error) {
	parts := make([]map[string]string, len(ws))
	for i := range parts {
		parts[i] = map[string]string{}
	}
next:
	for k, v := range state {
		for i, w := range ws {
			if strings.HasPrefix(k, w.Prefix) {
				parts[i][k] = v
				continue next
			}
		}
		return nil, fmt.Errorf("ghost key %q=%q belongs to no writer", k, v)
	}
	return parts, nil
}

// check is the oracle every scenario's survivor must pass, twice (after
// recovery and after forward life):
//
//   - the current state, writer by writer, equals the replay of the writer's
//     acked transactions or of acked + pending — the maybe-committed
//     transaction is all or nothing, and once resolved present it is folded
//     into ws so later checks agree;
//   - AS OF every ack's commit timestamp, the writer's partition equals the
//     replay of its acked prefix — a transaction whose commit record missed
//     the (shared) fsync can therefore never have been acked, and no time
//     split, migration or recovery may move an acked version out of reach of
//     its own timestamp. Other writers never perturb the partition (ranges
//     are disjoint) and a writer's own pending transaction is strictly later
//     than all of its acks.
func check(db *immortaldb.DB, tbl *immortaldb.Table, ws []*Writer) error {
	cur, err := scanCurrent(db, tbl)
	if err != nil {
		return fmt.Errorf("current-state scan: %w", err)
	}
	parts, err := partition(cur, ws)
	if err != nil {
		return err
	}
	for i, w := range ws {
		base := map[string]string{}
		for _, txn := range w.Acked {
			apply(base, txn.Events)
		}
		if equal(parts[i], base) {
			continue
		}
		if w.Pending == nil {
			return fmt.Errorf("writer %q state diverges from its %d acked txns:\n%s",
				w.Prefix, len(w.Acked), diff(parts[i], base))
		}
		withPending := clone(base)
		apply(withPending, w.Pending.Events)
		if !equal(parts[i], withPending) {
			return fmt.Errorf("writer %q state matches neither its %d acked txns nor acked+pending\nvs acked:\n%svs acked+pending:\n%s",
				w.Prefix, len(w.Acked), diff(parts[i], base), diff(parts[i], withPending))
		}
		w.Acked = append(w.Acked[:len(w.Acked):len(w.Acked)], Txn{TID: w.Pending.TID, Events: w.Pending.Events})
		w.Pending = nil
	}
	for i, w := range ws {
		state := map[string]string{}
		for j, txn := range w.Acked {
			apply(state, txn.Events)
			if txn.TS.IsZero() {
				continue // the resolved pending transaction: its timestamp was never reported
			}
			got, err := scanAt(db, tbl, txn.TS)
			if err != nil {
				return fmt.Errorf("writer %q AS OF ack %d (ts %v): %w", w.Prefix, j, txn.TS, err)
			}
			parts, err := partition(got, ws)
			if err != nil {
				return fmt.Errorf("writer %q AS OF ack %d (ts %v): %w", w.Prefix, j, txn.TS, err)
			}
			if !equal(parts[i], state) {
				return fmt.Errorf("writer %q acked txn %d (tid %d, ts %v) not reproduced AS OF its own commit timestamp:\n%s",
					w.Prefix, j, txn.TID, txn.TS, diff(parts[i], state))
			}
		}
	}
	return nil
}
