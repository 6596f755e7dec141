package sqlish

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"immortaldb"
	"immortaldb/internal/catalog"
)

// Result is the outcome of executing one statement.
type Result struct {
	// Columns and Rows hold a result set (SELECT, SHOW HISTORY).
	Columns []string
	Rows    [][]string
	// Affected counts modified rows (INSERT/UPDATE/DELETE).
	Affected int
	// Msg is a human-readable confirmation for DDL and transaction control.
	Msg string
}

// Session executes statements against a database, managing an optional
// explicit transaction (BEGIN TRAN ... COMMIT). Statements outside an
// explicit transaction auto-commit. Sessions are not safe for concurrent
// use.
type Session struct {
	db *immortaldb.DB
	tx *immortaldb.Tx
}

// NewSession returns a session over db.
func NewSession(db *immortaldb.DB) *Session { return &Session{db: db} }

// InTransaction reports whether an explicit transaction is open.
func (s *Session) InTransaction() bool { return s.tx != nil }

// Close rolls back any open transaction.
func (s *Session) Close() error {
	if s.tx != nil {
		err := s.tx.Rollback()
		s.tx = nil
		return err
	}
	return nil
}

// Exec parses and executes one statement.
func (s *Session) Exec(sql string) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.ExecStmt(stmt)
}

// ExecStmt executes a parsed statement.
func (s *Session) ExecStmt(stmt Stmt) (*Result, error) {
	switch st := stmt.(type) {
	case CreateTable:
		return s.execCreate(st)
	case AlterEnableSnapshot:
		return s.execAlter(st)
	case BeginTran:
		return s.execBegin(st)
	case CommitTran:
		return s.execCommit()
	case RollbackTran:
		return s.execRollback()
	case Insert:
		return s.execInsert(st)
	case Update:
		return s.execUpdate(st)
	case Delete:
		return s.execDelete(st)
	case Select:
		return s.execSelect(st)
	case ShowHistory:
		return s.execHistory(st)
	case VacuumHistory:
		return s.execVacuum()
	default:
		return nil, fmt.Errorf("sql: unhandled statement %T", stmt)
	}
}

func (s *Session) execCreate(st CreateTable) (*Result, error) {
	if s.tx != nil {
		return nil, errors.New("sql: DDL inside a transaction is not supported")
	}
	_, err := s.db.CreateTable(st.Name, immortaldb.TableOptions{
		Immortal: st.Immortal,
		Columns:  st.Columns,
	})
	if err != nil {
		return nil, err
	}
	kind := "TABLE"
	if st.Immortal {
		kind = "IMMORTAL TABLE"
	}
	return &Result{Msg: fmt.Sprintf("created %s %s", kind, st.Name)}, nil
}

func (s *Session) execAlter(st AlterEnableSnapshot) (*Result, error) {
	if s.tx != nil {
		return nil, errors.New("sql: DDL inside a transaction is not supported")
	}
	if err := s.db.EnableSnapshot(st.Name); err != nil {
		return nil, err
	}
	return &Result{Msg: fmt.Sprintf("snapshot versioning enabled on %s", st.Name)}, nil
}

func (s *Session) execBegin(st BeginTran) (*Result, error) {
	if s.tx != nil {
		return nil, errors.New("sql: transaction already open")
	}
	var err error
	switch {
	case st.AsOf != "":
		s.tx, err = s.db.BeginAsOfString(st.AsOf)
	case st.Snapshot:
		s.tx, err = s.db.Begin(immortaldb.SnapshotIsolation)
	default:
		s.tx, err = s.db.Begin(immortaldb.Serializable)
	}
	if err != nil {
		return nil, err
	}
	return BeginResult(st), nil
}

// BeginResult is the Result a successful BEGIN TRAN returns. The wire client
// answers a BEGIN locally before the server has run it, so both build the
// answer here and it cannot drift.
func BeginResult(st BeginTran) *Result {
	if st.AsOf != "" {
		return &Result{Msg: "begin tran as of " + strconv.Quote(st.AsOf)}
	}
	return &Result{Msg: "begin tran"}
}

func (s *Session) execCommit() (*Result, error) {
	if s.tx == nil {
		return nil, errors.New("sql: no open transaction")
	}
	err := s.tx.Commit()
	s.tx = nil
	if err != nil {
		return nil, err
	}
	return &Result{Msg: "commit"}, nil
}

func (s *Session) execRollback() (*Result, error) {
	if s.tx == nil {
		return nil, errors.New("sql: no open transaction")
	}
	err := s.tx.Rollback()
	s.tx = nil
	if err != nil {
		return nil, err
	}
	return &Result{Msg: "rollback"}, nil
}

// run executes fn in the session transaction, or an auto-commit one.
func (s *Session) run(fn func(tx *immortaldb.Tx) error) error {
	if s.tx != nil {
		return fn(s.tx)
	}
	tx, err := s.db.Begin(immortaldb.Serializable)
	if err != nil {
		return err
	}
	if err := fn(tx); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// table resolves a table and its schema.
func (s *Session) table(name string) (*immortaldb.Table, *catalog.Table, error) {
	tbl, err := s.db.Table(name)
	if err != nil {
		return nil, nil, err
	}
	meta := tbl.Meta()
	if len(meta.Columns) == 0 {
		return nil, nil, fmt.Errorf("sql: table %s has no SQL schema", name)
	}
	return tbl, meta, nil
}

func colIndex(meta *catalog.Table, name string) (int, error) {
	for i, c := range meta.Columns {
		if strings.EqualFold(c.Name, name) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("sql: no column %s in %s", name, meta.Name)
}

func pkIndex(meta *catalog.Table) int {
	for i, c := range meta.Columns {
		if c.PrimaryKey {
			return i
		}
	}
	return 0
}

func (s *Session) execInsert(st Insert) (*Result, error) {
	tbl, meta, err := s.table(st.Table)
	if err != nil {
		return nil, err
	}
	if len(st.Values) != len(meta.Columns) {
		return nil, fmt.Errorf("sql: %d values for %d columns", len(st.Values), len(meta.Columns))
	}
	vals := make([]Value, len(st.Values))
	for i, lit := range st.Values {
		if vals[i], err = ParseValue(meta.Columns[i], lit); err != nil {
			return nil, err
		}
	}
	pki := pkIndex(meta)
	key := EncodeKey(meta.Columns[pki], vals[pki])
	row, err := EncodeRow(meta.Columns, vals)
	if err != nil {
		return nil, err
	}
	err = s.run(func(tx *immortaldb.Tx) error {
		if _, exists, err := tx.Get(tbl, key); err != nil {
			return err
		} else if exists {
			return fmt.Errorf("sql: duplicate primary key in %s", meta.Name)
		}
		return tx.Set(tbl, key, row)
	})
	if err != nil {
		return nil, err
	}
	return &Result{Affected: 1}, nil
}

// matchRows finds the rows satisfying cond, returning decoded values.
type matchedRow struct {
	key  []byte
	vals []Value
}

func (s *Session) matchRows(tx *immortaldb.Tx, tbl *immortaldb.Table, meta *catalog.Table, cond *Cond) ([]matchedRow, error) {
	var out []matchedRow
	collect := func(key, val []byte) error {
		vals, err := DecodeRow(meta.Columns, val)
		if err != nil {
			return err
		}
		out = append(out, matchedRow{key: key, vals: vals})
		return nil
	}
	if cond == nil {
		var scanErr error
		err := tx.Scan(tbl, nil, nil, func(k, v []byte) bool {
			if scanErr = collect(append([]byte(nil), k...), v); scanErr != nil {
				return false
			}
			return true
		})
		if err == nil {
			err = scanErr
		}
		return out, err
	}
	ci, err := colIndex(meta, cond.Column)
	if err != nil {
		return nil, err
	}
	cv, err := ParseValue(meta.Columns[ci], cond.Value)
	if err != nil {
		return nil, err
	}
	pki := pkIndex(meta)
	if ci == pki {
		// Primary key predicate: use the index.
		enc := cv.encodeOrdered()
		switch cond.Op {
		case "=":
			v, ok, err := tx.Get(tbl, enc)
			if err != nil || !ok {
				return out, err
			}
			return out, collect(enc, v)
		case "<":
			err = scanAll(tx, tbl, nil, enc, collect)
		case "<=":
			err = scanAll(tx, tbl, nil, append(enc, 0), collect)
		case ">=":
			err = scanAll(tx, tbl, enc, nil, collect)
		case ">":
			err = scanAll(tx, tbl, append(enc, 0), nil, collect)
		}
		return out, err
	}
	// Non-key predicate: full scan with a filter.
	var scanErr error
	err = tx.Scan(tbl, nil, nil, func(k, v []byte) bool {
		vals, derr := DecodeRow(meta.Columns, v)
		if derr != nil {
			scanErr = derr
			return false
		}
		if compareValues(vals[ci], cv, cond.Op) {
			out = append(out, matchedRow{key: append([]byte(nil), k...), vals: vals})
		}
		return true
	})
	if err == nil {
		err = scanErr
	}
	return out, err
}

func scanAll(tx *immortaldb.Tx, tbl *immortaldb.Table, lo, hi []byte, collect func(k, v []byte) error) error {
	var scanErr error
	err := tx.Scan(tbl, lo, hi, func(k, v []byte) bool {
		if scanErr = collect(append([]byte(nil), k...), v); scanErr != nil {
			return false
		}
		return true
	})
	if err == nil {
		err = scanErr
	}
	return err
}

func compareValues(a, b Value, op string) bool {
	var cmp int
	if a.Type == catalog.TypeVarChar {
		cmp = strings.Compare(a.Str, b.Str)
	} else {
		switch {
		case a.Int < b.Int:
			cmp = -1
		case a.Int > b.Int:
			cmp = 1
		}
	}
	switch op {
	case "=":
		return cmp == 0
	case "<":
		return cmp < 0
	case ">":
		return cmp > 0
	case "<=":
		return cmp <= 0
	case ">=":
		return cmp >= 0
	default:
		return false
	}
}

func (s *Session) execUpdate(st Update) (*Result, error) {
	tbl, meta, err := s.table(st.Table)
	if err != nil {
		return nil, err
	}
	pki := pkIndex(meta)
	n := 0
	err = s.run(func(tx *immortaldb.Tx) error {
		rows, err := s.matchRows(tx, tbl, meta, st.Where)
		if err != nil {
			return err
		}
		for _, r := range rows {
			for _, a := range st.Sets {
				ci, err := colIndex(meta, a.Column)
				if err != nil {
					return err
				}
				if ci == pki {
					return fmt.Errorf("sql: cannot update the primary key")
				}
				v, err := ParseValue(meta.Columns[ci], a.Value)
				if err != nil {
					return err
				}
				r.vals[ci] = v
			}
			row, err := EncodeRow(meta.Columns, r.vals)
			if err != nil {
				return err
			}
			if err := tx.Set(tbl, r.key, row); err != nil {
				return err
			}
			n++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Affected: n}, nil
}

func (s *Session) execDelete(st Delete) (*Result, error) {
	tbl, meta, err := s.table(st.Table)
	if err != nil {
		return nil, err
	}
	n := 0
	err = s.run(func(tx *immortaldb.Tx) error {
		rows, err := s.matchRows(tx, tbl, meta, st.Where)
		if err != nil {
			return err
		}
		for _, r := range rows {
			if err := tx.Delete(tbl, r.key); err != nil {
				return err
			}
			n++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Affected: n}, nil
}

func (s *Session) execSelect(st Select) (*Result, error) {
	tbl, meta, err := s.table(st.Table)
	if err != nil {
		return nil, err
	}
	// Project.
	proj := make([]int, 0, len(meta.Columns))
	var names []string
	if st.Columns == nil {
		for i, c := range meta.Columns {
			proj = append(proj, i)
			names = append(names, c.Name)
		}
	} else {
		for _, cn := range st.Columns {
			ci, err := colIndex(meta, cn)
			if err != nil {
				return nil, err
			}
			proj = append(proj, ci)
			names = append(names, meta.Columns[ci].Name)
		}
	}
	res := &Result{Columns: names}
	err = s.run(func(tx *immortaldb.Tx) error {
		rows, err := s.matchRows(tx, tbl, meta, st.Where)
		if err != nil {
			return err
		}
		for _, r := range rows {
			out := make([]string, len(proj))
			for i, ci := range proj {
				out[i] = r.vals[ci].String()
			}
			res.Rows = append(res.Rows, out)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (s *Session) execHistory(st ShowHistory) (*Result, error) {
	tbl, meta, err := s.table(st.Table)
	if err != nil {
		return nil, err
	}
	ci, err := colIndex(meta, st.Where.Column)
	if err != nil {
		return nil, err
	}
	if ci != pkIndex(meta) {
		return nil, fmt.Errorf("sql: SHOW HISTORY requires the primary key column")
	}
	cv, err := ParseValue(meta.Columns[ci], st.Where.Value)
	if err != nil {
		return nil, err
	}
	hist, err := s.db.History(tbl, cv.encodeOrdered())
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: append([]string{"_time", "_op"}, columnNames(meta)...)}
	for _, h := range hist {
		row := make([]string, 2, 2+len(meta.Columns))
		switch {
		case h.Pending:
			row[0] = fmt.Sprintf("(pending txn %d)", h.TID)
		default:
			row[0] = h.TS.String()
		}
		if h.Deleted {
			row[1] = "DELETE"
			for range meta.Columns {
				row = append(row, "")
			}
		} else {
			row[1] = "SET"
			vals, err := DecodeRow(meta.Columns, h.Value)
			if err != nil {
				return nil, err
			}
			for _, v := range vals {
				row = append(row, v.String())
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// execVacuum runs one synchronous cold-tier vacuum pass and reports the
// reclamation as a one-row result set. Rejected inside an explicit
// transaction: the pass commits its own WAL records and cannot roll back
// with the session's work.
func (s *Session) execVacuum() (*Result, error) {
	if s.tx != nil {
		return nil, errors.New("sql: VACUUM HISTORY inside a transaction is not supported")
	}
	st, err := s.db.VacuumHistory()
	if err != nil {
		return nil, err
	}
	return &Result{
		Columns: []string{"versions_reclaimed", "bytes_reclaimed", "pages_migrated", "runs_merged"},
		Rows: [][]string{{
			strconv.FormatUint(st.VersionsReclaimed, 10),
			strconv.FormatUint(st.BytesReclaimed, 10),
			strconv.FormatUint(st.PagesMigrated, 10),
			strconv.FormatUint(st.RunsMerged, 10),
		}},
	}, nil
}

func columnNames(meta *catalog.Table) []string {
	out := make([]string, len(meta.Columns))
	for i, c := range meta.Columns {
		out[i] = c.Name
	}
	return out
}
