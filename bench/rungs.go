package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"immortaldb"
	"immortaldb/internal/client"
	"immortaldb/internal/hist"
	"immortaldb/internal/itime"
	"immortaldb/internal/server"
	"immortaldb/internal/sqlish"
	"immortaldb/internal/storage/vfs"
)

// env is one opened database with everything the callers reach it through.
type env struct {
	ds   *dataset
	db   *immortaldb.DB
	tbl  *immortaldb.Table
	srv  *server.Server
	pool *client.DB
	cold *hist.Store // a second store on the set-up's run files, traced pass only
	tr   *tracer
	// acked counts the updates acknowledged since the database was opened;
	// the engine's own commit count must agree with it.
	acked int
}

// openEnv opens ds's database with opts and, for wire workloads, starts the
// in-process server on a loopback socket with the default server.Config and
// a client pool of conns connections. Spans go to tr.
func openEnv(ds *dataset, opts *immortaldb.Options, wire bool, conns int, tr *tracer) (*env, error) {
	db, err := immortaldb.Open(ds.dir, opts)
	if err != nil {
		return nil, err
	}
	e := &env{ds: ds, db: db, tr: tr}
	if e.tbl, err = db.Table("bench"); err != nil {
		e.close()
		return nil, err
	}
	if !wire {
		return e, nil
	}
	e.srv = server.New(db, server.Config{})
	addr, err := e.srv.Listen("127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	go e.srv.Serve() // returns when close shuts the server down
	if e.pool, err = client.Open(addr.String(), &client.Options{MaxConns: conns}); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// openCold opens a second hist.Store on the database's run files, so the
// traced pass can call the cold tier below the engine.
func (e *env) openCold() error {
	e.cold = hist.NewStore(vfs.OS(), e.ds.dir)
	return e.cold.LoadTable(e.tbl.Meta().ID)
}

func (e *env) close() error {
	if e.cold != nil {
		e.cold.Close()
	}
	if e.pool != nil {
		e.pool.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	return e.db.Close()
}

// prepared is one operation made ready to send: the generator's share of
// the work, done before the clock starts. run fills the out fields; check
// compares them with the model after the clock has stopped.
type prepared struct {
	o     op
	sql   []string
	stmts []sqlish.Stmt // only for the pre-parsed rung
	key   []byte
	row   []byte // update: the row to write
	lo    []byte // scan bounds; nil is open
	hi    []byte
	ts    itime.Timestamp

	res     []*sqlish.Result // SQL rungs
	rawRows [][]byte         // raw rungs: rows read, in order
	found   bool             // raw point read: a version was found
}

func (e *env) prepare(o op, parse bool) (*prepared, error) {
	ds := e.ds
	p := &prepared{o: o, sql: ds.statements(o), key: ds.key(o.key)}
	switch o.kind {
	case opUpdate:
		p.row = ds.row(o.key, o.val)
	case opPoint:
		p.ts = ds.roundTS[o.round]
	case opScan:
		p.ts = ds.roundTS[o.round]
		if o.key > 0 {
			p.lo = p.key
		} else {
			p.hi = ds.key(o.key + ds.scanLen)
		}
	}
	if parse {
		for _, s := range p.sql {
			st, err := sqlish.Parse(s)
			if err != nil {
				return nil, err
			}
			p.stmts = append(p.stmts, st)
		}
	}
	return p, nil
}

// check is the correctness oracle for one finished operation: what came
// back must be exactly what the generator's model holds.
func (p *prepared) check(ds *dataset) error {
	o := p.o
	if p.res != nil {
		switch o.kind {
		case opUpdate:
			if p.res[0].Affected != 1 {
				return fmt.Errorf("update k=%d: %d rows affected, want 1", o.key, p.res[0].Affected)
			}
		case opPoint:
			rows := p.res[1].Rows
			if len(rows) != 1 || len(rows[0]) != 1 || rows[0][0] != strconv.Itoa(o.val) {
				return fmt.Errorf("read k=%d as of round %d: got %v, want [[%d]]", o.key, o.round, rows, o.val)
			}
		case opScan:
			rows := p.res[1].Rows
			if len(rows) != ds.scanLen {
				return fmt.Errorf("scan from k=%d as of round %d: %d rows, want %d", o.key, o.round, len(rows), ds.scanLen)
			}
			want := strconv.Itoa(o.val)
			for i, r := range rows {
				if len(r) != 2 || r[0] != strconv.Itoa(o.key+i) || r[1] != want {
					return fmt.Errorf("scan from k=%d as of round %d: row %d is %v, want [%d %s]", o.key, o.round, i, r, o.key+i, want)
				}
			}
		}
		return nil
	}
	switch o.kind {
	case opPoint:
		if !p.found {
			return fmt.Errorf("read k=%d as of round %d: no version found", o.key, o.round)
		}
		fallthrough
	case opScan:
		want := 1
		if o.kind == opScan {
			want = ds.scanLen
		}
		if len(p.rawRows) != want {
			return fmt.Errorf("read from k=%d as of round %d: %d rows, want %d", o.key, o.round, len(p.rawRows), want)
		}
		for i, row := range p.rawRows {
			k, v, err := ds.rowValue(row)
			if err != nil {
				return err
			}
			if k != int64(o.key+i) || v != int64(o.val) {
				return fmt.Errorf("read from k=%d as of round %d: row %d is (%d, %d), want (%d, %d)", o.key, o.round, i, k, v, o.key+i, o.val)
			}
		}
	}
	return nil
}

// A rung is one public entry point an operation stream can be replayed at.
// run performs p through it, under child spans when the tracer is on, and
// leaves the outputs in p. A rung belongs to one caller.
type rung struct {
	name  string // also the root span's name; child spans are "name: call"
	layer string // whose self time is this rung minus the rung below it
	root  int
	parse bool // operations must arrive pre-parsed
	run   func(p *prepared) error
	close func()
}

var verbs = []string{"UPDATE", "BEGIN", "SELECT", "COMMIT"}

func verbOf(o op, i int) int {
	if o.kind == opUpdate {
		return 0
	}
	return i + 1
}

// sqlRung replays statements through exec, one child span per statement.
func (e *env) sqlRung(name, layer string, exec func(sql string) (*sqlish.Result, error), closeFn func()) *rung {
	tr := e.tr
	var spans [4]int
	for i, v := range verbs {
		spans[i] = tr.name(name + ": " + v)
	}
	return &rung{name: name, layer: layer, root: tr.name(name), close: closeFn,
		run: func(p *prepared) error {
			for i, s := range p.sql {
				sp := tr.begin(spans[verbOf(p.o, i)])
				res, err := exec(s)
				tr.end(sp)
				if err != nil {
					return err
				}
				p.res = append(p.res, res)
			}
			return nil
		}}
}

const (
	rungClient = "client.Session.Exec"
	rungSQL    = "sqlish.Session.Exec"
	rungStmt   = "sqlish.Session.ExecStmt"
	rungTx     = "raw Tx"
	rungTxSync = "raw Tx (durable)"
	rungTxNo   = "raw Tx (NoSync)"
	rungHist   = "hist.Store"
)

func (e *env) clientRung() (*rung, error) {
	ctx := context.Background()
	s, err := e.pool.Session(ctx)
	if err != nil {
		return nil, err
	}
	return e.sqlRung(rungClient, "client+wire+server",
		func(sql string) (*sqlish.Result, error) { return s.Exec(ctx, sql) },
		func() { s.Close() }), nil
}

func (e *env) sessionRung() *rung {
	s := sqlish.NewSession(e.db)
	return e.sqlRung(rungSQL, "sqlish.parse", s.Exec, func() { s.Close() })
}

func (e *env) stmtRung() *rung {
	tr := e.tr
	s := sqlish.NewSession(e.db)
	var spans [4]int
	for i, v := range verbs {
		spans[i] = tr.name(rungStmt + ": " + v)
	}
	return &rung{name: rungStmt, layer: "sqlish.exec", root: tr.name(rungStmt), parse: true,
		close: func() { s.Close() },
		run: func(p *prepared) error {
			for i, st := range p.stmts {
				sp := tr.begin(spans[verbOf(p.o, i)])
				res, err := s.ExecStmt(st)
				tr.end(sp)
				if err != nil {
					return err
				}
				p.res = append(p.res, res)
			}
			return nil
		}}
}

// txRung calls the engine directly: Begin/Set/Commit for an update,
// BeginAsOfTS/Get-or-Scan/Commit for a read.
func (e *env) txRung(name, layer string) *rung {
	tr, db, tbl := e.tr, e.db, e.tbl
	spBegin, spSet, spCommit := tr.name(name+": DB.Begin"), tr.name(name+": Tx.Set"), tr.name(name+": Tx.Commit")
	spAsOf, spGet, spScan := tr.name(name+": DB.BeginAsOfTS"), tr.name(name+": Tx.Get"), tr.name(name+": Tx.Scan")
	return &rung{name: name, layer: layer, root: tr.name(name), close: func() {},
		run: func(p *prepared) error {
			if p.o.kind == opUpdate {
				sp := tr.begin(spBegin)
				tx, err := db.Begin(immortaldb.Serializable)
				tr.end(sp)
				if err != nil {
					return err
				}
				sp = tr.begin(spSet)
				err = tx.Set(tbl, p.key, p.row)
				tr.end(sp)
				if err != nil {
					return errors.Join(err, tx.Rollback())
				}
				sp = tr.begin(spCommit)
				err = tx.Commit()
				tr.end(sp)
				return err
			}
			sp := tr.begin(spAsOf)
			tx, err := db.BeginAsOfTS(p.ts)
			tr.end(sp)
			if err != nil {
				return err
			}
			if p.o.kind == opPoint {
				sp = tr.begin(spGet)
				var v []byte
				v, p.found, err = tx.Get(tbl, p.key)
				tr.end(sp)
				if p.found {
					p.rawRows = append(p.rawRows, v)
				}
			} else {
				sp = tr.begin(spScan)
				err = tx.Scan(tbl, p.lo, p.hi, func(_, v []byte) bool {
					p.rawRows = append(p.rawRows, append([]byte(nil), v...))
					return true
				})
				tr.end(sp)
			}
			if err != nil {
				return errors.Join(err, tx.Rollback())
			}
			sp = tr.begin(spCommit)
			err = tx.Commit()
			tr.end(sp)
			return err
		}}
}

// histRung calls the cold tier below the engine, on the second store.
func (e *env) histRung() *rung {
	tr, cold, tid := e.tr, e.cold, e.tbl.Meta().ID
	spLookup, spScan := tr.name(rungHist+": Lookup"), tr.name(rungHist+": ScanAsOf")
	return &rung{name: rungHist, layer: "hist", root: tr.name(rungHist), close: func() {},
		run: func(p *prepared) error {
			if p.o.kind == opPoint {
				sp := tr.begin(spLookup)
				v, ok, err := cold.Lookup(tid, p.key, p.ts)
				tr.end(sp)
				if ok && !v.Stub {
					p.found = true
					p.rawRows = append(p.rawRows, v.Value)
				}
				return err
			}
			sp := tr.begin(spScan)
			err := cold.ScanAsOf(tid, p.lo, p.hi, p.ts, func(_ []byte, v hist.Version) bool {
				if !v.Stub {
					p.rawRows = append(p.rawRows, v.Value)
				}
				return true
			})
			tr.end(sp)
			return err
		}}
}
