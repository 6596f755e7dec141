// Command immortalsql is an interactive shell (and script runner) for an
// Immortal DB database, speaking the paper's SQL subset:
//
//	CREATE [IMMORTAL] TABLE t (col TYPE [PRIMARY KEY], ...)
//	ALTER TABLE t ENABLE SNAPSHOT
//	BEGIN TRAN [AS OF "2004-08-12 10:15:20"] [ISOLATION SNAPSHOT]
//	INSERT INTO t VALUES (...)
//	UPDATE t SET col = v WHERE pk = x
//	DELETE FROM t WHERE pk = x
//	SELECT * FROM t [WHERE pk < x]
//	SHOW HISTORY FOR t WHERE pk = x
//	VACUUM HISTORY
//	COMMIT / ROLLBACK
//
// Usage:
//
//	immortalsql -db ./mydb [-f script.sql]
//	immortalsql -connect localhost:7707   # drive a running immortald
//	immortalsql -db ./clone -restore-from ./mydb -restore-asof "2004-08-12 10:15:20"
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"immortaldb"
	"immortaldb/internal/client"
	"immortaldb/internal/sqlish"
)

// executor abstracts the REPL's backend: an embedded database directory or a
// remote immortald server.
type executor interface {
	Exec(sql string) (*sqlish.Result, error)
	InTransaction() bool
	Close() error
}

// localExec runs statements on an embedded engine.
type localExec struct {
	db   *immortaldb.DB
	sess *sqlish.Session
}

func (l *localExec) Exec(sql string) (*sqlish.Result, error) { return l.sess.Exec(sql) }
func (l *localExec) InTransaction() bool                     { return l.sess.InTransaction() }
func (l *localExec) Close() error {
	l.sess.Close()
	return l.db.Close()
}

// remoteExec runs statements over the wire on one pinned server session. The
// server owns the transaction state; the REPL mirrors it by watching which
// statements succeed, so the prompt can show an open transaction.
type remoteExec struct {
	pool *client.DB
	sess *client.Session
	inTx bool
}

func (r *remoteExec) Exec(sql string) (*sqlish.Result, error) {
	res, err := r.sess.Exec(context.Background(), sql)
	if err == nil {
		if stmt, perr := sqlish.Parse(sql); perr == nil {
			switch stmt.(type) {
			case sqlish.BeginTran:
				r.inTx = true
			case sqlish.CommitTran, sqlish.RollbackTran:
				r.inTx = false
			}
		}
	}
	return res, err
}
func (r *remoteExec) InTransaction() bool { return r.inTx }
func (r *remoteExec) Close() error {
	r.sess.Close()
	return r.pool.Close()
}

func main() {
	dir := flag.String("db", "immortaldb-data", "database directory")
	connect := flag.String("connect", "", "immortald address (host:port); overrides -db")
	script := flag.String("f", "", "execute statements from a file instead of stdin")
	tiered := flag.Bool("tiered", false, "migrate cold history pages into compressed immutable runs (VACUUM HISTORY needs this)")
	retention := flag.Duration("retention", 0, "vacuum historical versions older than this (0 = keep forever; with -tiered)")
	restoreFrom := flag.String("restore-from", "", "point-in-time restore source; clones into -db before opening it")
	restoreAsOf := flag.String("restore-asof", "", `restore cut time, e.g. "2004-08-12 10:15:20" (with -restore-from)`)
	flag.Parse()

	if *restoreFrom != "" || *restoreAsOf != "" {
		if *restoreFrom == "" || *restoreAsOf == "" {
			fmt.Fprintln(os.Stderr, "immortalsql: -restore-from and -restore-asof must be given together")
			os.Exit(1)
		}
		if *connect != "" {
			fmt.Fprintln(os.Stderr, "immortalsql: restore works on local directories, not -connect")
			os.Exit(1)
		}
		ts, err := immortaldb.ParseAsOf(*restoreAsOf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "immortalsql:", err)
			os.Exit(1)
		}
		if err := immortaldb.RestoreAsOf(*restoreFrom, *dir, ts, nil); err != nil {
			fmt.Fprintln(os.Stderr, "immortalsql:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "immortalsql: restored %s as of %s into %s\n", *restoreFrom, *restoreAsOf, *dir)
	}

	var sess executor
	if *connect != "" {
		pool, err := client.Open(*connect, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "immortalsql:", err)
			os.Exit(1)
		}
		csess, err := pool.Session(context.Background())
		if err != nil {
			fmt.Fprintln(os.Stderr, "immortalsql:", err)
			os.Exit(1)
		}
		sess = &remoteExec{pool: pool, sess: csess}
	} else {
		opts := &immortaldb.Options{}
		if *tiered {
			opts.TieredHistory = true
			opts.Retention = *retention
		}
		db, err := immortaldb.Open(*dir, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "immortalsql:", err)
			os.Exit(1)
		}
		sess = &localExec{db: db, sess: sqlish.NewSession(db)}
	}
	defer sess.Close()

	var in io.Reader = os.Stdin
	interactive := true
	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			fmt.Fprintln(os.Stderr, "immortalsql:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
		interactive = false
	}

	if interactive {
		fmt.Println("Immortal DB SQL shell — transaction-time support inside a database engine")
		fmt.Println(`try: CREATE IMMORTAL TABLE MovingObjects (Oid smallint PRIMARY KEY, LocationX int, LocationY int)`)
	}
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := func() {
		if !interactive {
			return
		}
		if sess.InTransaction() {
			fmt.Print("immortal*> ")
		} else {
			fmt.Print("immortal> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "--") {
			prompt()
			continue
		}
		if interactive && (strings.EqualFold(trimmed, "exit") || strings.EqualFold(trimmed, "quit")) {
			break
		}
		pending.WriteString(line)
		pending.WriteString(" ")
		if !strings.HasSuffix(trimmed, ";") && interactive {
			// Multi-line input until a semicolon in interactive mode.
			fmt.Print("      ...> ")
			continue
		}
		stmtText := strings.TrimSpace(pending.String())
		pending.Reset()
		if stmtText == "" {
			prompt()
			continue
		}
		res, err := sess.Exec(stmtText)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			if !interactive {
				os.Exit(1)
			}
		} else {
			printResult(res)
		}
		prompt()
	}
	if err := scanner.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "immortalsql:", err)
		os.Exit(1)
	}
	if interactive {
		fmt.Println()
	}
}

func printResult(r *sqlish.Result) {
	switch {
	case r.Columns != nil:
		widths := make([]int, len(r.Columns))
		for i, c := range r.Columns {
			widths[i] = len(c)
		}
		for _, row := range r.Rows {
			for i, v := range row {
				if len(v) > widths[i] {
					widths[i] = len(v)
				}
			}
		}
		for i, c := range r.Columns {
			fmt.Printf("%-*s  ", widths[i], c)
		}
		fmt.Println()
		for i := range r.Columns {
			fmt.Print(strings.Repeat("-", widths[i]), "  ")
		}
		fmt.Println()
		for _, row := range r.Rows {
			for i, v := range row {
				fmt.Printf("%-*s  ", widths[i], v)
			}
			fmt.Println()
		}
		fmt.Printf("(%d rows)\n", len(r.Rows))
	case r.Msg != "":
		fmt.Println(r.Msg)
	default:
		fmt.Printf("(%d rows affected)\n", r.Affected)
	}
}
