package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"immortaldb/internal/hist"
	"immortaldb/internal/itime"
	"immortaldb/internal/lock"
	"immortaldb/internal/obs"
	"immortaldb/internal/sqlish"
	"immortaldb/internal/wal"
	"immortaldb/internal/wire"
)

// probeOps is how many operations each direct probe times.
const probeOps = 3000

// probes are the direct, outside-in timings of single layers: each calls
// one layer's public functions with the workload's own inputs. They are the
// independent cross-check of the ladder's differences. Times are medians in
// microseconds per operation of the workload (three statements for a read).
type probes struct {
	WireRTTUs          float64 `json:"wire_rtt_us"`
	WireCodecUs        float64 `json:"wire_codec_us"`
	ParseUs            float64 `json:"sqlish_parse_us"`
	WalAppendUs        float64 `json:"wal_append_us"`
	LockAcquireUs      float64 `json:"lock_acquire_us"`
	HistLookupUs       float64 `json:"hist_lookup_us"`
	HistScanUsPerRow   float64 `json:"hist_scan_us_per_row"`
	HistDecodeUsPerK   float64 `json:"hist_decode_us_per_kentry"`
	HistBytesPerVer    float64 `json:"hist_bytes_per_version"`
	HistEntries        int     `json:"hist_entries"`
	RoundTripsPerOp    int     `json:"round_trips_per_op"`
	failures, attempts int
}

// timeEach runs fn n times and returns the median duration in microseconds.
func timeEach(n int, fn func(i int) error) (float64, error) {
	lat := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		lat = append(lat, int64(time.Since(t)))
	}
	return summarise(lat).P50us, nil
}

// expectedResults builds the results the server would send for p, from the
// generator's model: exactly what the oracle accepts.
func (ds *dataset) expectedResults(p *prepared) []*sqlish.Result {
	o := p.o
	if o.kind == opUpdate {
		return []*sqlish.Result{{Affected: 1}}
	}
	sel := &sqlish.Result{Columns: []string{"v"}, Rows: [][]string{{strconv.Itoa(o.val)}}}
	if o.kind == opScan {
		sel = &sqlish.Result{Columns: []string{"k", "v"}}
		for i := 0; i < ds.scanLen; i++ {
			sel.Rows = append(sel.Rows, []string{strconv.Itoa(o.key + i), strconv.Itoa(o.val)})
		}
	}
	return []*sqlish.Result{{Msg: "begin tran as of"}, sel, {Msg: "commit"}}
}

func (e *env) runProbes(w *workload, sc scale, seed int64, scratch string) (*probes, error) {
	ds := e.ds
	pr := &probes{}
	g := newGen(ds, sc, seed, streamProbe, 0, 1, w.kind)
	ops := make([]*prepared, probeOps)
	for i := range ops {
		p, err := e.prepare(g.next(), false)
		if err != nil {
			return nil, err
		}
		ops[i] = p
	}
	pr.RoundTripsPerOp = len(ops[0].sql)
	var err error

	if e.pool != nil {
		ctx := context.Background()
		if pr.WireRTTUs, err = timeEach(probeOps, func(int) error { return e.pool.Ping(ctx) }); err != nil {
			return nil, fmt.Errorf("wire.rtt probe: %w", err)
		}
	}
	if w.wire {
		var buf bytes.Buffer
		pr.WireCodecUs, err = timeEach(probeOps, func(i int) error {
			p := ops[i]
			for j, res := range ds.expectedResults(p) {
				buf.Reset()
				if err := wire.WriteFrame(&buf, wire.MsgExec, []byte(p.sql[j])); err != nil {
					return err
				}
				if _, _, err := wire.ReadFrame(&buf); err != nil {
					return err
				}
				if err := wire.WriteFrame(&buf, wire.MsgResult, res.AppendBinary(nil)); err != nil {
					return err
				}
				_, payload, err := wire.ReadFrame(&buf)
				if err != nil {
					return err
				}
				if _, err := sqlish.DecodeResult(payload); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("wire.codec probe: %w", err)
		}
		pr.ParseUs, err = timeEach(probeOps, func(i int) error {
			for _, s := range ops[i].sql {
				if _, err := sqlish.Parse(s); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("sqlish.parse probe: %w", err)
		}
	}
	if w.kind == opUpdate {
		if pr.WalAppendUs, err = probeWalAppend(ops, e.tbl.Meta().ID, scratch); err != nil {
			return nil, fmt.Errorf("wal.append probe: %w", err)
		}
		locks, table := lock.New(), e.tbl.Meta().ID
		pr.LockAcquireUs, err = timeEach(probeOps, func(i int) error {
			tid := itime.TID(i + 1)
			err := locks.Acquire(tid, lock.Key{Table: table, Key: string(ops[i].key)}, lock.Exclusive)
			locks.ReleaseAll(tid)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("lock.acquire probe: %w", err)
		}
	}
	if e.cold != nil {
		if err := e.probeCold(pr, sc, seed); err != nil {
			return nil, fmt.Errorf("hist probe: %w", err)
		}
	}
	return pr, nil
}

// probeWalAppend appends each update's version record and commit record to
// a standalone log, as Tx.Set and Tx.Commit do, without syncing.
func probeWalAppend(ops []*prepared, table uint32, scratch string) (float64, error) {
	dir, err := os.MkdirTemp(scratch, "walprobe-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(filepath.Join(dir, "wal.log"))
	if err != nil {
		return 0, err
	}
	defer l.Close()
	l.NoSync = true
	return timeEach(len(ops), func(i int) error {
		p, tid := ops[i], itime.TID(i+1)
		lsn, err := l.Append(&wal.Record{Type: wal.TypeInsertVersion, TID: tid, Table: table, Key: p.key, Value: p.row})
		if err != nil {
			return err
		}
		_, err = l.Append(&wal.Record{Type: wal.TypeCommit, TID: tid, PrevLSN: lsn,
			TS: itime.Timestamp{Wall: int64(i), Seq: 1}, HasTT: true})
		return err
	})
}

// probeCold times the second hist.Store directly: point lookups and range
// scans over the seed's (key, round) stream, and a full decode of each run
// file. Every result is checked against the model.
func (e *env) probeCold(pr *probes, sc scale, seed int64) error {
	ds, tid := e.ds, e.tbl.Meta().ID
	r := e.histRung()
	for _, kind := range []opKind{opPoint, opScan} {
		g := newGen(ds, sc, seed, streamProbe, 0, 1, kind)
		n := probeOps
		if kind == opScan {
			n = probeOps / 30
		}
		med, err := timeEach(n, func(int) error {
			p, err := e.prepare(g.next(), false)
			if err != nil {
				return err
			}
			pr.attempts++
			if err := r.run(p); err != nil {
				return err
			}
			if err := p.check(ds); err != nil {
				pr.failures++
			}
			return nil
		})
		if err != nil {
			return err
		}
		if kind == opPoint {
			pr.HistLookupUs = med
		} else {
			pr.HistScanUsPerRow = med / float64(sc.scanLen)
		}
	}
	names, err := filepath.Glob(filepath.Join(ds.dir, fmt.Sprintf("hist.%d.run.*", tid)))
	if err != nil {
		return err
	}
	var decode time.Duration
	var fileBytes int64
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		t := time.Now()
		_, _, _, entries, err := hist.DecodeRun(data)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		decode += time.Since(t)
		pr.HistEntries += len(entries)
		fileBytes += int64(len(data))
	}
	if pr.HistEntries > 0 {
		pr.HistDecodeUsPerK = float64(decode) / 1e3 / float64(pr.HistEntries) * 1000
		pr.HistBytesPerVer = float64(fileBytes) / float64(pr.HistEntries)
	}
	return nil
}

// lockWaitSeconds reads the engine's lock-wait histogram sum.
func lockWaitSeconds() float64 {
	_, sum, _, _ := obs.HistogramSnapshot("immortaldb_lock_wait_seconds")
	return sum
}
