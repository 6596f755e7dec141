package repro

import (
	"math"
	"sync"
	"time"

	"immortaldb"
	"immortaldb/internal/workload"
)

// ---------------------------------------------------- A1: eager vs lazy

// EagerRow compares the two timestamping strategies of Section 2.2.
type EagerRow struct {
	Mode        string // "lazy" or "eager"
	Seconds     float64
	LogBytes    int64
	LogRecords  uint64 // approximated by stamps+commits via Stats
	PTTEntries  uint64
	PerTxnMicro float64
}

// RunEagerVsLazy measures the Figure-5 workload under lazy (the paper's
// choice) and eager timestamping. Eager delays commit by revisiting records
// and logs every stamp; lazy pays one PTT update per transaction instead.
func RunEagerVsLazy(o Options) ([]EagerRow, error) {
	o = o.withDefaults()
	total := o.scaled(16000)
	inserts := o.scaled(500)
	ops, err := workload.New(workload.Config{Seed: o.Seed}).Stream(inserts, total)
	if err != nil {
		return nil, err
	}
	var out []EagerRow
	for _, eager := range []bool{false, true} {
		e, err := NewEnv(o, true, func(op *immortaldb.Options) {
			op.Ablation.EagerTimestamping = eager
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for _, op := range ops {
			if err := ApplyOp(e, op); err != nil {
				e.Close()
				return nil, err
			}
		}
		sec := time.Since(start).Seconds()
		st := e.DB.Stats()
		mode := "lazy"
		if eager {
			mode = "eager"
		}
		out = append(out, EagerRow{
			Mode:        mode,
			Seconds:     sec,
			LogBytes:    st.LogBytes,
			PTTEntries:  st.PTTEntries,
			PerTxnMicro: sec / float64(total) * 1e6,
		})
		e.Close()
	}
	return out, nil
}

// ----------------------------------------------- A2: chain vs TSB index

// IndexRow compares historical access paths at one history depth.
type IndexRow struct {
	Mode        string // "chain" or "tsb"
	PctHistory  int
	ScanMillis  float64
	PointMicros float64
	ChainHops   uint64
}

// RunChainVsTSB measures AS OF access via the paper's prototype page-chain
// traversal against the TSB-tree index — the paper's own prediction: "we
// expect the performance of as of queries, independent of the time
// requested, to equal current time queries once we implement the TSB-tree"
// (Section 5.2).
func RunChainVsTSB(o Options, pcts []int) ([]IndexRow, error) {
	o = o.withDefaults()
	if len(pcts) == 0 {
		pcts = []int{0, 25, 50, 75, 100}
	}
	total := o.scaled(36000)
	inserts := o.scaled(500)
	ops, err := workload.New(workload.Config{Seed: o.Seed}).Stream(inserts, total)
	if err != nil {
		return nil, err
	}
	var out []IndexRow
	for _, mode := range []immortaldb.IndexMode{immortaldb.IndexChain, immortaldb.IndexTSB} {
		e, err := NewEnv(o, true, func(op *immortaldb.Options) {
			op.Ablation.HistoricalIndex = mode
		})
		if err != nil {
			return nil, err
		}
		times, err := ApplyStream(e, ops)
		if err != nil {
			e.Close()
			return nil, err
		}
		if err := e.DB.Checkpoint(); err != nil {
			e.Close()
			return nil, err
		}
		name := "chain"
		if mode == immortaldb.IndexTSB {
			name = "tsb"
		}
		for _, pct := range pcts {
			at := asOfPoint(times, pct)
			hopsBefore := e.DB.TreeStats(e.Table).ChainHops

			start := time.Now()
			tx, err := e.DB.BeginAsOfTS(at)
			if err != nil {
				e.Close()
				return nil, err
			}
			if err := tx.Scan(e.Table, nil, nil, func(k, v []byte) bool { return true }); err != nil {
				e.Close()
				return nil, err
			}
			tx.Commit()
			scanMs := float64(time.Since(start).Microseconds()) / 1000

			// Point reads: a spread of keys.
			const pointReps = 200
			start = time.Now()
			for r := 0; r < pointReps; r++ {
				tx, err := e.DB.BeginAsOfTS(at)
				if err != nil {
					e.Close()
					return nil, err
				}
				key := workload.Key(uint16(r * inserts / pointReps))
				if _, _, err := tx.Get(e.Table, key); err != nil {
					e.Close()
					return nil, err
				}
				tx.Commit()
			}
			pointUs := float64(time.Since(start).Microseconds()) / pointReps

			out = append(out, IndexRow{
				Mode:        name,
				PctHistory:  pct,
				ScanMillis:  scanMs,
				PointMicros: pointUs,
				ChainHops:   e.DB.TreeStats(e.Table).ChainHops - hopsBefore,
			})
		}
		e.Close()
	}
	return out, nil
}

// ------------------------------------------------------- A3: PTT GC

// GCRow tracks timestamp-table size with garbage collection on or off.
type GCRow struct {
	GC         bool
	Txns       int
	PTTEntries uint64
	VTTEntries int
}

// RunPTTGC measures Persistent Timestamp Table growth. With incremental GC
// (the paper's contribution over Postgres' ungarbage-collected table), the
// PTT stays near the working set; without it, one entry per transaction
// accumulates forever.
func RunPTTGC(o Options) ([]GCRow, error) {
	o = o.withDefaults()
	total := o.scaled(16000)
	inserts := o.scaled(500)
	ops, err := workload.New(workload.Config{Seed: o.Seed}).Stream(inserts, total)
	if err != nil {
		return nil, err
	}
	checkEvery := total / 4
	var out []GCRow
	for _, gc := range []bool{true, false} {
		e, err := NewEnv(o, true, func(op *immortaldb.Options) {
			op.Ablation.DisablePTTGC = !gc
		})
		if err != nil {
			return nil, err
		}
		for i, op := range ops {
			if err := ApplyOp(e, op); err != nil {
				e.Close()
				return nil, err
			}
			if (i+1)%checkEvery == 0 {
				// Two checkpoints: the first flushes stamped pages, the
				// second's watermark lets GC collect them.
				if err := e.DB.Checkpoint(); err != nil {
					e.Close()
					return nil, err
				}
				if err := e.DB.Checkpoint(); err != nil {
					e.Close()
					return nil, err
				}
				out = append(out, GCRow{GC: gc, Txns: i + 1, PTTEntries: e.DB.Stats().PTTEntries})
			}
		}
		e.Close()
	}
	return out, nil
}

// --------------------------------------------- A4: key-split threshold T

// ThresholdRow measures current-timeslice storage utilization for one
// threshold setting.
type ThresholdRow struct {
	T            float64
	SliceUtil    float64
	Predicted    float64 // T * ln 2 (Section 3.3)
	CurrentPages int
	HistPages    int
}

// RunThreshold sweeps the utilization threshold T that decides when a time
// split is followed by a key split, and measures the resulting
// single-timeslice utilization of current pages against the paper's T·ln 2
// estimate.
func RunThreshold(o Options, ts []float64) ([]ThresholdRow, error) {
	o = o.withDefaults()
	if len(ts) == 0 {
		ts = []float64{0.5, 0.6, 0.7, 0.8, 0.9}
	}
	total := o.scaled(24000)
	inserts := o.scaled(4000)
	ops, err := workload.New(workload.Config{Seed: o.Seed}).Stream(inserts, total)
	if err != nil {
		return nil, err
	}
	var out []ThresholdRow
	for _, t := range ts {
		t := t
		e, err := NewEnv(o, true, func(op *immortaldb.Options) {
			op.Ablation.Threshold = t
		})
		if err != nil {
			return nil, err
		}
		for _, op := range ops {
			if err := ApplyOp(e, op); err != nil {
				e.Close()
				return nil, err
			}
		}
		u, err := e.DB.TableUtilization(e.Table)
		if err != nil {
			e.Close()
			return nil, err
		}
		out = append(out, ThresholdRow{
			T:            t,
			SliceUtil:    u.CurrentSliceUtilization(),
			Predicted:    t * math.Ln2,
			CurrentPages: u.CurrentPages,
			HistPages:    u.HistPages,
		})
		e.Close()
	}
	return out, nil
}

// ------------------------------------------------ S1: snapshot isolation

// SnapshotRow compares reader throughput under a concurrent update stream.
type SnapshotRow struct {
	ReaderMode string // "snapshot" or "serializable"
	ReadsDone  int
	Seconds    float64
	ReadsPerMs float64
}

// RunSnapshotBench runs a writer stream while a reader repeatedly point-
// reads hot keys, once under snapshot isolation (never blocking) and once
// serializable (S locks contending with the writer's X locks) — the paper's
// motivation for supporting snapshot isolation from the version store.
func RunSnapshotBench(o Options) ([]SnapshotRow, error) {
	o = o.withDefaults()
	writerTxns := o.scaled(4000)
	var out []SnapshotRow
	for _, snap := range []bool{true, false} {
		e, err := NewEnv(o, true, func(op *immortaldb.Options) {
			op.LockTimeout = 10 * time.Second
		})
		if err != nil {
			return nil, err
		}
		// Seed the hot keys.
		const hot = 16
		for k := 0; k < hot; k++ {
			if err := ApplyOp(e, workload.Op{OID: uint16(k), Pos: workload.Point{X: 1, Y: 1}}); err != nil {
				e.Close()
				return nil, err
			}
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() { // writer: updates hot keys continuously
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				op := workload.Op{OID: uint16(i % hot), Pos: workload.Point{X: int32(i), Y: 0}}
				if ApplyOp(e, op) != nil {
					return
				}
				i++
				if i >= writerTxns {
					return
				}
			}
		}()
		level := immortaldb.SnapshotIsolation
		name := "snapshot"
		if !snap {
			level = immortaldb.Serializable
			name = "serializable"
		}
		reads := 0
		start := time.Now()
		deadline := start.Add(500 * time.Millisecond)
		for time.Now().Before(deadline) {
			tx, err := e.DB.Begin(level)
			if err != nil {
				break
			}
			for k := 0; k < hot; k++ {
				if _, _, err := tx.Get(e.Table, workload.Key(uint16(k))); err != nil {
					break
				}
				reads++
			}
			tx.Commit()
		}
		sec := time.Since(start).Seconds()
		close(stop)
		wg.Wait()
		out = append(out, SnapshotRow{
			ReaderMode: name,
			ReadsDone:  reads,
			Seconds:    sec,
			ReadsPerMs: float64(reads) / (sec * 1000),
		})
		e.Close()
	}
	return out, nil
}
