package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"immortaldb/internal/sqlish"
)

// testScale shrinks every workload so that one runs in well under a second
// while keeping its shape: history still splits every round and still
// outgrows the hot pool.
var testScale = scale{
	rows: 2000, aging: 1000,
	keys: 600, rounds: 20, batch: 50, scanLen: 50,
	hotFrames: 16, poolFrames: 1024, readerRate: 200,
	ckptEveryN: 500,
}

func testConfig(t *testing.T) runConfig {
	return runConfig{
		seed: 1, window: 200 * time.Millisecond, warm: 60 * time.Millisecond, setupReps: 1,
		dir: t.TempDir(), out: t.TempDir(), sc: testScale,
	}
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		// Not parallel: the runs are timed, and mixed's paced reader must
		// keep its schedule.
		t.Run(w.name, func(t *testing.T) {
			cfg := testConfig(t)
			for _, mode := range []struct {
				run   func(runConfig) (*result, error)
				decls []metricDecl
			}{{w.runMeasured, endToEnd}, {w.runTraced, perLayer}} {
				res, err := mode.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Problems)
				}
				if len(res.Metrics) != len(mode.decls) {
					t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(mode.decls))
				}
				for _, d := range mode.decls {
					if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit || m.Unit == "" {
						t.Errorf("metric %s: reported %+v (present %v), want unit %q", d.Name, m, ok, d.Unit)
					}
				}
				if _, err := json.Marshal(res); err != nil {
					t.Errorf("result does not marshal: %v", err)
				}
			}
			b, err := os.ReadFile(filepath.Join(cfg.out, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(b, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) == 0 || len(tf.Summary) == 0 || tf.Spans[0].Parent != -1 {
				t.Errorf("trace file has %d spans, %d summaries", len(tf.Spans), len(tf.Summary))
			}
		})
	}
}

// A model that expects the wrong value must trip the oracle: on a read
// workload at the read itself, on a commit workload at the reopen check.
func TestWrongValueTripsTheOracle(t *testing.T) {
	for _, name := range []string{"asof-cold", "scan-cold", "commit-embedded"} {
		cfg := testConfig(t)
		cfg.brokenModel = true
		res, err := workloadByName(name).runMeasured(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 || len(res.Problems) == 0 {
			t.Errorf("%s: a broken model went unnoticed: correct=%v failed=%d", name, res.Correct, res.Failed)
		}
	}
}

func TestCheckComparesWithTheModel(t *testing.T) {
	ds := &dataset{scanLen: 2}
	point := op{kind: opPoint, key: 7, val: 3, round: 3}
	okRes := []*sqlish.Result{{}, {Rows: [][]string{{"3"}}}, {}}
	if err := (&prepared{o: point, res: okRes}).check(ds); err != nil {
		t.Errorf("right value rejected: %v", err)
	}
	for _, rows := range [][][]string{{{"4"}}, {}, {{"3"}, {"3"}}} {
		if (&prepared{o: point, res: []*sqlish.Result{{}, {Rows: rows}, {}}}).check(ds) == nil {
			t.Errorf("rows %v accepted for value 3", rows)
		}
	}
	scan := op{kind: opScan, key: 10, val: 5, round: 5}
	if err := (&prepared{o: scan, res: []*sqlish.Result{{}, {Rows: [][]string{{"10", "5"}, {"11", "5"}}}, {}}}).check(ds); err != nil {
		t.Errorf("right scan rejected: %v", err)
	}
	for _, rows := range [][][]string{{{"10", "5"}}, {{"10", "5"}, {"12", "5"}}, {{"10", "5"}, {"11", "6"}}} {
		if (&prepared{o: scan, res: []*sqlish.Result{{}, {Rows: rows}, {}}}).check(ds) == nil {
			t.Errorf("scan rows %v accepted", rows)
		}
	}
	if (&prepared{o: op{kind: opUpdate}, res: []*sqlish.Result{{Affected: 0}}}).check(ds) == nil {
		t.Error("an update that touched no row was accepted")
	}
}

func TestPercentile(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing is not 0")
	}
	if got := summarise([]int64{3000, 1000, 2000}); got.N != 3 || got.P50us != 2 || got.P99us != 3 {
		t.Errorf("summarise = %+v", got)
	}
	// 1000 samples with a cliff at the 99th percentile: ranks 986..995 are
	// the band, five samples on each side of the cliff.
	cliff := make([]int64, 1000)
	for i := range cliff {
		cliff[i] = 10_000
		if i >= 990 {
			cliff[i] = 110_000
		}
	}
	if got := summarise(cliff); got.P99ExactUs != 10 || got.P99us != 60 {
		t.Errorf("across a cliff: exact p99 %v us, band mean %v us, want 10 and 60", got.P99ExactUs, got.P99us)
	}
}

// The quartiles must be those of Python's statistics.quantiles(v, n=4),
// which is what the acceptance check computes.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

// A span's self time is its duration minus the union of its children's
// cover: overlapping children count once, and the part of a child outside
// the parent not at all.
func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 110, End: 120}, {Start: 150, End: 180}}, 60},
		{"overlapping", []span{{Start: 110, End: 150}, {Start: 140, End: 160}}, 50},
		{"nested", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"sticking out", []span{{Start: 50, End: 120}, {Start: 190, End: 400}}, 70},
		{"outside", []span{{Start: 10, End: 50}}, 100},
		{"unordered", []span{{Start: 150, End: 160}, {Start: 100, End: 110}}, 80},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTracerSummary(t *testing.T) {
	tr := newTracer()
	root, call := tr.name("rung"), tr.name("rung: call")
	if tr.begin(call) != -1 {
		t.Fatal("a tracer that is off recorded a span")
	}
	tr.on = true
	for i := 0; i < 3; i++ {
		tr.beginOp(root)
		tr.end(tr.begin(call))
		tr.endOp()
	}
	sum := tr.summariseSpans()
	if len(sum) != 2 || sum[0].N != 3 || sum[1].N != 3 || sum[0].Name != "rung" || sum[1].SelfUs != 0 {
		t.Errorf("summary %+v", sum)
	}
}

func TestStreamHashFollowsTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := streamHash(w, fullScale, 1), streamHash(w, fullScale, 1), streamHash(w, fullScale, 2)
		if a != b {
			t.Errorf("%s: seed 1 hashed to %x and %x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 both hashed to %x", w.name, a)
		}
	}
}

// Set-up runs single-threaded on a simulated clock, so its counts — splits,
// log bytes, PTT entries, bytes on disk and with them space_amp — must
// repeat byte for byte.
func TestSetupCountsRepeat(t *testing.T) {
	for _, name := range []string{"commit-embedded", "asof-cold"} {
		w := workloadByName(name)
		var got [2][]byte
		for i := range got {
			ds, err := w.build(t.TempDir(), testScale)
			if err != nil {
				t.Fatal(err)
			}
			if got[i], err = json.Marshal(struct {
				C counts
				S float64
			}{ds.counts, ds.spaceAmp}); err != nil {
				t.Fatal(err)
			}
		}
		if string(got[0]) != string(got[1]) {
			t.Errorf("%s: two set-ups differ:\n%s\n%s", name, got[0], got[1])
		}
	}
}

func TestColdSetupRefusesOversizedHistory(t *testing.T) {
	sc := testScale
	sc.keys, sc.rounds = 20_000, 20
	if _, err := workloadByName("asof-cold").build(t.TempDir(), sc); err == nil {
		t.Error("a cold set-up of 400000 versions was not refused")
	}
}

func TestWorseBy(t *testing.T) {
	hi, lo := metricDecl{Better: "higher"}, metricDecl{Better: "lower"}
	for _, c := range []struct {
		d         metricDecl
		base, got float64
		want      float64
	}{{hi, 100, 90, 0.10}, {hi, 100, 110, -0.10}, {lo, 100, 110, 0.10}, {lo, 100, 90, -0.10}, {lo, 0, 5, 0}} {
		if got := worseBy(c.d, c.base, c.got); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("worseBy(%s, %v, %v) = %v, want %v", c.d.Better, c.base, c.got, got, c.want)
		}
	}
}

// BENCHMARK.json repeats the program's workload and metric tables for the
// driver; the two must not drift apart.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDecl                 `json:"end_to_end"`
		PerLayer  []metricDecl                 `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, file.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %+v, the program %+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		want, _ := json.MarshalIndent(perLayer, "  ", "  ")
		t.Errorf("per_layer differs from the program's table; it should read:\n%s", want)
	}
}
