package obs

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	if !compiledIn {
		t.Skip("recording compiled out (obsoff)")
	}
	c := NewCounter("test_counter_total", "test")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := NewGauge("test_gauge", "test")
	g.Set(10)
	g.Inc()
	g.Add(-3)
	if got := g.Value(); got != 8 {
		t.Fatalf("gauge = %d, want 8", got)
	}
}

// TestHistogramBucketBoundaries pins the boundary rule: a value equal to a
// bucket's upper bound lands IN that bucket (SearchFloat64s finds the first
// upper >= v), and values beyond the last bound land in overflow.
func TestHistogramBucketBoundaries(t *testing.T) {
	if !compiledIn {
		t.Skip("recording compiled out (obsoff)")
	}
	h := newHistogram("test_hist", "test", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1} { // both <= 1
		h.Observe(v)
	}
	h.Observe(1.01) // (1,10]
	h.Observe(10)   // (1,10]: boundary value stays in its bucket
	h.Observe(100)  // (10,100]
	h.Observe(101)  // overflow
	wantCounts := []uint64{2, 2, 1}
	for i, want := range wantCounts {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket %d count = %d, want %d", i, got, want)
		}
	}
	if got := h.overflow.Load(); got != 1 {
		t.Errorf("overflow = %d, want 1", got)
	}
	if got := h.Count(); got != 6 {
		t.Errorf("count = %d, want 6", got)
	}
	if got, want := h.Sum(), 0.5+1+1.01+10+100+101; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %g, want %g", got, want)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	if !compiledIn {
		t.Skip("recording compiled out (obsoff)")
	}
	h := newHistogram("test_hist_q", "test", []float64{1, 2, 4, 8, 16})
	// 100 observations uniform in (0,1]: every quantile interpolates inside
	// the first bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	if p50 := h.Quantile(0.5); p50 < 0.4 || p50 > 0.6 {
		t.Errorf("p50 = %g, want ~0.5", p50)
	}
	// Pile everything above the range: quantiles saturate at the last bound.
	h2 := newHistogram("test_hist_q2", "test", []float64{1})
	for i := 0; i < 10; i++ {
		h2.Observe(50)
	}
	if got := h2.Quantile(0.99); got != 1 {
		t.Errorf("overflow quantile = %g, want last bound 1", got)
	}
	// Empty histogram.
	h3 := newHistogram("test_hist_q3", "test", []float64{1})
	if got := h3.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
}

// TestConcurrentRecording hammers one counter, one histogram and one span
// tree from many goroutines; run under -race this is the race-cleanliness
// proof, and the totals prove no lost updates.
func TestConcurrentRecording(t *testing.T) {
	if !compiledIn {
		t.Skip("recording compiled out (obsoff)")
	}
	c := NewCounter("test_conc_total", "test")
	h := newHistogram("test_conc_hist", "test", LatencyBuckets)
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx, root := StartSpan(context.Background(), "conc.root")
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i) * 1e-6)
				_, child := StartSpan(ctx, "conc.child")
				child.End()
			}
			root.End()
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

func TestSlowOpCaptureAndRingEviction(t *testing.T) {
	if !compiledIn {
		t.Skip("recording compiled out (obsoff)")
	}
	defer SetSlowOpThreshold(100 * time.Millisecond)
	defer SetSlowOpCapacity(128)
	SetSlowOpCapacity(4)
	SetSlowOpThreshold(0) // capture everything

	for i := 0; i < 7; i++ {
		ctx, root := StartSpan(context.Background(), fmt.Sprintf("op-%d", i))
		cctx, child := StartSpan(ctx, "child-a")
		_, grandchild := StartSpan(cctx, "child-a-1")
		grandchild.End()
		child.End()
		root.End()
	}
	ops := SlowOps()
	if len(ops) != 4 {
		t.Fatalf("ring holds %d ops, want capacity 4", len(ops))
	}
	// Newest first; the oldest three (op-0..2) were evicted.
	for i, op := range ops {
		want := fmt.Sprintf("op-%d", 6-i)
		if op.Root.Name != want {
			t.Errorf("ops[%d] = %q, want %q", i, op.Root.Name, want)
		}
	}
	// Span tree shape survives recording.
	if len(ops[0].Root.Children) != 1 || ops[0].Root.Children[0].Name != "child-a" {
		t.Fatalf("root children = %+v, want [child-a]", ops[0].Root.Children)
	}
	if kids := ops[0].Root.Children[0].Children; len(kids) != 1 || kids[0].Name != "child-a-1" {
		t.Fatalf("grandchildren = %+v, want [child-a-1]", kids)
	}

	// Below-threshold roots are not recorded.
	ResetSlowOps()
	SetSlowOpThreshold(time.Hour)
	_, fast := StartSpan(context.Background(), "fast")
	fast.End()
	if got := SlowOps(); len(got) != 0 {
		t.Fatalf("fast op recorded: %+v", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	if !compiledIn {
		t.Skip("recording compiled out (obsoff)")
	}
	c := NewCounter("test_prom_total", "a counter")
	c.Add(3)
	g := NewGauge("test_prom_gauge", "a gauge")
	g.Set(-2)
	h := NewHistogram("test_prom_seconds", "a histogram", LatencyBuckets)
	h.Observe(0.01)
	h.ObserveSince(time.Now().Add(-time.Millisecond))

	var b strings.Builder
	WriteMetrics(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE test_prom_total counter",
		"test_prom_total 3",
		"test_prom_gauge -2",
		"# TYPE test_prom_seconds summary",
		`test_prom_seconds{quantile="0.5"}`,
		"test_prom_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	count, sum, qs, ok := HistogramSnapshot("test_prom_seconds", 0.5, 0.99)
	if !ok || count != 2 || sum <= 0 || len(qs) != 2 {
		t.Fatalf("HistogramSnapshot = %d %g %v %v", count, sum, qs, ok)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	NewCounter("test_dup_total", "x")
	NewCounter("test_dup_total", "x")
}
