package admit

import (
	"context"
	"errors"
	"testing"
	"time"

	"immortaldb/internal/itime"
	"immortaldb/internal/workload"
)

func TestTenantFromStatement(t *testing.T) {
	cases := []struct {
		stmt string
		want uint32
	}{
		{workload.MeterOp{Kind: workload.MeterAppend, Tenant: 7, Period: 3, Seq: 1, Amount: 5}.Statement(), 7},
		{"SELECT amount FROM meter WHERE k = " + "30064771073", 7}, // 7<<32 | 1<<16 | 1
		{"INSERT INTO t (k, v) VALUES (1, 2)", 0},                  // small literals: untagged
		{"SELECT * FROM t WHERE name = '30064771073'", 0},          // quoted: not a key
		{"SELECT * FROM t30064771073", 0},                          // identifier tail
		{"BEGIN TRANSACTION", 0},
		{"", 0},
		{"SELECT 99999999999999999999999999", 0}, // overflows int64: not a key
	}
	for _, c := range cases {
		if got := TenantFromStatement(c.stmt); got != c.want {
			t.Errorf("TenantFromStatement(%q) = %d, want %d", c.stmt, got, c.want)
		}
	}
}

func TestTokenBucketManualRefill(t *testing.T) {
	tl := &itime.SimClock{}
	g := New(Config{Tenant: Quota{Burst: 2}, Clock: tl})
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		rel, err := g.Admit(ctx, 9, PriorityNew)
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		rel()
	}
	_, err := g.Admit(ctx, 9, PriorityNew)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third admit: got %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "tenant quota" || oe.Tenant != 9 {
		t.Fatalf("third admit: %+v", err)
	}
	if oe.RetryAfter <= 0 {
		t.Fatal("shed carried no retry-after hint")
	}
	// A different tenant has its own bucket.
	if _, err := g.Admit(ctx, 10, PriorityNew); err != nil {
		t.Fatalf("other tenant: %v", err)
	}
	// Refill restores the burst.
	g.Refill()
	if _, err := g.Admit(ctx, 9, PriorityNew); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	st := g.Stats()
	if st.Shed != 1 || st.Admitted != 4 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestTokenBucketRateRefill(t *testing.T) {
	tl := &itime.SimClock{}
	g := New(Config{Tenant: Quota{Rate: 10, Burst: 1}, Clock: tl})
	ctx := context.Background()

	if _, err := g.Admit(ctx, 1, PriorityNew); err != nil {
		t.Fatal(err)
	}
	_, err := g.Admit(ctx, 1, PriorityNew)
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("got %v, want overload", err)
	}
	// At 10 req/s the next token is 100ms out; the hint should say so.
	if oe.RetryAfter <= 0 || oe.RetryAfter > 150*time.Millisecond {
		t.Fatalf("hint %v, want ~100ms", oe.RetryAfter)
	}
	tl.Advance(oe.RetryAfter)
	if _, err := g.Admit(ctx, 1, PriorityNew); err != nil {
		t.Fatalf("after waiting out the hint: %v", err)
	}
}

func TestConcurrencyQueueAndHandoff(t *testing.T) {
	tl := &itime.SimClock{}
	g := New(Config{Limit: 1, MaxQueue: 1, Clock: tl})
	ctx := context.Background()

	relA, err := g.Admit(ctx, 0, PriorityNew)
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		rel func()
		err error
	}
	bCh := make(chan res, 1)
	go func() {
		rel, err := g.Admit(ctx, 0, PriorityNew)
		bCh <- res{rel, err}
	}()
	// Wait until B is queued (time stands still, so no timeout can fire).
	for g.Stats().Queued == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	// C finds the queue full and is shed immediately.
	_, err = g.Admit(ctx, 0, PriorityNew)
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "queue full" {
		t.Fatalf("C: got %v, want queue-full shed", err)
	}
	// Releasing A hands the slot to B without dropping inflight.
	relA()
	b := <-bCh
	if b.err != nil {
		t.Fatalf("B: %v", b.err)
	}
	if st := g.Stats(); st.Inflight != 1 || st.Queued != 0 {
		t.Fatalf("after handoff: %+v", st)
	}
	b.rel()
	if st := g.Stats(); st.Inflight != 0 {
		t.Fatalf("after release: %+v", st)
	}
}

func TestQueueTimeoutShed(t *testing.T) {
	tl := &itime.SimClock{}
	g := New(Config{Limit: 1, MaxWait: 100 * time.Millisecond, Clock: tl})
	ctx := context.Background()

	relA, err := g.Admit(ctx, 0, PriorityNew)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := g.Admit(ctx, 0, PriorityNew)
		errCh <- err
	}()
	for g.Stats().Queued == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	tl.Advance(100 * time.Millisecond)
	err = <-errCh
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "queue timeout" {
		t.Fatalf("got %v, want queue-timeout shed", err)
	}
	relA()
	if st := g.Stats(); st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("abandoned waiter leaked: %+v", st)
	}
}

func TestDeadlineShedUsesLatencyEstimate(t *testing.T) {
	tl := &itime.SimClock{}
	g := New(Config{Limit: 1, MaxWait: 10 * time.Millisecond, Clock: tl})
	ctx := context.Background()

	// Prime the latency estimate with one slow request.
	rel, err := g.Admit(ctx, 0, PriorityNew)
	if err != nil {
		t.Fatal(err)
	}
	tl.Advance(100 * time.Millisecond)
	rel()

	// With the slot held and ~100ms expected service time, a 10ms wait
	// allowance is hopeless: shed on arrival, hint = the estimate.
	relA, err := g.Admit(ctx, 0, PriorityNew)
	if err != nil {
		t.Fatal(err)
	}
	defer relA()
	_, err = g.Admit(ctx, 0, PriorityNew)
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "deadline" {
		t.Fatalf("got %v, want deadline shed", err)
	}
	if oe.RetryAfter < 10*time.Millisecond {
		t.Fatalf("hint %v, want the ~100ms estimate", oe.RetryAfter)
	}
}

func TestTxnPriorityBypassesGate(t *testing.T) {
	tl := &itime.SimClock{}
	g := New(Config{Default: Quota{Burst: 1}, Limit: 1, Clock: tl})
	ctx := context.Background()

	// Exhaust both the default bucket and the concurrency limit.
	rel, err := g.Admit(ctx, 0, PriorityNew)
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	// In-transaction requests still get through: the session holds locks.
	for i := 0; i < 5; i++ {
		relTxn, err := g.Admit(ctx, 0, PriorityTxn)
		if err != nil {
			t.Fatalf("txn bypass %d: %v", i, err)
		}
		relTxn()
	}
	if st := g.Stats(); st.Bypassed != 5 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestAIMDTracksLatency(t *testing.T) {
	tl := &itime.SimClock{}
	g := New(Config{Limit: 10, MinLimit: 1, Target: 10 * time.Millisecond, Clock: tl})
	ctx := context.Background()

	// One over-target completion cuts the limit multiplicatively; a second
	// overshoot landing inside the cooldown window does not cut again.
	relA, err := g.Admit(ctx, 0, PriorityNew)
	if err != nil {
		t.Fatal(err)
	}
	relB, err := g.Admit(ctx, 0, PriorityNew)
	if err != nil {
		t.Fatal(err)
	}
	tl.Advance(50 * time.Millisecond)
	relA()
	if st := g.Stats(); st.Limit != 7 {
		t.Fatalf("after overshoot: limit %d, want 7", st.Limit)
	}
	relB()
	if st := g.Stats(); st.Limit != 7 {
		t.Fatalf("inside cooldown: limit %d, want 7", st.Limit)
	}
	// Under-target completions while the gate is saturated grow it back.
	var held []func()
	for i := 0; i < 6; i++ {
		r, err := g.Admit(ctx, 0, PriorityNew)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, r)
	}
	for i := 0; i < 60; i++ {
		r, err := g.Admit(ctx, 0, PriorityNew)
		if err != nil {
			t.Fatalf("saturated admit %d: %v", i, err)
		}
		tl.Advance(time.Millisecond)
		r()
	}
	if st := g.Stats(); st.Limit < 8 {
		t.Fatalf("after recovery: limit %d, want >= 8", st.Limit)
	}
	for _, r := range held {
		r()
	}
}
