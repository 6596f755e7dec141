package itime

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"
)

func TestTimestampCompare(t *testing.T) {
	cases := []struct {
		a, b Timestamp
		want int
	}{
		{Timestamp{}, Timestamp{}, 0},
		{Timestamp{Wall: 1}, Timestamp{Wall: 2}, -1},
		{Timestamp{Wall: 2}, Timestamp{Wall: 1}, 1},
		{Timestamp{Wall: 1, Seq: 1}, Timestamp{Wall: 1, Seq: 2}, -1},
		{Timestamp{Wall: 1, Seq: 2}, Timestamp{Wall: 1, Seq: 2}, 0},
		{Timestamp{Wall: 1, Seq: 3}, Timestamp{Wall: 1, Seq: 2}, 1},
		{Timestamp{}, Max, -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestTimestampNext(t *testing.T) {
	ts := Timestamp{Wall: 5, Seq: 7}
	if got := ts.Next(); got != (Timestamp{Wall: 5, Seq: 8}) {
		t.Fatalf("Next = %v", got)
	}
	overflow := Timestamp{Wall: 5, Seq: 1<<32 - 1}
	if got := overflow.Next(); got != (Timestamp{Wall: 6, Seq: 0}) {
		t.Fatalf("Next at seq overflow = %v", got)
	}
	if !ts.Next().After(ts) {
		t.Fatal("Next must be strictly after")
	}
}

func TestTimestampEncodeRoundTrip(t *testing.T) {
	f := func(wall int64, seq uint32) bool {
		if wall < 0 {
			wall = -wall
		}
		ts := Timestamp{Wall: wall, Seq: seq}
		var b [EncodedLen]byte
		ts.Encode(b[:])
		return DecodeTimestamp(b[:]) == ts
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimestampEncodeOrderAgreesWithCompare(t *testing.T) {
	f := func(w1, w2 int64, s1, s2 uint32) bool {
		if w1 < 0 {
			w1 = -w1
		}
		if w2 < 0 {
			w2 = -w2
		}
		a := Timestamp{Wall: w1, Seq: s1}
		b := Timestamp{Wall: w2, Seq: s2}
		var ea, eb [EncodedLen]byte
		a.Encode(ea[:])
		b.Encode(eb[:])
		return sign(bytes.Compare(ea[:], eb[:])) == sign(a.Compare(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

func TestFromTimeRoundTrip(t *testing.T) {
	orig := time.Date(2004, 8, 12, 10, 15, 20, 0, time.UTC)
	ts := FromTime(orig)
	if got := ts.Time(); !got.Equal(orig) {
		t.Fatalf("Time() = %v, want %v", got, orig)
	}
	// Sub-tick precision is truncated.
	ts2 := FromTime(orig.Add(7 * time.Millisecond))
	if ts2 != ts {
		t.Fatalf("expected 7ms to truncate to same tick: %v vs %v", ts2, ts)
	}
	ts3 := FromTime(orig.Add(25 * time.Millisecond))
	if !ts3.After(ts) {
		t.Fatalf("25ms later should be a later tick")
	}
}

func TestParseAsOf(t *testing.T) {
	for _, s := range []string{
		"2004-08-12 10:15:20",
		"2004-08-12T10:15:20",
		"8/12/2004 10:15:20",
	} {
		ts, err := ParseAsOf(s)
		if err != nil {
			t.Fatalf("ParseAsOf(%q): %v", s, err)
		}
		want := FromTime(time.Date(2004, 8, 12, 10, 15, 20, 0, time.UTC)).Wall
		if ts.Wall != want {
			t.Errorf("ParseAsOf(%q).Wall = %d, want %d", s, ts.Wall, want)
		}
		if ts.Seq != 1<<32-1 {
			t.Errorf("ParseAsOf(%q).Seq = %d, want max", s, ts.Seq)
		}
	}
	if _, err := ParseAsOf("not a time"); err == nil {
		t.Fatal("expected error for junk input")
	}
}

func TestParseAsOfSeesWholeTick(t *testing.T) {
	// An AS OF at clock time t must see a transaction that committed at
	// (t, seq>0); ParseAsOf therefore returns the max sequence number.
	asOf, err := ParseAsOf("2004-08-12 10:15:20")
	if err != nil {
		t.Fatal(err)
	}
	commit := Timestamp{Wall: asOf.Wall, Seq: 17}
	if commit.After(asOf) {
		t.Fatal("commit within the tick must not be after the AS OF bound")
	}
}

func TestSimClock(t *testing.T) {
	c := NewSimClock(time.Date(2004, 8, 12, 0, 0, 0, 0, time.UTC))
	t0 := c.NowTick()
	if c.NowTick() != t0 {
		t.Fatal("clock moved without Advance")
	}
	c.Advance(100 * time.Millisecond)
	if got := c.NowTick(); got != t0+5 {
		t.Fatalf("Advance(100ms): got %d, want %d", got, t0+5)
	}
	// Advance is exact to the nanosecond: the tick turns over only when a
	// whole TickDuration has passed.
	c.Advance(TickDuration - time.Nanosecond)
	if got := c.NowTick(); got != t0+5 {
		t.Fatalf("Advance(tick-1ns) turned the tick: got %d, want %d", got, t0+5)
	}
	c.Advance(time.Nanosecond)
	if got := c.NowTick(); got != t0+6 {
		t.Fatalf("Advance(1ns) at a tick's end: got %d, want %d", got, t0+6)
	}
	// A start time inside a tick is rounded down to the tick's start.
	mid := NewSimClock(time.Date(2004, 8, 12, 0, 0, 0, int(TickDuration)-1, time.UTC))
	if got, want := mid.Now(), time.Date(2004, 8, 12, 0, 0, 0, 0, time.UTC); !got.Equal(want) {
		t.Fatalf("NewSimClock mid-tick: Now = %v, want %v", got, want)
	}
}

func TestSimClockAutoStep(t *testing.T) {
	c := NewSimClock(time.Unix(1000, 0))
	c.AutoStep = 1
	c.AutoEvery = 3
	t0 := c.NowTick() // read 1 -> no step yet (step happens on the 3rd read)
	_ = c.NowTick()   // read 2
	t3 := c.NowTick() // read 3 -> step
	if t3 != t0+1 {
		t.Fatalf("auto step: got %d, want %d", t3, t0+1)
	}
}

func TestWallClockMonotonic(t *testing.T) {
	c := Real()
	prev := c.NowTick()
	for i := 0; i < 1000; i++ {
		now := c.NowTick()
		if now < prev {
			t.Fatal("wall clock went backwards")
		}
		prev = now
	}
}

func TestSequencerStrictlyIncreasing(t *testing.T) {
	c := NewSimClock(time.Unix(1000, 0))
	s := NewSequencer(c)
	prev := s.Next()
	for i := 0; i < 10000; i++ {
		if i%100 == 0 {
			c.Advance(TickDuration)
		}
		ts := s.Next()
		if !ts.After(prev) {
			t.Fatalf("timestamp %v not after %v", ts, prev)
		}
		prev = ts
	}
}

func TestSequencerSameTickUsesSeq(t *testing.T) {
	c := NewSimClock(time.Unix(1000, 0))
	s := NewSequencer(c)
	a := s.Next()
	b := s.Next()
	if a.Wall != b.Wall {
		t.Fatalf("clock did not advance but wall differs: %v vs %v", a, b)
	}
	if b.Seq != a.Seq+1 {
		t.Fatalf("expected consecutive sequence numbers: %v then %v", a, b)
	}
}

func TestSequencerReset(t *testing.T) {
	c := NewSimClock(time.Unix(1000, 0))
	s := NewSequencer(c)
	high := Timestamp{Wall: c.NowTick() + 100, Seq: 9}
	s.Reset(high)
	if got := s.Next(); !got.After(high) {
		t.Fatalf("after Reset(%v), Next() = %v; want after", high, got)
	}
	// Reset never moves backwards.
	s.Reset(Timestamp{Wall: 1})
	if got := s.Last(); !got.After(high) {
		t.Fatalf("Reset moved high-water mark backwards: %v", got)
	}
}

func TestSequencerConcurrent(t *testing.T) {
	c := NewSimClock(time.Unix(1000, 0))
	c.AutoStep = 1
	c.AutoEvery = 7
	s := NewSequencer(c)
	const goroutines, per = 8, 500
	ch := make(chan Timestamp, goroutines*per)
	done := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		go func() {
			for i := 0; i < per; i++ {
				ch <- s.Next()
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < goroutines; g++ {
		<-done
	}
	close(ch)
	seen := make(map[Timestamp]bool)
	for ts := range ch {
		if seen[ts] {
			t.Fatalf("duplicate timestamp %v", ts)
		}
		seen[ts] = true
	}
	if len(seen) != goroutines*per {
		t.Fatalf("got %d unique timestamps, want %d", len(seen), goroutines*per)
	}
}

func TestTIDSource(t *testing.T) {
	s := NewTIDSource(0)
	if got := s.Next(); got != 1 {
		t.Fatalf("first TID = %d, want 1", got)
	}
	if got := s.Next(); got != 2 {
		t.Fatalf("second TID = %d, want 2", got)
	}
	s.Bump(100)
	if got := s.Next(); got != 101 {
		t.Fatalf("after Bump(100), Next = %d, want 101", got)
	}
	s.Bump(50) // no-op
	if got := s.Next(); got != 102 {
		t.Fatalf("Bump must never move backwards: got %d", got)
	}
}

func TestTimestampString(t *testing.T) {
	if (Timestamp{}).String() != "<zero>" {
		t.Error("zero timestamp string")
	}
	if !Max.IsMax() || Max.String() != "<max>" {
		t.Error("max timestamp string")
	}
	ts := FromTime(time.Date(2004, 8, 12, 10, 15, 20, 0, time.UTC))
	ts.Seq = 3
	if got := ts.String(); got != "2004-08-12T10:15:20.000Z#3" {
		t.Errorf("String = %q", got)
	}
}
