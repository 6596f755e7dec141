package wire

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		[]byte("SELECT * FROM t"),
		{},
		nil,
		bytes.Repeat([]byte("x"), 100_000),
	}
	for _, p := range payloads {
		if err := WriteFrame(&buf, MsgExec, p); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range payloads {
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != MsgExec {
			t.Fatalf("frame %d: type %#x", i, typ)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload mismatch (%d vs %d bytes)", i, len(got), len(want))
		}
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgExec, make([]byte, MaxFrame)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("write oversize: got %v", err)
	}
	// A hostile length header must be rejected before any allocation.
	hostile := []byte{0xff, 0xff, 0xff, 0xff, MsgExec}
	if _, _, err := ReadFrame(bytes.NewReader(hostile)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("read oversize: got %v", err)
	}
	// A zero-length frame has no type byte and is malformed.
	empty := []byte{0, 0, 0, 0}
	if _, _, err := ReadFrame(bytes.NewReader(empty)); err == nil {
		t.Fatal("read empty frame: want error")
	}
}

func TestHello(t *testing.T) {
	v, err := CheckHello(HelloPayload())
	if err != nil {
		t.Fatal(err)
	}
	if v != Version {
		t.Fatalf("version %d, want %d", v, Version)
	}
	// A server still serves version 2 clients.
	if v, err := CheckHello(append([]byte(Magic), 2)); err != nil || v != 2 {
		t.Fatalf("v2 hello: got %d, %v", v, err)
	}
	if _, err := CheckHello([]byte("http/1.1")); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("bad magic: got %v", err)
	}
	bad := HelloPayload()
	bad[len(bad)-1] = 99
	if _, err := CheckHello(bad); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("bad version: got %v", err)
	}
}

func TestOverloadMsg(t *testing.T) {
	cases := []struct {
		msg   string
		hint  time.Duration
		want  string
		parse time.Duration
	}{
		{"server: overloaded", 100 * time.Millisecond, "server: overloaded", 100 * time.Millisecond},
		{"server: overloaded", 0, "server: overloaded", 0},
		{"server: overloaded", -time.Second, "server: overloaded", 0},
		// Sub-millisecond hints round up so a positive hint survives the trip.
		{"shed", 10 * time.Microsecond, "shed", time.Millisecond},
	}
	for _, c := range cases {
		enc := OverloadMsg(c.msg, c.hint)
		clean, got := ParseOverload(enc)
		if clean != c.want || got != c.parse {
			t.Fatalf("OverloadMsg(%q, %v) round-trip: got (%q, %v), want (%q, %v)",
				c.msg, c.hint, clean, got, c.want, c.parse)
		}
	}
	// A malformed hint parses as zero instead of failing.
	if _, hint := ParseOverload("msg" + overloadMarker + "not-a-number"); hint != 0 {
		t.Fatalf("malformed hint: got %v, want 0", hint)
	}
	// Hint-less messages pass through untouched.
	if clean, hint := ParseOverload("bare"); clean != "bare" || hint != 0 {
		t.Fatalf("bare message: got (%q, %v)", clean, hint)
	}
}

func TestStringHelpers(t *testing.T) {
	b := AppendString(nil, "hello")
	b = AppendString(b, "")
	b = AppendString(b, "world")
	for _, want := range []string{"hello", "", "world"} {
		var s string
		var err error
		s, b, err = ReadString(b)
		if err != nil {
			t.Fatal(err)
		}
		if s != want {
			t.Fatalf("got %q, want %q", s, want)
		}
	}
	if _, _, err := ReadString([]byte{200}); err == nil {
		t.Fatal("truncated string: want error")
	}
}
