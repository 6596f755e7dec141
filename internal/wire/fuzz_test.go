package wire

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzFrameRoundTrip: any (type, payload) pair either encodes and decodes to
// itself, or is rejected for size at write time — nothing in between.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(MsgExec, []byte("SELECT * FROM t"))
	f.Add(MsgExec, []byte{})
	f.Add(MsgHello, HelloPayload())
	f.Add(MsgError, ErrorPayload(CodeDegraded, "engine degraded"))
	f.Add(byte(0xff), bytes.Repeat([]byte{0xaa}, 4096))
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		var buf bytes.Buffer
		err := WriteFrame(&buf, typ, payload)
		if len(payload)+1 > MaxFrame {
			if !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("oversize write: got %v", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		gotTyp, gotPayload, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		if gotTyp != typ || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("round trip: (%#x, %d bytes) -> (%#x, %d bytes)",
				typ, len(payload), gotTyp, len(gotPayload))
		}
	})
}

// FuzzReadFrame feeds arbitrary byte streams to the decoder. It must never
// panic or over-allocate, and anything it accepts must re-encode to exactly
// the bytes it consumed (the encoding is canonical).
func FuzzReadFrame(f *testing.F) {
	valid := func(typ byte, payload []byte) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(valid(MsgHello, HelloPayload()))
	f.Add(valid(MsgExec, nil)) // zero-length Exec: smallest legal frame
	f.Add([]byte{0, 0, 0})     // truncated header
	f.Add([]byte{0, 0, 0, 0})  // zero-length frame: no type byte
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, MsgExec})
	f.Add([]byte{1, 0, 0, 1, MsgExec, 'x'}) // just over MaxFrame
	f.Fuzz(func(t *testing.T, stream []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(stream))
		if err != nil {
			return
		}
		if len(payload)+1 > MaxFrame {
			t.Fatalf("accepted %d-byte payload past MaxFrame", len(payload))
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			t.Fatalf("re-encode accepted frame: %v", err)
		}
		if consumed := buf.Len(); !bytes.Equal(buf.Bytes(), stream[:consumed]) {
			t.Fatalf("re-encoding differs from the %d bytes consumed", consumed)
		}
	})
}

// FuzzWireStrings walks arbitrary bytes with the uvarint-prefixed string
// reader: no panics, and every successful read must strictly consume input
// (a decoder that can succeed without progress loops forever on its caller).
func FuzzWireStrings(f *testing.F) {
	f.Add(AppendString(AppendString(nil, "hello"), ""))
	f.Add([]byte{200})                    // length prefix past the buffer
	f.Add([]byte{0x80})                   // truncated uvarint: continuation, no end
	f.Add(bytes.Repeat([]byte{0xff}, 10)) // uvarint overflow
	f.Fuzz(func(t *testing.T, b []byte) {
		rest := b
		for len(rest) > 0 {
			s, r, err := ReadString(rest)
			if err != nil {
				break
			}
			if len(r) >= len(rest) {
				t.Fatalf("ReadString made no progress (%d -> %d bytes)", len(rest), len(r))
			}
			if len(s) > len(rest) {
				t.Fatalf("string longer than its input: %d > %d", len(s), len(rest))
			}
			rest = r
		}
		if n, r, err := ReadUvarint(b); err == nil {
			if len(r) >= len(b) && len(b) > 0 {
				t.Fatalf("ReadUvarint made no progress")
			}
			_ = n
		}
	})
}

// TestMalformedFrames sweeps the hostile-input table: every way a frame
// header can lie about its body, plus the boundary cases either side of the
// 16MB cap.
func TestMalformedFrames(t *testing.T) {
	frame := func(n uint32, body ...byte) []byte {
		return append([]byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}, body...)
	}
	cases := []struct {
		name    string
		in      []byte
		wantErr error // nil means "any error"; io.EOF et al checked by name
		ok      bool  // frame must parse
		typ     byte
		payload int // expected payload length when ok
	}{
		{name: "empty stream", in: nil},
		{name: "truncated header 1B", in: []byte{0}},
		{name: "truncated header 4B", in: []byte{0, 0, 0, 1}},
		{name: "zero-length frame", in: frame(0)},
		{name: "zero-length then junk", in: frame(0, 'x', 'y')},
		{name: "length 1 missing type", in: frame(1)},
		{name: "zero-length exec", in: frame(1, MsgExec), ok: true, typ: MsgExec, payload: 0},
		{name: "body shorter than length", in: frame(100, MsgExec, 'S', 'E', 'L')},
		{name: "length just over cap", in: frame(MaxFrame+1, MsgExec), wantErr: ErrFrameTooLarge},
		{name: "length absurdly large", in: frame(0xffffffff, MsgExec), wantErr: ErrFrameTooLarge},
		{name: "length at cap, body truncated", in: frame(MaxFrame, MsgExec, 'x')},
		{
			name: "length exactly at cap, full body",
			in:   frame(MaxFrame, append([]byte{MsgExec}, make([]byte, MaxFrame-1)...)...),
			ok:   true, typ: MsgExec, payload: MaxFrame - 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			typ, payload, err := ReadFrame(bytes.NewReader(tc.in))
			if tc.ok {
				if err != nil {
					t.Fatalf("want frame, got error %v", err)
				}
				if typ != tc.typ || len(payload) != tc.payload {
					t.Fatalf("got (%#x, %d bytes), want (%#x, %d bytes)",
						typ, len(payload), tc.typ, tc.payload)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted malformed input as (%#x, %d bytes)", typ, len(payload))
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("got %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// TestMalformedHandshake: every way a hello payload can be wrong.
func TestMalformedHandshake(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"short", []byte("imm")},
		{"magic only", []byte(Magic)},
		{"wrong magic", []byte("http5")},
		{"wrong version", append([]byte(Magic), 99)},
		{"version below minimum", append([]byte(Magic), MinVersion-1)},
		{"version above ours", append([]byte(Magic), Version+1)},
		{"trailing junk", append(HelloPayload(), 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := CheckHello(tc.in); !errors.Is(err, ErrBadHandshake) {
				t.Fatalf("got %v, want ErrBadHandshake", err)
			}
		})
	}
}

// TestMalformedUvarints: truncated and overflowing varints must error, never
// panic or mis-slice.
func TestMalformedUvarints(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"continuation bit, no terminator", []byte{0x80}},
		{"all continuation bytes", bytes.Repeat([]byte{0x80}, 12)},
		{"overflow", bytes.Repeat([]byte{0xff}, 10)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := ReadUvarint(tc.in); err == nil {
				t.Fatal("ReadUvarint accepted malformed input")
			}
			if _, _, err := ReadString(tc.in); err == nil {
				t.Fatal("ReadString accepted malformed input")
			}
		})
	}
	// A length prefix pointing past the buffer is truncation, not a crash.
	if _, _, err := ReadString([]byte{0x20, 'a', 'b'}); err == nil {
		t.Fatal("ReadString accepted a length past the buffer")
	}
}
