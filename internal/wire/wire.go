// Package wire is the immortald client/server protocol: length-prefixed
// frames over a TCP stream carrying sqlish statements one way and typed
// result sets the other.
//
// Frame layout (all integers big-endian):
//
//	uint32  length of what follows (type byte + payload)
//	byte    message type
//	[]byte  payload
//
// A connection opens with a handshake — the client sends MsgHello carrying
// the protocol magic and version, the server answers MsgHelloOK — and then
// carries strictly alternating request/response pairs: every MsgExec,
// MsgExecBatch or MsgPing from the client is answered by exactly one
// MsgResult, MsgError or MsgPong. There is no pipelining; the session state
// machine (at most one open transaction per connection) stays trivially
// unambiguous.
//
// Version 3 adds MsgExecBatch: several statements in one request, run in
// order, answered by one frame — the last statement's MsgResult, or the
// MsgError of the first statement that failed, after which the rest are not
// run. The client uses it to send a BEGIN it answered locally together with
// the statement that follows it, so a BEGIN the server refuses surfaces as
// the error of that next statement; the server runs no other shape of batch.
// A server accepts version 2 and 3 hellos and answers with the version it
// will speak.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Message types. Requests flow client to server; responses have the high bit
// set.
const (
	// MsgHello opens a connection: payload is Magic followed by the
	// one-byte protocol version.
	MsgHello = byte(0x01)
	// MsgExec executes one sqlish statement: payload is the statement text.
	MsgExec = byte(0x02)
	// MsgPing checks liveness (and keeps a pooled connection warm).
	MsgPing = byte(0x03)
	// MsgExecBatch executes statements in order in one request (version 3):
	// payload is a uvarint count followed by that many AppendString
	// statements (see AppendExecBatch).
	MsgExecBatch = byte(0x04)

	// MsgHelloOK accepts a handshake: payload is the version byte the
	// connection will speak.
	MsgHelloOK = byte(0x81)
	// MsgResult carries an encoded sqlish.Result (see EncodeResult).
	MsgResult = byte(0x82)
	// MsgError carries a one-byte error code followed by the error string
	// (see ErrorPayload). The connection remains usable: statement errors do
	// not poison the session.
	MsgError = byte(0x83)
	// MsgPong answers MsgPing.
	MsgPong = byte(0x84)
)

// Error codes: the first byte of a MsgError payload. They tell the client
// what a retry is worth without it having to parse error strings.
const (
	// CodeGeneric is a statement error (parse error, conflict, constraint):
	// retrying the same statement would fail the same way.
	CodeGeneric = byte(0)
	// CodeDegraded reports the server's engine is read-only-degraded after an
	// I/O failure. Not retryable anywhere: writes fail until an operator
	// restarts the server (reads still work).
	CodeDegraded = byte(1)
	// CodeRetryable is a transient server condition — a graceful shutdown
	// drain. The statement may succeed on another connection or after a
	// backoff.
	CodeRetryable = byte(2)

	// Codes 3 (CodeReadOnlyReplica) and 4 (CodeBeyondHorizon) live in
	// repl.go with the replication protocol.

	// CodeOverloaded reports the server shed the request — an admission-gate
	// quota or concurrency shed, or a refused connection over the cap.
	// Retryable, and the message may carry a retry-after hint (see
	// OverloadMsg) telling the client when a retry is worth sending.
	CodeOverloaded = byte(5)
)

// Magic opens every MsgHello payload.
const Magic = "immw"

// Version is the protocol version this package speaks. Version 2 added the
// error-code byte leading every MsgError payload; version 3 added
// MsgExecBatch.
const Version = byte(3)

// MinVersion is the oldest client version a server still serves: a version 2
// client sends no MsgExecBatch and reads every other frame as before.
const MinVersion = byte(2)

// MaxFrame bounds a frame's length field — oversized frames indicate a
// corrupt or hostile peer and kill the connection before any allocation.
const MaxFrame = 16 << 20

// Errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	ErrBadHandshake  = errors.New("wire: bad handshake")
)

// WriteFrame writes one frame. The payload may be nil.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return ErrFrameTooLarge
	}
	hdr := make([]byte, 5, 5+len(payload))
	binary.BigEndian.PutUint32(hdr, uint32(len(payload)+1))
	hdr[4] = typ
	_, err := w.Write(append(hdr, payload...))
	return err
}

// ReadFrame reads one frame, rejecting empty and oversized ones.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n == 0 {
		return 0, nil, errors.New("wire: empty frame")
	}
	if n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	typ = hdr[4]
	if n == 1 {
		return typ, nil, nil
	}
	payload = make([]byte, n-1)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}

// HelloPayload builds the MsgHello payload.
func HelloPayload() []byte {
	return append([]byte(Magic), Version)
}

// CheckHello validates a MsgHello payload and returns the peer's version,
// which lies in [MinVersion, Version].
func CheckHello(payload []byte) (byte, error) {
	if len(payload) != len(Magic)+1 || string(payload[:len(Magic)]) != Magic {
		return 0, ErrBadHandshake
	}
	v := payload[len(Magic)]
	if v < MinVersion || v > Version {
		return v, fmt.Errorf("%w: version %d, want %d to %d", ErrBadHandshake, v, MinVersion, Version)
	}
	return v, nil
}

// AppendExecBatch appends a MsgExecBatch payload: the statement count, then
// each statement as AppendString writes it.
func AppendExecBatch(b []byte, stmts ...string) []byte {
	b = binary.AppendUvarint(b, uint64(len(stmts)))
	for _, s := range stmts {
		b = AppendString(b, s)
	}
	return b
}

var errBadBatch = errors.New("wire: malformed exec batch")

// ParseExecBatch decodes a MsgExecBatch payload. It accepts exactly what
// AppendExecBatch writes for one or more statements: the count is checked
// against the payload length before anything is allocated (every statement
// takes at least its one-byte length prefix), varints must be minimal and
// no byte may trail the last statement, so the encoding is canonical.
func ParseExecBatch(payload []byte) ([]string, error) {
	n, rest, err := readMinimalUvarint(payload)
	if err != nil || n == 0 || n > uint64(len(rest)) {
		return nil, errBadBatch
	}
	stmts := make([]string, n)
	for i := range stmts {
		var l uint64
		if l, rest, err = readMinimalUvarint(rest); err != nil || l > uint64(len(rest)) {
			return nil, errBadBatch
		}
		stmts[i], rest = string(rest[:l]), rest[l:]
	}
	if len(rest) != 0 {
		return nil, errBadBatch
	}
	return stmts, nil
}

// readMinimalUvarint is ReadUvarint that also rejects a value written in
// more bytes than its shortest encoding.
func readMinimalUvarint(b []byte) (uint64, []byte, error) {
	n, sz := binary.Uvarint(b)
	var shortest [binary.MaxVarintLen64]byte
	if sz <= 0 || sz != binary.PutUvarint(shortest[:], n) {
		return 0, nil, errBadBatch
	}
	return n, b[sz:], nil
}

// ErrorPayload builds a MsgError payload: code byte, then the message.
func ErrorPayload(code byte, msg string) []byte {
	return append([]byte{code}, msg...)
}

// ParseError splits a MsgError payload. An empty payload — which a v1 peer
// could produce for an empty error string — reads as a generic error.
func ParseError(payload []byte) (code byte, msg string) {
	if len(payload) == 0 {
		return CodeGeneric, "unknown server error"
	}
	return payload[0], string(payload[1:])
}

// redirectMarker separates a CodeReadOnlyReplica error message from the
// primary address appended after it. The unit separator cannot appear in an
// engine error string, so the split is unambiguous.
const redirectMarker = "\x1f"

// RedirectMsg appends the current primary's address to a read-only-replica
// error message, so the refusal doubles as a redirect: the client re-resolves
// to the named primary and retries there. An empty address is a refusal with
// no forwarding information (the replica does not know its primary yet).
func RedirectMsg(msg, primary string) string {
	if primary == "" {
		return msg
	}
	return msg + redirectMarker + primary
}

// ParseRedirect splits a CodeReadOnlyReplica error message into the bare
// message and the primary address RedirectMsg embedded, if any.
func ParseRedirect(msg string) (clean, primary string) {
	if i := strings.LastIndex(msg, redirectMarker); i >= 0 {
		return msg[:i], msg[i+len(redirectMarker):]
	}
	return msg, ""
}

// overloadMarker separates a CodeOverloaded error message from the
// retry-after hint appended after it. Like redirectMarker, a C0 control
// character cannot appear in an engine error string, so the split is
// unambiguous; a distinct separator keeps the two encodings from ever
// shadowing each other.
const overloadMarker = "\x1e"

// OverloadMsg appends a retry-after hint to a CodeOverloaded error message.
// The hint is encoded as decimal milliseconds (rounded up to at least 1ms so
// a positive hint survives the trip); a non-positive hint leaves the message
// bare, which clients read as "back off on your own schedule".
func OverloadMsg(msg string, retryAfter time.Duration) string {
	if retryAfter <= 0 {
		return msg
	}
	ms := (retryAfter + time.Millisecond - 1) / time.Millisecond
	return msg + overloadMarker + strconv.FormatInt(int64(ms), 10)
}

// ParseOverload splits a CodeOverloaded error message into the bare message
// and the retry-after hint OverloadMsg embedded, if any. A missing or
// malformed hint parses as zero (no hint).
func ParseOverload(msg string) (clean string, retryAfter time.Duration) {
	i := strings.LastIndex(msg, overloadMarker)
	if i < 0 {
		return msg, 0
	}
	ms, err := strconv.ParseInt(msg[i+len(overloadMarker):], 10, 64)
	if err != nil || ms < 0 {
		return msg, 0
	}
	return msg[:i], time.Duration(ms) * time.Millisecond
}

// AppendString appends a uvarint-length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// ReadString consumes a uvarint-length-prefixed string.
func ReadString(b []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return "", nil, errors.New("wire: truncated string")
	}
	return string(b[sz : sz+int(n)]), b[sz+int(n):], nil
}

// ReadUvarint consumes one uvarint.
func ReadUvarint(b []byte) (uint64, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return 0, nil, errors.New("wire: truncated uvarint")
	}
	return n, b[sz:], nil
}
