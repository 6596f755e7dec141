// Package itime implements Immortal DB's notion of time: transaction IDs,
// the 12-byte timestamp (an 8-byte wall-clock value with 20 ms resolution
// extended by a 4-byte sequence number), clocks, and the commit-time
// sequencer that hands out timestamps consistent with serialization order.
//
// The representation follows Section 2.1 of the paper: SQL Server's
// date/time has 20 ms resolution, which cannot give every transaction a
// unique time, so the timestamp is extended with a sequence number that
// distinguishes up to 2^32 transactions within a single 20 ms tick.
package itime

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TID identifies a transaction. TIDs are assigned in ascending order, which
// keeps recent entries clustered at the tail of the Persistent Timestamp
// Table (Section 2.2).
type TID uint64

// TickDuration is the resolution of the wall-clock component of a timestamp,
// mirroring SQL Server's 20 ms date/time resolution.
const TickDuration = 20 * time.Millisecond

// EncodedLen is the on-disk size of a Timestamp: 8 bytes of wall time plus a
// 4 byte sequence number (the Ttime and SN fields of Figure 1b).
const EncodedLen = 12

// Timestamp is a transaction timestamp: Wall counts TickDuration units since
// the Unix epoch; Seq orders transactions that commit within the same tick.
// The zero Timestamp is "no time" and orders before every real timestamp.
type Timestamp struct {
	Wall int64
	Seq  uint32
}

// Max is the largest representable timestamp; it is used as the open end
// time of current pages and current record versions.
var Max = Timestamp{Wall: 1<<63 - 1, Seq: 1<<32 - 1}

// FromTime converts a wall-clock time to a Timestamp with sequence number 0.
func FromTime(t time.Time) Timestamp {
	return Timestamp{Wall: t.UnixNano() / int64(TickDuration)}
}

// Time converts the wall component back to a time.Time. The sequence number
// carries no wall-clock information and is discarded.
func (ts Timestamp) Time() time.Time {
	return time.Unix(0, ts.Wall*int64(TickDuration)).UTC()
}

// IsZero reports whether ts is the zero ("no time") timestamp.
func (ts Timestamp) IsZero() bool { return ts.Wall == 0 && ts.Seq == 0 }

// IsMax reports whether ts is the open-ended maximum timestamp.
func (ts Timestamp) IsMax() bool { return ts == Max }

// Compare returns -1, 0, or +1 as ts sorts before, equal to, or after o.
// Ordering is lexicographic on (Wall, Seq), which agrees with commit order.
func (ts Timestamp) Compare(o Timestamp) int {
	switch {
	case ts.Wall < o.Wall:
		return -1
	case ts.Wall > o.Wall:
		return 1
	case ts.Seq < o.Seq:
		return -1
	case ts.Seq > o.Seq:
		return 1
	default:
		return 0
	}
}

// Less reports whether ts orders strictly before o.
func (ts Timestamp) Less(o Timestamp) bool { return ts.Compare(o) < 0 }

// After reports whether ts orders strictly after o.
func (ts Timestamp) After(o Timestamp) bool { return ts.Compare(o) > 0 }

// Next returns the smallest timestamp strictly greater than ts.
func (ts Timestamp) Next() Timestamp {
	if ts.Seq == 1<<32-1 {
		return Timestamp{Wall: ts.Wall + 1, Seq: 0}
	}
	return Timestamp{Wall: ts.Wall, Seq: ts.Seq + 1}
}

// String renders the timestamp as an RFC 3339 time plus the sequence number,
// e.g. "2004-08-12T10:15:20.000Z#3".
func (ts Timestamp) String() string {
	if ts.IsZero() {
		return "<zero>"
	}
	if ts.IsMax() {
		return "<max>"
	}
	return fmt.Sprintf("%s#%d", ts.Time().Format("2006-01-02T15:04:05.000Z"), ts.Seq)
}

// Encode writes the 12-byte big-endian representation into b. Big-endian
// encoding makes byte order agree with time order, so encoded timestamps can
// be compared with bytes.Compare.
func (ts Timestamp) Encode(b []byte) {
	_ = b[EncodedLen-1]
	binary.BigEndian.PutUint64(b[0:8], uint64(ts.Wall))
	binary.BigEndian.PutUint32(b[8:12], ts.Seq)
}

// AppendEncode appends the 12-byte representation to b.
func (ts Timestamp) AppendEncode(b []byte) []byte {
	var tmp [EncodedLen]byte
	ts.Encode(tmp[:])
	return append(b, tmp[:]...)
}

// DecodeTimestamp reads a Timestamp previously written by Encode.
func DecodeTimestamp(b []byte) Timestamp {
	_ = b[EncodedLen-1]
	return Timestamp{
		Wall: int64(binary.BigEndian.Uint64(b[0:8])),
		Seq:  binary.BigEndian.Uint32(b[8:12]),
	}
}

// asOfLayouts are the time layouts accepted by ParseAsOf, including the
// paper's US-style example ("8/12/2004 10:15:20").
var asOfLayouts = []string{
	"2006-01-02T15:04:05.999999999Z07:00",
	"2006-01-02T15:04:05",
	"2006-01-02 15:04:05.999",
	"2006-01-02 15:04:05",
	"2006-01-02",
	"1/2/2006 15:04:05",
	"1/2/2006",
}

// ParseAsOf parses a user-supplied AS OF time string into a Timestamp whose
// sequence number is the maximum, so that an AS OF query at clock time t sees
// every transaction that committed during tick t.
func ParseAsOf(s string) (Timestamp, error) {
	s = strings.TrimSpace(s)
	for _, layout := range asOfLayouts {
		if t, err := time.ParseInLocation(layout, s, time.UTC); err == nil {
			ts := FromTime(t)
			ts.Seq = 1<<32 - 1
			return ts, nil
		}
	}
	return Timestamp{}, fmt.Errorf("itime: cannot parse AS OF time %q", s)
}

// Sequencer hands out commit timestamps that are strictly increasing and
// therefore consistent with commit (serialization) order, as Section 2.1
// requires. Within one wall tick it increments the sequence number; when the
// clock has moved on it resets the sequence number to zero.
type Sequencer struct {
	mu    sync.Mutex
	clock Timeline
	last  Timestamp
}

// NewSequencer returns a Sequencer drawing wall ticks from clock.
func NewSequencer(clock Timeline) *Sequencer {
	return &Sequencer{clock: clock}
}

// Next returns the next commit timestamp. It is safe for concurrent use; the
// caller serializes commits, and the returned timestamps strictly increase in
// the order Next returns them.
func (s *Sequencer) Next() Timestamp {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.clock.NowTick()
	if w > s.last.Wall {
		s.last = Timestamp{Wall: w}
	} else {
		// Same (or, defensively, earlier) tick: extend with the sequence
		// number. 2^32 transactions per 20 ms exceeds any real system.
		s.last = s.last.Next()
	}
	return s.last
}

// Last returns the most recently issued timestamp, or the zero timestamp if
// none has been issued. It is the snapshot point for new snapshot-isolation
// transactions: everything committed so far is visible at Last.
func (s *Sequencer) Last() Timestamp {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// Reset restores the sequencer's high-water mark, used after recovery so
// post-crash commits never reuse or precede a pre-crash timestamp.
func (s *Sequencer) Reset(last Timestamp) {
	s.mu.Lock()
	if last.After(s.last) {
		s.last = last
	}
	s.mu.Unlock()
}

// TIDSource allocates ascending transaction IDs.
type TIDSource struct {
	next atomic.Uint64
}

// NewTIDSource returns a source whose first TID is first (or 1 if first is 0).
func NewTIDSource(first TID) *TIDSource {
	s := &TIDSource{}
	if first == 0 {
		first = 1
	}
	s.next.Store(uint64(first))
	return s
}

// Next returns the next TID.
func (s *TIDSource) Next() TID { return TID(s.next.Add(1) - 1) }

// Peek returns the TID that the next call to Next will return.
func (s *TIDSource) Peek() TID { return TID(s.next.Load()) }

// Bump raises the allocator so that the next TID is strictly greater than
// seen; recovery uses it to skip past every TID found in the log.
func (s *TIDSource) Bump(seen TID) {
	for {
		cur := s.next.Load()
		if cur > uint64(seen) {
			return
		}
		if s.next.CompareAndSwap(cur, uint64(seen)+1) {
			return
		}
	}
}
