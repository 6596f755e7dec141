// Package repl is the replication layer: WAL segment shipping from a
// primary to read replicas over the wire protocol, and the follower loop
// that ingests the stream, runs continuous redo, and serves AS OF reads at
// the replication horizon.
//
// The transport is the query protocol's frame format, pull-based and
// strictly request/response: a follower opens with MsgReplHello carrying
// the LSN it wants to resume from (the end of its local log copy), then
// drives the transfer with MsgReplPull requests. The primary answers each
// pull with one MsgSegChunk — a checksummed span of its durable log — or,
// while the follower is being re-seeded from a base snapshot, one
// MsgBasePart. A pull's applied-LSN field doubles as the horizon
// acknowledgement feeding the primary's lag gauge, so no unsolicited frames
// ever flow and the protocol runs unchanged over the simulated network.
//
// Because the follower's log is a byte-identical prefix of the primary's
// (wal.IngestChunk), every failure mode reduces to something the engine
// already handles: a follower crash is ordinary crash recovery, a dropped
// connection resumes by pulling from the local log's end, and a follower
// that fell behind the primary's retained history is re-seeded from a fuzzy
// base snapshot made consistent by the log suffix.
package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"immortaldb"
	"immortaldb/internal/obs"
	"immortaldb/internal/wal"
	"immortaldb/internal/wire"
)

// Observability: shipped volume and base snapshots. Connected followers and
// the worst follower's lag are per shipper (Stats).
var (
	obsShippedBytes  = obs.NewCounter("immortald_repl_shipped_bytes_total", "Log bytes shipped to followers in segment chunks.")
	obsBaseSnapshots = obs.NewCounter("immortald_repl_base_snapshots_total", "Base snapshots streamed to re-seed followers that fell behind retained history.")
)

// basePartTarget is the byte budget one base-snapshot part aims for; a pull
// whose Max is smaller wins. One part must still always carry at least one
// page, or a page larger than the budget would stall the transfer.
const basePartTarget = 128 << 10

// basePTTBatch caps timestamp-table entries per BasePTT part.
const basePTTBatch = 4096

// Shipper serves a primary's log to followers. One Shipper per served
// database; it tracks each connection's acked horizon for the lag gauge.
// The zero value is not usable — construct with NewShipper.
type Shipper struct {
	db *immortaldb.DB

	mu     sync.Mutex
	nextID uint64
	acked  map[uint64]uint64
}

// NewShipper returns a shipper over db.
func NewShipper(db *immortaldb.DB) *Shipper {
	return &Shipper{db: db, acked: make(map[uint64]uint64)}
}

// ConnOpts carries the hosting server's serving parameters into one
// replication connection.
type ConnOpts struct {
	// Now reads the server's clock (virtual in simulation).
	Now func() time.Time
	// IdleTimeout bounds the wait for the next pull; followers poll well
	// inside it even when fully caught up.
	IdleTimeout time.Duration
	// RequestTimeout bounds one response write.
	RequestTimeout time.Duration
	// Draining, when it reports true, makes the connection hang up cleanly
	// at the next pull boundary (the follower reconnects elsewhere/later).
	Draining func() bool
}

// Stats reports the number of connected followers and the largest lag in
// bytes (primary durable end minus the smallest acked applied LSN).
func (s *Shipper) Stats() (followers int, maxLag uint64) {
	flushed := uint64(s.db.Log().FlushedLSN())
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.acked {
		if lag := flushed - a; a < flushed && lag > maxLag {
			maxLag = lag
		}
	}
	return len(s.acked), maxLag
}

// register adds a connection to the ack table.
func (s *Shipper) register() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := s.nextID
	s.acked[id] = 0
	return id
}

func (s *Shipper) unregister(id uint64) {
	s.mu.Lock()
	delete(s.acked, id)
	s.mu.Unlock()
}

// ack records a follower's applied LSN.
func (s *Shipper) ack(id, applied uint64) {
	s.mu.Lock()
	// A reconnecting follower can briefly ack an older LSN than a previous
	// connection did; keep the gauge monotone per connection only.
	if applied > s.acked[id] {
		s.acked[id] = applied
	}
	s.mu.Unlock()
}

// ServeConn runs one replication connection to completion: the follower's
// MsgReplHello payload has already been read by the hosting server's
// handshake dispatch. Returns nil on a clean hangup (EOF, drain).
func (s *Shipper) ServeConn(nc net.Conn, br *bufio.Reader, helloPayload []byte, opt ConnOpts) error {
	hello, err := wire.ParseReplHello(helloPayload)
	if err != nil {
		writeReplError(nc, wire.CodeGeneric, err)
		return err
	}
	from := hello.From
	if from < uint64(wal.FirstLSN) {
		from = uint64(wal.FirstLSN) // 0 = "from the beginning"
	}
	log := s.db.Log()

	ok := wire.ReplHelloOK{
		Start:         from,
		FirstRetained: uint64(log.FirstRetained()),
		Flushed:       uint64(log.FlushedLSN()),
		Epoch:         s.db.Epoch(),
	}
	var base *baseSender
	if from < ok.FirstRetained {
		// The follower's position predates retained history: seed it with a
		// base snapshot plus the log suffix from the snapshot's start.
		snap, err := s.db.NewBaseSnapshot()
		if err != nil {
			writeReplError(nc, wire.CodeGeneric, err)
			return err
		}
		obsBaseSnapshots.Inc()
		base = &baseSender{snap: snap, nextPage: snap.FirstPage()}
		ok.Flags = wire.ReplFlagBase
		ok.Start = snap.LogStart
		ok.FirstRetained = snap.LogStart
		ok.Flushed = uint64(log.FlushedLSN())
	}
	defer func() {
		if base != nil {
			base.snap.Close()
		}
	}()

	id := s.register()
	defer s.unregister(id)

	nc.SetWriteDeadline(opt.Now().Add(opt.RequestTimeout))
	if err := wire.WriteFrame(nc, wire.MsgReplHelloOK, wire.AppendReplHelloOK(nil, ok)); err != nil {
		return err
	}

	for {
		if opt.Draining() {
			return nil
		}
		nc.SetReadDeadline(opt.Now().Add(opt.IdleTimeout))
		typ, payload, err := wire.ReadFrame(br)
		if err != nil {
			if opt.Draining() {
				return nil // drain poke woke the idle read
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err // EOF on follower hangup lands here; callers treat io.EOF as clean
		}
		if typ != wire.MsgReplPull {
			err := fmt.Errorf("repl: unexpected frame %#x on replication connection", typ)
			writeReplError(nc, wire.CodeGeneric, err)
			return err
		}
		pull, err := wire.ParseReplPull(payload)
		if err != nil {
			writeReplError(nc, wire.CodeGeneric, err)
			return err
		}
		s.ack(id, pull.Applied)
		nc.SetWriteDeadline(opt.Now().Add(opt.RequestTimeout))

		if base != nil && !base.done() {
			part, err := base.next(pull.Max)
			if err != nil {
				writeReplError(nc, wire.CodeGeneric, err)
				return err
			}
			if err := wire.WriteFrame(nc, wire.MsgBasePart, part); err != nil {
				return err
			}
			continue
		}
		if base != nil && pull.From > base.snap.CkptLSN {
			// The follower has ingested past the snapshot's checkpoint record,
			// so its install can finish even if this connection dies; release
			// the truncation pin.
			base.snap.Close()
			base = nil
		}

		maxBytes := int(pull.Max)
		if maxBytes <= 0 {
			maxBytes = basePartTarget
		}
		ch, err := log.ShipRead(wal.LSN(pull.From), maxBytes)
		if err != nil {
			if errors.Is(err, wal.ErrShipGap) {
				// The pulled position fell out of retained history mid-stream
				// (a checkpoint truncated past it). The follower reconnects
				// and its new hello is answered with a base snapshot.
				writeReplError(nc, wire.CodeRetryable, err)
				return nil
			}
			writeReplError(nc, wire.CodeGeneric, err)
			return err
		}
		if obs.Enabled() && len(ch.Data) > 0 {
			obsShippedBytes.Add(uint64(len(ch.Data)))
		}
		frame := wire.AppendSegChunk(nil, wire.SegChunk{
			Seq:      ch.Seq,
			SegStart: uint64(ch.SegStart),
			At:       uint64(ch.At),
			Data:     ch.Data,
		})
		if err := wire.WriteFrame(nc, wire.MsgSegChunk, frame); err != nil {
			return err
		}
	}
}

// writeReplError best-effort sends an error frame.
func writeReplError(nc net.Conn, code byte, err error) {
	wire.WriteFrame(nc, wire.MsgError, wire.ErrorPayload(code, err.Error()))
}

// baseSender streams a base snapshot one part per pull: meta, then page
// batches, then timestamp-table batches, then the done marker carrying the
// log stream's start LSN.
type baseSender struct {
	snap     *immortaldb.BaseSnapshot
	stage    int // 0 meta, 1 pages, 2 ptt, 3 done, 4 finished
	nextPage uint64
	nextPTT  int
}

func (b *baseSender) done() bool { return b.stage > 3 }

func (b *baseSender) next(budget uint32) ([]byte, error) {
	target := int(budget)
	if target <= 0 || target > basePartTarget {
		target = basePartTarget
	}
	switch b.stage {
	case 0:
		b.stage = 1
		return wire.AppendBaseMeta(nil, wire.BaseMetaPart{
			PageSize: uint32(b.snap.PageSize),
			NumPages: b.snap.NumPages,
			CkptLSN:  b.snap.CkptLSN,
			Meta:     b.snap.Meta,
		}), nil
	case 1:
		var pages []wire.BasePage
		size := 0
		for b.nextPage < b.snap.NumPages && (size < target || len(pages) == 0) {
			img, err := b.snap.Page(b.nextPage)
			if err != nil {
				return nil, err
			}
			pages = append(pages, wire.BasePage{ID: b.nextPage, Img: img})
			size += len(img)
			b.nextPage++
		}
		if b.nextPage >= b.snap.NumPages {
			b.stage = 2
		}
		if len(pages) == 0 {
			return b.next(budget) // no data pages at all; fall through to PTT
		}
		return wire.AppendBasePages(nil, pages), nil
	case 2:
		var entries []wire.BasePTTEntry
		for b.nextPTT < len(b.snap.PTT) && len(entries) < basePTTBatch {
			e := b.snap.PTT[b.nextPTT]
			we := wire.BasePTTEntry{TID: uint64(e.TID)}
			e.TS.Encode(we.TS[:])
			entries = append(entries, we)
			b.nextPTT++
		}
		if b.nextPTT >= len(b.snap.PTT) {
			b.stage = 3
		}
		if len(entries) == 0 {
			return b.next(budget)
		}
		return wire.AppendBasePTT(nil, entries), nil
	case 3:
		b.stage = 4
		return wire.AppendBaseDone(nil, b.snap.LogStart), nil
	}
	return nil, errors.New("repl: base snapshot already fully sent")
}
