package repl

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"immortaldb"
	"immortaldb/internal/itime"
	"immortaldb/internal/wal"
	"immortaldb/internal/wire"
)

// ReplError is an error frame the primary answered a replication request
// with, classified by its wire code.
type ReplError struct {
	Code byte
	Msg  string
}

func (e *ReplError) Error() string { return "repl: primary: " + e.Msg }

// Retryable reports a transient condition (a retention gap, a drain): the
// follower reconnects and the new handshake sorts it out.
func (e *ReplError) Retryable() bool { return e.Code == wire.CodeRetryable }

// Terminal session errors: Run stops retrying when one of these surfaces,
// because reconnecting to the same upstream can never fix them.
var (
	// ErrPromoted: this follower's engine was promoted to primary; the
	// replication loop is permanently done.
	ErrPromoted = errors.New("repl: follower promoted to primary")
	// ErrStaleUpstream: the upstream's promotion epoch is behind what this
	// follower has already replicated — it is a deposed (zombie) primary and
	// nothing it ships can be trusted.
	ErrStaleUpstream = errors.New("repl: upstream epoch behind local epoch, refusing deposed primary")
	// ErrDiverged: the local log extends past the upstream's durable end, so
	// the byte-prefix invariant is broken (e.g. retargeted at a primary that
	// was promoted from a less-caught-up position). The replica must be
	// re-seeded.
	ErrDiverged = errors.New("repl: local log ahead of upstream durable end, reseed required")
)

// Config tunes a Follower. Dir and Addr are required.
type Config struct {
	// Dir is the local replica directory: the byte-identical log copy, page
	// file and timestamp table live here.
	Dir string
	// Addr is the primary's address.
	Addr string
	// DBOptions configure the local replica engine. The FS, page size and
	// clock should match the primary's. RetainWAL makes the follower keep
	// its full log copy, turning it into a RestoreAsOf source.
	DBOptions *immortaldb.Options
	// Dialer overrides how the primary is reached (default: TCP). The
	// simulation harness injects its in-memory network here.
	Dialer func(ctx context.Context, addr string) (net.Conn, error)
	// Timeline supplies the clock for deadlines, polling and backoff
	// (default: the real clock).
	Timeline itime.Timeline
	// PollInterval is how long a caught-up follower sleeps between pulls
	// (default 100ms).
	PollInterval time.Duration
	// MaxPull is the per-pull response byte budget (default 256 KiB).
	MaxPull uint32
	// OpTimeout bounds one request/response round trip (default 30s).
	OpTimeout time.Duration
	// DialTimeout bounds one dial attempt (default 5s).
	DialTimeout time.Duration
	// RetryBackoff is the reconnect delay after a failed session; it doubles
	// per consecutive failure, capped at 16x (default 200ms).
	RetryBackoff time.Duration
	// Logf, when set, receives follower diagnostics.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Timeline == nil {
		c.Timeline = itime.Real()
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 100 * time.Millisecond
	}
	if c.MaxPull == 0 {
		c.MaxPull = 256 << 10
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 30 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 200 * time.Millisecond
	}
	return c
}

// Follower replicates one primary into one local directory and keeps the
// local replica engine's horizon advancing. Sync performs one catch-up pass
// (opening — or re-seeding — the local database as needed); Run streams
// continuously with reconnect-and-backoff. The replica engine behind DB()
// serves reads the whole time, except across a base re-seed, which replaces
// the database wholesale.
type Follower struct {
	cfg Config

	mu     sync.Mutex
	db     *immortaldb.DB
	closed bool

	// ingestMu serializes log ingestion against Promote and Retarget, so a
	// seal or trim never races a chunk landing in the local log.
	ingestMu sync.Mutex

	promoted atomic.Bool

	ingested atomic.Uint64
	resyncs  atomic.Uint64

	// lastFlushed is the primary's durable end as last observed (handshake,
	// or local ingested end when a caught-up pull confirms parity); LagBytes
	// measures the horizon against it.
	lastFlushed atomic.Uint64
}

// NewFollower returns a follower; no I/O happens until Sync or Run.
func NewFollower(cfg Config) *Follower {
	return &Follower{cfg: cfg.withDefaults()}
}

// DB returns the local replica engine, nil before the first successful
// open. The pointer is replaced — and the old engine closed — when a base
// re-seed rebuilds the directory; callers serving reads should re-fetch it
// after ErrClosed.
func (f *Follower) DB() *immortaldb.DB {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.db
}

// Horizon returns the replica's replication horizon (zero before open).
func (f *Follower) Horizon() immortaldb.ReplicaHorizon {
	if db := f.DB(); db != nil {
		return db.Horizon()
	}
	return immortaldb.ReplicaHorizon{}
}

// Stats reports total bytes ingested and base re-seeds performed.
func (f *Follower) Stats() (ingestedBytes, baseResyncs uint64) {
	return f.ingested.Load(), f.resyncs.Load()
}

// LagBytes estimates how far the replica's applied horizon trails the
// primary's durable log end, in bytes: the distance to the durable end as of
// the last handshake, or zero once a caught-up pull confirmed parity.
func (f *Follower) LagBytes() uint64 {
	applied := f.Horizon().AppliedLSN
	if flushed := f.lastFlushed.Load(); flushed > applied {
		return flushed - applied
	}
	return 0
}

// Dir returns the local replica directory.
func (f *Follower) Dir() string { return f.cfg.Dir }

// Addr returns the upstream primary address currently targeted.
func (f *Follower) Addr() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cfg.Addr
}

// Close stops serving and closes the local database. Concurrent Sync/Run
// calls fail on their next step.
func (f *Follower) Close() error {
	f.mu.Lock()
	db := f.db
	f.db = nil
	f.closed = true
	f.mu.Unlock()
	if db != nil {
		return db.Close()
	}
	return nil
}

func (f *Follower) setDB(db *immortaldb.DB) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errors.New("repl: follower closed")
	}
	f.db = db
	return nil
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// Sync performs one synchronization pass: connect, re-seed from a base
// snapshot if the primary says the local position fell behind retained
// history, then ingest and apply until caught up with the primary's durable
// log end. On return DB() is non-nil and the horizon covers everything the
// primary had flushed when the catch-up chunk drained.
func (f *Follower) Sync(ctx context.Context) error {
	return f.session(ctx, true)
}

// Run streams continuously until ctx is done: sessions that fail (network
// fault, primary restart, retention gap) are retried with exponential
// backoff, re-seeding when required. Returns ctx.Err() on cancellation, or a
// terminal error (ErrPromoted, ErrStaleUpstream, ErrDiverged) that retrying
// cannot fix.
func (f *Follower) Run(ctx context.Context) error {
	failures := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := f.session(ctx, false)
		if err == nil || errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
			failures = 0 // clean hangup (primary drain); reconnect promptly
		} else {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			if errors.Is(err, ErrPromoted) || errors.Is(err, ErrStaleUpstream) || errors.Is(err, ErrDiverged) {
				return err
			}
			failures++
			f.logf("repl: session error (attempt %d): %v", failures, err)
		}
		backoff := f.cfg.RetryBackoff << min(failures, 4)
		if err := f.cfg.Timeline.Sleep(ctx, backoff); err != nil {
			return err
		}
	}
}

// Promote turns the follower's engine into a read-write primary: finishes
// redo over everything ingested, seals the local log at the applied
// boundary, and fences the deposed primary's TID/LSN space under a bumped
// epoch logged in a promotion record. The replication loop (Run) terminates
// with ErrPromoted at its next step; the engine behind DB() keeps serving
// throughout and accepts writes once this returns. Returns the new epoch.
func (f *Follower) Promote() (uint64, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return 0, errors.New("repl: follower closed")
	}
	db := f.db
	f.mu.Unlock()
	if db == nil {
		return 0, errors.New("repl: no local database to promote")
	}
	f.ingestMu.Lock()
	defer f.ingestMu.Unlock()
	f.promoted.Store(true) // fence the pull loop before the seal
	epoch, err := db.Promote()
	if err != nil && !errors.Is(err, immortaldb.ErrNotReplica) {
		f.promoted.Store(false) // promotion did not happen; keep replicating
	}
	return epoch, err
}

// Retarget re-points the follower at a new primary after a promotion
// elsewhere. The local log is trimmed back to the applied horizon so the
// next session resumes from a position the new primary's log is guaranteed
// to share: complete-record boundaries are byte-identical across replicas of
// the same stream, and a correctly chosen promotion candidate (the most
// caught-up follower) sealed at or past every peer's applied position. The
// current session, if any, ends on its next pull (connection addressed at
// the old primary) and the retry dials the new address.
func (f *Follower) Retarget(addr string) error {
	f.ingestMu.Lock()
	defer f.ingestMu.Unlock()
	f.mu.Lock()
	f.cfg.Addr = addr
	db := f.db
	f.mu.Unlock()
	if db == nil {
		return nil
	}
	if _, err := db.ReplicaApply(0); err != nil {
		return err
	}
	_, err := db.Log().TrimIngestTail(wal.LSN(db.Horizon().AppliedLSN))
	return err
}

// session runs one connection: hello, optional base install, then the pull
// loop. With once set it returns nil at the first caught-up (empty) chunk.
func (f *Follower) session(ctx context.Context, once bool) error {
	if f.promoted.Load() {
		return ErrPromoted
	}
	db, err := f.openLocal()
	if err != nil {
		return err
	}

	nc, err := f.dial(ctx)
	if err != nil {
		return err
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	from := uint64(0)
	if db != nil {
		from = uint64(db.Log().End())
	}
	f.deadline(nc)
	if err := wire.WriteFrame(nc, wire.MsgReplHello, wire.AppendReplHello(nil, wire.ReplHello{From: from})); err != nil {
		return err
	}
	typ, payload, err := wire.ReadFrame(br)
	if err != nil {
		return err
	}
	if typ == wire.MsgError {
		code, msg := wire.ParseError(payload)
		return &ReplError{Code: code, Msg: msg}
	}
	if typ != wire.MsgReplHelloOK {
		return fmt.Errorf("repl: unexpected handshake response %#x", typ)
	}
	ok, err := wire.ParseReplHelloOK(payload)
	if err != nil {
		return err
	}
	if db != nil {
		if local := db.Epoch(); ok.Epoch < local {
			return fmt.Errorf("%w: upstream epoch %d, local %d", ErrStaleUpstream, ok.Epoch, local)
		}
		if ok.Flags&wire.ReplFlagBase == 0 && ok.Flushed < from {
			return fmt.Errorf("%w: local end %d, upstream durable end %d", ErrDiverged, from, ok.Flushed)
		}
	}
	f.lastFlushed.Store(ok.Flushed)

	if ok.Flags&wire.ReplFlagBase != 0 {
		// The primary cannot serve our position from its log: rebuild the
		// directory from a streamed base snapshot. The old engine (if any)
		// closes first — its files are about to be wiped.
		if db != nil {
			f.mu.Lock()
			f.db = nil
			f.mu.Unlock()
			if err := db.Close(); err != nil {
				return err
			}
			db = nil
		}
		f.resyncs.Add(1)
		if err := f.installBase(ctx, nc, br); err != nil {
			return err
		}
		if db, err = f.openLocal(); err != nil {
			return err
		}
		if db == nil {
			return errors.New("repl: follower closed during base install")
		}
	} else if db == nil {
		return errors.New("repl: no local database and primary did not offer a base snapshot")
	}

	if _, err := db.ReplicaApply(0); err != nil {
		return err
	}
	return f.pullLoop(ctx, nc, br, db, once)
}

// pullLoop drives steady-state streaming on an established session.
func (f *Follower) pullLoop(ctx context.Context, nc net.Conn, br *bufio.Reader, db *immortaldb.DB, once bool) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if f.promoted.Load() {
			return ErrPromoted
		}
		ch, err := f.pull(nc, br, db)
		if err != nil {
			return err
		}
		if len(ch.Data) == 0 {
			// Caught up with the primary's durable prefix.
			f.lastFlushed.Store(uint64(db.Log().End()))
			if once {
				return nil
			}
			if err := f.cfg.Timeline.Sleep(ctx, f.cfg.PollInterval); err != nil {
				return err
			}
			continue
		}
		if err := f.ingest(db, ch); err != nil {
			return err
		}
	}
}

// ingest lands one chunk in the local log and applies it, serialized against
// Promote and Retarget so a seal or trim never interleaves with new bytes.
func (f *Follower) ingest(db *immortaldb.DB, ch wire.SegChunk) error {
	f.ingestMu.Lock()
	defer f.ingestMu.Unlock()
	if f.promoted.Load() {
		return ErrPromoted
	}
	if err := db.Log().IngestChunk(wal.ShipChunk{
		Seq:      ch.Seq,
		SegStart: wal.LSN(ch.SegStart),
		At:       wal.LSN(ch.At),
		Data:     ch.Data,
	}); err != nil {
		return err
	}
	f.ingested.Add(uint64(len(ch.Data)))
	_, err := db.ReplicaApply(0)
	return err
}

// pull performs one MsgReplPull round trip.
func (f *Follower) pull(nc net.Conn, br *bufio.Reader, db *immortaldb.DB) (wire.SegChunk, error) {
	req := wire.ReplPull{Max: f.cfg.MaxPull}
	if db != nil {
		req.From = uint64(db.Log().End())
		req.Applied = db.Horizon().AppliedLSN
	}
	f.deadline(nc)
	if err := wire.WriteFrame(nc, wire.MsgReplPull, wire.AppendReplPull(nil, req)); err != nil {
		return wire.SegChunk{}, err
	}
	typ, payload, err := wire.ReadFrame(br)
	if err != nil {
		return wire.SegChunk{}, err
	}
	switch typ {
	case wire.MsgSegChunk:
		return wire.ParseSegChunk(payload)
	case wire.MsgError:
		code, msg := wire.ParseError(payload)
		return wire.SegChunk{}, &ReplError{Code: code, Msg: msg}
	default:
		return wire.SegChunk{}, fmt.Errorf("repl: unexpected pull response %#x", typ)
	}
}

// installBase receives a streamed base snapshot plus enough of the log
// suffix to cover its checkpoint record, leaving the directory ready for
// OpenReplica. The connection is mid-session: the primary answers each pull
// with base parts until BaseDone, then with segment chunks.
func (f *Follower) installBase(ctx context.Context, nc net.Conn, br *bufio.Reader) error {
	var bi *immortaldb.BaseInstaller
	var ckptLSN, start uint64
	abort := func(err error) error {
		if bi != nil {
			bi.Abort()
		}
		return err
	}

parts:
	for {
		if err := ctx.Err(); err != nil {
			return abort(err)
		}
		f.deadline(nc)
		req := wire.ReplPull{Max: f.cfg.MaxPull}
		if err := wire.WriteFrame(nc, wire.MsgReplPull, wire.AppendReplPull(nil, req)); err != nil {
			return abort(err)
		}
		typ, payload, err := wire.ReadFrame(br)
		if err != nil {
			return abort(err)
		}
		if typ == wire.MsgError {
			code, msg := wire.ParseError(payload)
			return abort(&ReplError{Code: code, Msg: msg})
		}
		if typ != wire.MsgBasePart {
			return abort(fmt.Errorf("repl: unexpected base response %#x", typ))
		}
		part, err := wire.ParseBasePart(payload)
		if err != nil {
			return abort(err)
		}
		switch part.Kind {
		case wire.BaseMeta:
			if bi != nil {
				return abort(errors.New("repl: duplicate base meta part"))
			}
			ckptLSN = part.Meta.CkptLSN
			bi, err = immortaldb.InstallBase(f.cfg.Dir, f.cfg.DBOptions, int(part.Meta.PageSize), part.Meta.NumPages, part.Meta.Meta)
			if err != nil {
				return err
			}
		case wire.BasePages:
			if bi == nil {
				return abort(errors.New("repl: base pages before meta"))
			}
			for _, pg := range part.Pages {
				if err := bi.WritePage(pg.ID, pg.Img); err != nil {
					return abort(err)
				}
			}
		case wire.BasePTT:
			if bi == nil {
				return abort(errors.New("repl: base PTT before meta"))
			}
			for _, e := range part.Entries {
				err := bi.PutPTT(immortaldb.PTTEntry{
					TID: immortaldb.TID(e.TID),
					TS:  itime.DecodeTimestamp(e.TS[:]),
				})
				if err != nil {
					return abort(err)
				}
			}
		case wire.BaseDone:
			if bi == nil {
				return abort(errors.New("repl: base done before meta"))
			}
			start = part.Start
			break parts
		default:
			return abort(fmt.Errorf("repl: unknown base part kind %d", part.Kind))
		}
	}

	// Ingest the log suffix until the snapshot's checkpoint record is
	// covered; the first chunk carries the segment coordinates the local log
	// copy is re-rooted at.
	for bi.End() <= ckptLSN {
		if err := ctx.Err(); err != nil {
			return abort(err)
		}
		f.deadline(nc)
		req := wire.ReplPull{From: bi.End(), Max: f.cfg.MaxPull}
		if req.From == 0 {
			req.From = start
		}
		if err := wire.WriteFrame(nc, wire.MsgReplPull, wire.AppendReplPull(nil, req)); err != nil {
			return abort(err)
		}
		typ, payload, err := wire.ReadFrame(br)
		if err != nil {
			return abort(err)
		}
		if typ == wire.MsgError {
			code, msg := wire.ParseError(payload)
			return abort(&ReplError{Code: code, Msg: msg})
		}
		if typ != wire.MsgSegChunk {
			return abort(fmt.Errorf("repl: unexpected suffix response %#x", typ))
		}
		ch, err := wire.ParseSegChunk(payload)
		if err != nil {
			return abort(err)
		}
		if len(ch.Data) == 0 {
			// The primary's flushed end always covers its own checkpoint
			// record, so running dry before ckptLSN is a protocol violation.
			return abort(fmt.Errorf("repl: log stream dry at %d, checkpoint record at %d not covered", bi.End(), ckptLSN))
		}
		if bi.End() == 0 {
			if ch.At != start {
				return abort(fmt.Errorf("repl: log stream starts at %d, want %d", ch.At, start))
			}
			if err := bi.StartLog(ch.Seq, ch.SegStart); err != nil {
				return abort(err)
			}
		}
		if err := bi.Ingest(wal.ShipChunk{
			Seq:      ch.Seq,
			SegStart: wal.LSN(ch.SegStart),
			At:       wal.LSN(ch.At),
			Data:     ch.Data,
		}); err != nil {
			return abort(err)
		}
		f.ingested.Add(uint64(len(ch.Data)))
	}
	return bi.Finish(ckptLSN)
}

// openLocal returns the current replica engine, opening (or creating) the
// local directory on first use. A directory left unusable by a crashed base
// install is wiped: the primary will re-seed it.
func (f *Follower) openLocal() (*immortaldb.DB, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, errors.New("repl: follower closed")
	}
	if f.db != nil {
		db := f.db
		f.mu.Unlock()
		return db, nil
	}
	f.mu.Unlock()

	db, err := immortaldb.OpenReplica(f.cfg.Dir, f.cfg.DBOptions)
	if err != nil {
		f.logf("repl: local open failed (%v); wiping %s for re-seed", err, f.cfg.Dir)
		if werr := immortaldb.WipeDir(f.cfg.Dir, f.cfg.DBOptions); werr != nil {
			return nil, fmt.Errorf("repl: wipe after failed open: %w (open error: %v)", werr, err)
		}
		return nil, nil // no local engine; hello with From=0 requests a seed
	}
	if err := f.setDB(db); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

func (f *Follower) dial(ctx context.Context) (net.Conn, error) {
	if f.cfg.Dialer != nil {
		dctx, cancel := context.WithTimeout(ctx, f.cfg.DialTimeout)
		defer cancel()
		return f.cfg.Dialer(dctx, f.cfg.Addr)
	}
	return (&net.Dialer{Timeout: f.cfg.DialTimeout}).DialContext(ctx, "tcp", f.cfg.Addr)
}

// deadline arms the per-round-trip I/O deadline on the follower's timeline.
func (f *Follower) deadline(nc net.Conn) {
	nc.SetDeadline(f.cfg.Timeline.Now().Add(f.cfg.OpTimeout))
}
