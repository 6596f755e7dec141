package immortaldb

// Engine-level promotion: a caught-up replica flips to a read-write primary
// behind a durable epoch fence, a deposed primary's in-flight commits are
// refused rather than acked, promoting twice is a typed no-op, and a
// promoted survivor honors the same isolation contract as a primary that
// never failed over.

import (
	"errors"
	"testing"
	"time"

	"immortaldb/internal/wal"
)

func promoteTestOpts(t *testing.T) *Options {
	return &Options{
		Clock:       pumpedClock(t),
		PageSize:    1024,
		CacheFrames: 16,
		LockTimeout: 500 * time.Millisecond,
	}
}

// buildReplica opens a primary with a few commits and a fully caught-up
// replica of it.
func buildReplica(t *testing.T) (p, r *DB, tbl *Table, ts1 Timestamp) {
	t.Helper()
	p, err := Open(t.TempDir(), promoteTestOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	tbl, err = p.CreateTable("acct", TableOptions{Immortal: true})
	if err != nil {
		t.Fatal(err)
	}
	ts1 = commitKV(t, p, tbl, "alice", "100")
	commitKV(t, p, tbl, "alice", "150")
	commitKV(t, p, tbl, "bob", "50")

	r, err = OpenReplica(t.TempDir(), promoteTestOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	shipAll(t, p, r)
	return p, r, tbl, ts1
}

func TestPromoteFlipsReplicaToPrimary(t *testing.T) {
	p, r, _, ts1 := buildReplica(t)
	fence := r.Horizon().AppliedLSN

	epoch, err := r.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if epoch != 1 {
		t.Fatalf("first promotion epoch = %d, want 1", epoch)
	}
	if r.IsReplica() {
		t.Fatal("promoted survivor still reports IsReplica")
	}
	if got := r.Epoch(); got != epoch {
		t.Fatalf("Epoch() = %d, want %d", got, epoch)
	}
	if got := r.Horizon().AppliedLSN; got < fence {
		t.Fatalf("fence regressed: applied %d < %d", got, fence)
	}

	// The sealed log refuses further shipped bytes — a late chunk from a
	// retired pull loop must not graft onto the new timeline.
	if ch, err := p.Log().ShipRead(0, 64); err == nil && len(ch.Data) > 0 {
		ch.At = r.Log().End()
		if err := r.Log().IngestChunk(ch); !errors.Is(err, wal.ErrSealed) {
			t.Fatalf("IngestChunk after promotion: %v, want wal.ErrSealed", err)
		}
	}

	// Writes work, replicated history is intact, AS OF still answers.
	rtbl, err := r.Table("acct")
	if err != nil {
		t.Fatal(err)
	}
	commitKV(t, r, rtbl, "alice", "175")
	wantState(t, r, rtbl, ts1, "promoted AS OF first commit", map[string]string{"alice": "100"})
	wantState(t, r, rtbl, r.Now(), "promoted current state",
		map[string]string{"alice": "175", "bob": "50"})

	// DDL works too: the survivor is a full primary.
	if _, err := r.CreateTable("post", TableOptions{}); err != nil {
		t.Fatalf("CreateTable after promotion: %v", err)
	}
}

func TestDoublePromotionRefused(t *testing.T) {
	_, r, _, _ := buildReplica(t)
	if _, err := r.Promote(); err != nil {
		t.Fatalf("first Promote: %v", err)
	}
	epoch := r.Epoch()
	// A supervisor retrying promotion must learn the node already serves
	// writes — a typed no-op, not a second epoch.
	if _, err := r.Promote(); !errors.Is(err, ErrNotReplica) {
		t.Fatalf("second Promote: %v, want ErrNotReplica", err)
	}
	if got := r.Epoch(); got != epoch {
		t.Fatalf("refused promotion moved the epoch: %d -> %d", epoch, got)
	}
	// Promoting a never-replica primary is the same typed no-op.
	p, err := Open(t.TempDir(), promoteTestOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Promote(); !errors.Is(err, ErrNotReplica) {
		t.Fatalf("Promote on a primary: %v, want ErrNotReplica", err)
	}
}

func TestZombiePrimaryFenced(t *testing.T) {
	p, r, tbl, _ := buildReplica(t)

	// The zombie's commit is in flight — updates applied, commit not yet
	// issued — when the cluster deposes the primary and promotes the
	// survivor.
	zombie, err := p.Begin(Serializable)
	if err != nil {
		t.Fatal(err)
	}
	if err := zombie.Set(tbl, []byte("alice"), []byte("999")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Promote(); err != nil {
		t.Fatalf("Promote survivor: %v", err)
	}
	if err := p.PromoteToFollower(); err != nil {
		t.Fatalf("PromoteToFollower: %v", err)
	}

	// The in-flight commit is refused — never acked — and its updates are
	// rolled back on the deposed node.
	if err := zombie.Commit(); !errors.Is(err, ErrReplica) {
		t.Fatalf("zombie commit: %v, want ErrReplica", err)
	}
	wantState(t, p, tbl, p.Now(), "deposed primary after fence",
		map[string]string{"alice": "150", "bob": "50"})

	// New writes on the deposed node are refused outright.
	tx, err := p.Begin(Serializable)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Set(tbl, []byte("bob"), []byte("0")); !errors.Is(err, ErrReplica) {
		t.Fatalf("write on deposed primary: %v, want ErrReplica", err)
	}
	tx.Rollback()

	// The survivor never saw the zombie write.
	rtbl, err := r.Table("acct")
	if err != nil {
		t.Fatal(err)
	}
	wantState(t, r, rtbl, r.Now(), "survivor after failover",
		map[string]string{"alice": "150", "bob": "50"})

	// Demoting a node that is already a replica is the typed error.
	if err := p.PromoteToFollower(); !errors.Is(err, ErrReplica) {
		t.Fatalf("double demotion: %v, want ErrReplica", err)
	}
}

// TestPromotedSurvivorIsolation runs the full timestamp-based isolation
// checker against a freshly promoted survivor: the concurrent workload, the
// offline history verification, first-committer-wins — everything a
// never-failed-over primary must satisfy, on a primary whose TID and
// timestamp spaces were re-based above a replicated prefix.
func TestPromotedSurvivorIsolation(t *testing.T) {
	_, r, _, _ := buildReplica(t)
	if _, err := r.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	seed := isoSeed()
	t.Logf("seed=%d (override with IMMORTALDB_ISO_SEED)", seed)
	runIsolationCheck(t, r, seed)
}
