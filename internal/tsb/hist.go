package tsb

import (
	"immortaldb/internal/hist"
	"immortaldb/internal/itime"
)

// ColdVersion is one record version served from the cold history tier.
// Cold versions are always stamped — unstamped versions never migrate.
type ColdVersion = hist.Version

// HistStore is the tree's view of the cold history tier (implemented by the
// engine over internal/hist). Every method may be called under the tree's
// shared lock; implementations must be safe for concurrent use.
//
// The contract with the read path: the cold tier holds exactly the versions
// of history pages that were cut from the chains, so it is consulted ONLY
// when a chain walk exhausts (Hist == 0) without covering the requested
// time. Versions reachable through the chain are never also asked of the
// cold tier, which keeps replicated spanning copies from double-counting.
type HistStore interface {
	// Lookup returns the newest cold version of key with TS <= ts.
	// ok=false means the record did not exist at ts.
	Lookup(key []byte, ts itime.Timestamp) (ColdVersion, bool, error)
	// Newest returns the newest cold version of key regardless of time.
	Newest(key []byte) (ColdVersion, bool, error)
	// KeyHistory returns every cold version of key, newest first.
	KeyHistory(key []byte) ([]ColdVersion, error)
	// ScanAsOf visits the newest cold version with TS <= ts of every key in
	// [lo, hi) in ascending key order, delete stubs included. fn returning
	// false stops the scan. key is valid only during the call; every
	// returned value is the caller's.
	ScanAsOf(lo, hi []byte, ts itime.Timestamp, fn func(key []byte, v ColdVersion) bool) error
}

// coldResult converts a cold version to a read Result, copying the key
// (a scan's key buffer is reused) but not the value, which the cold tier
// already copied out of its block.
func coldResult(key []byte, v ColdVersion) Result {
	return Result{
		Key:     append([]byte(nil), key...),
		Value:   v.Value,
		TS:      v.TS,
		Found:   !v.Stub,
		Deleted: v.Stub,
	}
}

// coldRead answers a point read from the cold tier after the chain
// exhausted without covering ts.
func (t *Tree) coldRead(key []byte, ts itime.Timestamp) (Result, error) {
	if t.cfg.Hist == nil {
		return Result{}, nil // before the beginning of history
	}
	v, ok, err := t.cfg.Hist.Lookup(key, ts)
	if err != nil || !ok {
		return Result{}, err
	}
	return coldResult(key, v), nil
}
