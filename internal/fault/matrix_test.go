package fault

import (
	"fmt"
	"strings"
	"testing"

	"immortaldb"
	"immortaldb/internal/wal"
)

// TestVerifyContainment pins the first oracle rule: in a crash scenario only
// the crash explains a workload error — a secondary ErrDegraded or
// wal.ErrFailed on a run that never crashed is an engine bug — while a
// sustained-fault scenario accepts exactly those.
func TestVerifyContainment(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		err      error
		reject   bool
	}{
		{"concurrent", fmt.Errorf("worker: %w", immortaldb.ErrDegraded), true},
		{"sequential", fmt.Errorf("txn 3 commit: %w", wal.ErrFailed), true},
		{"persistence", fmt.Errorf("txn 3 commit: %w", wal.ErrFailed), false},
	} {
		r := Run(Coord{Scenario: tc.scenario, Seed: 1})
		if r.Err != nil || Crashed(r) {
			t.Fatalf("%s baseline: err %v, crashed %v", tc.scenario, r.Err, Crashed(r))
		}
		r.Err = tc.err
		err := Verify(r)
		if rejected := err != nil && strings.Contains(err.Error(), "without a crash"); rejected != tc.reject {
			t.Errorf("%s with uncrashed %v: Verify = %v, want rejected=%v", tc.scenario, tc.err, err, tc.reject)
		}
	}
}
