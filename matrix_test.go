package immortaldb_test

// The crash matrix: every scenario of internal/fault, swept by one driver.
// A sweep runs the scenario's workload fault-free to size its coordinate
// space (and, for the single-threaded scenarios, runs it again to prove the
// coordinates are stable), then injects the fault at each listed coordinate
// in turn — reboot with torn/lost sectors, reopen, shared oracle.
//
// Every failure prints its coordinate; pasted back,
//
//	go test -run TestMatrix -matrix=<scenario>:<seed>:<point>[:<extra>] .
//
// re-runs exactly that point (bit-identically for the single-threaded
// scenarios) with the disk-op trace. Without a point, -matrix=<scenario>:<seed>
// runs the table row of that name, or for a seed the table does not list the
// scenario's full sweep under it.

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"sync/atomic"
	"testing"

	"immortaldb/internal/fault"
)

var matrixFlag = flag.String("matrix", "", "crash-matrix coordinate <scenario>:<seed>[:<point>[:<extra>]]: replay one point, or without a point sweep the scenario under that seed")

// coordsFn lists the coordinates a sweep injects, given its fault-free
// baseline. Nil means the sweep does not run in -short mode.
type coordsFn func(base *fault.Result) []fault.Coord

// every lists every stride-th crash point (short-th under -short; 0 = skip).
func every(stride, short int64) coordsFn {
	return func(base *fault.Result) []fault.Coord {
		step := stride
		if testing.Short() {
			step = short
		}
		var cs []fault.Coord
		for p := int64(1); step > 0 && p <= base.Ops; p += step {
			c := base.Coord
			c.Point = p
			cs = append(cs, c)
		}
		return cs
	}
}

// steps lists about n evenly strided crash points (short under -short). The
// racy scenarios use it: their op count is only an estimate for other
// interleavings, which is all a strided sweep needs.
func steps(n, short int64, extra string) coordsFn {
	return func(base *fault.Result) []fault.Coord {
		want := n
		if testing.Short() {
			want = short
		}
		stride := base.Ops / want
		if stride < 1 {
			stride = 1
		}
		var cs []fault.Coord
		for p := int64(1); p <= base.Ops; p += stride {
			c := base.Coord
			c.Point, c.Extra = p, extra
			cs = append(cs, c)
		}
		return cs
	}
}

func join(fns ...coordsFn) coordsFn {
	return func(base *fault.Result) []fault.Coord {
		var cs []fault.Coord
		for _, fn := range fns {
			cs = append(cs, fn(base)...)
		}
		return cs
	}
}

// grid lists the persistence cells: fault kinds × start points sampled
// across the whole workload (open included) × persistence lengths.
func grid(base *fault.Result) []fault.Coord {
	starts, persists := int64(9), []int64{1, 4, -1}
	if testing.Short() {
		starts, persists = 3, []int64{1, -1}
	}
	var cs []fault.Coord
	for _, kind := range base.Scenario.Kinds {
		for s := int64(0); s < starts; s++ {
			for _, p := range persists {
				c := base.Coord
				c.Point = s*base.Ops/starts + 1
				c.Extra = fmt.Sprintf("%s:%d", kind.Name, p)
				cs = append(cs, c)
			}
		}
	}
	return cs
}

// sweep is one row of the matrix table. The first row of a scenario is its
// full sweep (the one -matrix=<scenario>:<seed> borrows for a seed the table
// does not list); later rows are reduced sweeps under a second seed — a
// different workload and different torn-sector coin flips.
type sweep struct {
	scenario string
	seed     int64
	coords   coordsFn
	// minOps is the floor on the baseline's coordinate space and minCoords on
	// the coordinates a full (non -short) sweep injects: a matrix is only
	// exhaustive if the workload really spans that many distinct points.
	minOps    int64
	minCoords int
	// exceeds names a scenario whose baseline this one must out-span: the
	// tiered workload's extra operations ARE the migration pipeline under
	// test.
	exceeds string
	// hitOneIn, if set, demands that at least one coordinate in hitOneIn
	// actually crashed (or degraded) the engine, or the sweep is not
	// exercising recovery. The single-threaded crash scenarios leave it
	// unset: Verify itself rejects a point that did not crash.
	hitOneIn int
	// wantClean demands that some cell survived its transient fault
	// outright, so persistence clearing is exercised.
	wantClean bool
	// parallel runs each coordinate as a parallel subtest.
	parallel bool
}

var sweeps = []sweep{
	{scenario: "sequential", seed: 1, coords: every(1, 1), minCoords: 500},
	{scenario: "sequential", seed: 42, coords: every(3, 0)},
	{scenario: "tiered", seed: 1, coords: every(1, 4), minCoords: 600, exceeds: "sequential"},
	// The 200µs points give the group-commit leader a window to wait for
	// followers, shifting which commit records each sync round covers.
	{scenario: "concurrent", seed: 1, coords: join(steps(48, 12, ""), steps(5, 5, "200us")), minOps: 120, minCoords: 53, hitOneIn: 2},
	{scenario: "tiered-concurrent", seed: 1, coords: steps(36, 10, ""), minCoords: 36, hitOneIn: 2},
	{scenario: "persistence", seed: 1, coords: grid, minOps: 100, minCoords: 216, hitOneIn: 4, wantClean: true, parallel: true},
	{scenario: "tiered-persistence", seed: 1, coords: grid, minOps: 100, minCoords: 108, hitOneIn: 4, wantClean: true, parallel: true},
	{scenario: "replica", seed: 1, coords: every(1, 5), minCoords: 250},
	{scenario: "replica", seed: 23, coords: every(3, 0)},
	{scenario: "promotion", seed: 1, coords: every(1, 3), minCoords: 40},
	{scenario: "promotion", seed: 31, coords: every(2, 0)},
}

// runCoord runs and verifies one coordinate.
func runCoord(t *testing.T, c fault.Coord) *fault.Result {
	t.Helper()
	r := fault.Run(c)
	if err := fault.Verify(r); err != nil {
		t.Fatalf("%v\n%s", err, fault.Describe(r))
	}
	return r
}

func (s sweep) run(t *testing.T) {
	// Baseline: the workload must complete cleanly with no fault injected,
	// and the oracle must accept the unfaulted database.
	origin := fault.Coord{Scenario: s.scenario, Seed: s.seed}
	base := runCoord(t, origin)
	if !base.Clean {
		t.Fatalf("baseline did not run clean\n%s", fault.Describe(base))
	}
	if !base.Scenario.Racy {
		// The same seed must produce the same I/O sequence, commit
		// timestamps and replication horizon, or "fault at op N" is not a
		// stable coordinate.
		if again := runCoord(t, origin); again.Fingerprint() != base.Fingerprint() {
			t.Fatalf("workload is not deterministic:\nrun 1: %s\nrun 2: %s", base.Fingerprint(), again.Fingerprint())
		}
	}
	if base.Ops < s.minOps {
		t.Fatalf("baseline spans only %d operations; need >= %d", base.Ops, s.minOps)
	}
	if s.exceeds != "" {
		plain := fault.Run(fault.Coord{Scenario: s.exceeds, Seed: s.seed})
		if !plain.Clean || base.Ops <= plain.Ops {
			t.Fatalf("baseline spans %d ops, %s %d (clean=%v); the extra pipeline generated no crash points",
				base.Ops, s.exceeds, plain.Ops, plain.Clean)
		}
	}
	coords := s.coords(base)
	if coords == nil {
		t.Skip("reduced sweep skipped in -short mode")
	}
	if !testing.Short() && len(coords) < s.minCoords {
		t.Fatalf("sweep lists only %d coordinates, want >= %d", len(coords), s.minCoords)
	}

	var hit, clean atomic.Int64
	one := func(t *testing.T, c fault.Coord) {
		r := runCoord(t, c)
		if fault.Crashed(r) || r.Degraded {
			hit.Add(1)
		}
		if r.Clean {
			clean.Add(1)
		}
	}
	// Registered before the cells so it runs after every parallel one.
	t.Cleanup(func() {
		t.Logf("%s matrix: seed=%d, %d-op baseline with %d acked txns, %d coordinates swept, %d crashed/degraded, %d clean",
			s.scenario, s.seed, base.Ops, base.Acked(), len(coords), hit.Load(), clean.Load())
		if t.Failed() {
			return
		}
		if s.hitOneIn > 0 && int(hit.Load())*s.hitOneIn < len(coords) {
			t.Errorf("only %d of %d coordinates crashed or degraded the engine; the faults are not biting", hit.Load(), len(coords))
		}
		if s.wantClean && clean.Load() == 0 {
			t.Errorf("no cell survived its transient fault cleanly; persistence clearing is not exercised")
		}
	})
	for _, c := range coords {
		c := c
		if s.parallel {
			t.Run(c.String(), func(t *testing.T) {
				t.Parallel()
				one(t, c)
			})
		} else {
			one(t, c)
		}
	}
}

// pick resolves -matrix=<scenario>:<seed> to a sweep: the table row with
// that seed, or else the scenario's full sweep under the new seed without
// the size floors, which were measured for the row's own seed.
func pick(c fault.Coord) sweep {
	var full *sweep
	for i, s := range sweeps {
		if s.scenario != c.Scenario {
			continue
		}
		if s.seed == c.Seed {
			return s
		}
		if full == nil {
			full = &sweeps[i]
		}
	}
	s := *full
	s.seed, s.minOps, s.minCoords = c.Seed, 0, 0
	return s
}

// TestNightlyLegsAreTableRows keeps the nightly workflow honest: each
// -matrix=<scenario>:<seed> leg it lists must name a table row — so it keeps
// that row's floors and the plain test run already sweeps it — and every row
// must have a leg.
func TestNightlyLegsAreTableRows(t *testing.T) {
	yml, err := os.ReadFile(".github/workflows/nightly.yml")
	if err != nil {
		t.Fatal(err)
	}
	legs := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\s+- "([a-z-]+:\d+)"$`).FindAllStringSubmatch(string(yml), -1) {
		legs[m[1]] = true
	}
	rows := map[string]bool{}
	for _, s := range sweeps {
		rows[fmt.Sprintf("%s:%d", s.scenario, s.seed)] = true
	}
	if !reflect.DeepEqual(legs, rows) {
		t.Errorf("nightly legs %v\n   != table rows %v", legs, rows)
	}
}

func TestMatrix(t *testing.T) {
	if *matrixFlag != "" {
		c, err := fault.ParseCoord(*matrixFlag)
		if err != nil {
			t.Fatal(err)
		}
		if c.Point > 0 {
			runCoord(t, c)
			return
		}
		pick(c).run(t)
		return
	}
	for _, s := range sweeps {
		t.Run(fmt.Sprintf("%s:%d", s.scenario, s.seed), s.run)
	}
}
