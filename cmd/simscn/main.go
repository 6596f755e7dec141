// Command simscn runs the deterministic simulation scenario suite: whole
// client/server clusters in one process, over a seeded in-memory network on
// a virtual timeline, with scripted partitions, drops and mid-frame kills.
// A run is reproduced bit-for-bit by its (scenario, seed) pair.
//
// Usage:
//
//	simscn -list
//	simscn [-scenario all] [-seed 1] [-verify] [-out report.json]
//
// With -verify each run executes twice and the trace hashes must match
// (the determinism contract). Exit status 1 on any oracle violation or
// hash mismatch; the failing run's repro command is printed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"immortaldb/internal/sim"
)

// report is one scenario run plus everything needed to replay it: the
// scenario name and seed are the complete repro parameters — the harness is
// deterministic, so they reproduce the run bit-for-bit. -out writes a list of
// them as JSON, the CI artifact.
type report struct {
	Scenario   string   `json:"scenario"`
	Seed       int64    `json:"seed"`
	Hash       string   `json:"hash"`
	Hash2      string   `json:"hash2,omitempty"`
	Events     int      `json:"events"`
	Ops        int      `json:"ops"`
	Errors     int      `json:"errors"`
	Violations []string `json:"violations,omitempty"`
	// Deterministic is set when the run was executed twice and the trace
	// hashes compared.
	Deterministic *bool `json:"deterministic,omitempty"`
}

// failed reports whether the run violated an oracle or the determinism
// contract.
func (r *report) failed() bool {
	return len(r.Violations) > 0 || (r.Deterministic != nil && !*r.Deterministic)
}

// run executes one predefined scenario under one seed. With verify set, it
// runs twice and records whether the trace hashes matched.
func run(name string, seed int64, verify bool) (*report, error) {
	sc, _ := sim.Predefined(name)
	res, err := sim.Run(sc, seed)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Scenario:   name,
		Seed:       seed,
		Hash:       res.Hash,
		Events:     res.Events,
		Ops:        res.Ops,
		Errors:     res.Errors,
		Violations: res.Violations,
	}
	if verify {
		res2, err := sim.Run(sc, seed)
		if err != nil {
			return nil, err
		}
		rep.Hash2 = res2.Hash
		det := res2.Hash == res.Hash
		rep.Deterministic = &det
	}
	return rep, nil
}

func main() {
	var (
		scenario = flag.String("scenario", "all", "scenario name, or 'all' for the suite")
		seeds    = flag.String("seed", "1", "comma-separated list of seeds")
		verify   = flag.Bool("verify", false, "run each scenario twice and compare trace hashes")
		out      = flag.String("out", "", "write a JSON report (the CI artifact) to this file")
		list     = flag.Bool("list", false, "list predefined scenarios")
	)
	flag.Parse()

	if *list {
		for _, n := range sim.ScenarioNames() {
			fmt.Println(n)
		}
		return
	}

	var seedList []int64
	for _, s := range strings.Split(*seeds, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simscn: bad seed %q: %v\n", s, err)
			os.Exit(2)
		}
		seedList = append(seedList, v)
	}
	names := sim.ScenarioNames()
	if *scenario != "all" {
		if !slices.Contains(names, *scenario) {
			fmt.Fprintf(os.Stderr, "simscn: unknown scenario %q (have %v)\n", *scenario, names)
			os.Exit(2)
		}
		names = []string{*scenario}
	}

	var reports []*report
	pass := true
	for _, seed := range seedList {
		for _, name := range names {
			rep, err := run(name, seed, *verify)
			if err != nil {
				fmt.Fprintf(os.Stderr, "simscn: %v\n", err)
				os.Exit(2)
			}
			reports = append(reports, rep)
			status := "ok"
			if rep.failed() {
				status = "FAIL"
				pass = false
			}
			fmt.Printf("%-10s seed=%-12d %s  ops=%d errs=%d events=%d hash=%s\n",
				rep.Scenario, rep.Seed, status, rep.Ops, rep.Errors, rep.Events, rep.Hash[:16])
			for _, v := range rep.Violations {
				fmt.Printf("  violation: %s\n", v)
			}
			if rep.Deterministic != nil && !*rep.Deterministic {
				fmt.Printf("  nondeterministic: %s vs %s\n", rep.Hash, rep.Hash2)
			}
			if rep.failed() {
				fmt.Printf("  repro: go run ./cmd/simscn -scenario %s -seed %d\n", rep.Scenario, rep.Seed)
			}
		}
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err == nil {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			err = enc.Encode(reports)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "simscn: %v\n", err)
			os.Exit(2)
		}
	}
	if !pass {
		os.Exit(1)
	}
}
