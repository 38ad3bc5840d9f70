package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"capybara/internal/experiments"
	"capybara/internal/fleet"
	"capybara/internal/runner"
)

// pinnedJSON maps a report key (see fleetKey, tableKey) to the SHA-256
// of the report bytes at the commit that defined the benchmark. Fleet
// reports were rendered by capyfleet in its scalar-oracle configuration
// and cross-checked against its default configuration; matrix tables by
// capybench -csv. pin.sh regenerates the file.
//
//go:embed pinned.json
var pinnedJSON []byte

func loadPinned() (map[string]string, error) {
	m := map[string]string{}
	if err := json.Unmarshal(pinnedJSON, &m); err != nil {
		return nil, fmt.Errorf("perfbench: pinned.json: %w", err)
	}
	return m, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func fleetKey(s fleet.Spec) string {
	return fmt.Sprintf("fleet n=%d seed=%d scale=%g", s.N, s.Seed, s.Scale)
}

func tableKey(fig string, seed int64) string {
	return fmt.Sprintf("matrix %s seed=%d", fig, seed)
}

// gate is the correctness check every report passes through. A report
// whose key is pinned must match the pinned digest. Any other fleet
// report must match a reference rendered through the fleet.Job API
// (NewJob/RunChunk/Fold/WriteCSV), which the three measured paths —
// fleet.Run, the daemon and the shard coordinator — only share below
// the chunk level; any other matrix table must match the serial
// (jobs=1) matrix. Checks are recorded during the run and resolved by
// settle, so computing references never overlaps a timed interval.
type gate struct {
	pinned map[string]string

	mu     sync.Mutex
	ops    int
	checks []check
	fleets map[string]fleet.Spec
	matrix map[int64]bool
	refs   map[string]string
	failed []string

	// Set by settle: how many reports were checked against a pinned
	// digest and how many against a computed reference.
	pinnedChecks, refChecks int
}

// A check is one report of operation op; an operation (one fleet run,
// one daemon job, one matrix) fails if any of its reports mismatch.
type check struct {
	op       int
	key, got string
}

func newGate(pinned map[string]string) *gate {
	return &gate{pinned: pinned, fleets: map[string]fleet.Spec{}, matrix: map[int64]bool{}, refs: map[string]string{}}
}

// fleetReport records one fleet CSV report of spec for checking.
func (g *gate) fleetReport(s fleet.Spec, csv []byte) {
	k := fleetKey(s)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ops++
	g.checks = append(g.checks, check{g.ops, k, digest(csv)})
	g.fleets[k] = s
}

// matrixTables records the Fig. 8/9/11 tables of one matrix.
func (g *gate) matrixTables(m *experiments.Matrix) error {
	d, err := tableDigests(m)
	if err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ops++
	for fig, got := range d {
		g.checks = append(g.checks, check{g.ops, tableKey(fig, m.Seed), got})
	}
	g.matrix[m.Seed] = true
	return nil
}

// fail records an operation that produced no checkable output.
func (g *gate) fail(what string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ops++
	g.failed = append(g.failed, what)
}

// tableDigests renders each matrix table the way capybench -csv prints
// it (the CSV followed by one blank line) and digests it.
func tableDigests(m *experiments.Matrix) (map[string]string, error) {
	out := map[string]string{}
	for fig, t := range map[string]*experiments.Table{
		"fig8": m.AccuracyTable(), "fig9": m.LatencyTable(), "fig11": m.GapTable(),
	} {
		var b bytes.Buffer
		if err := t.WriteCSV(&b); err != nil {
			return nil, err
		}
		b.WriteByte('\n')
		out[fig] = digest(b.Bytes())
	}
	return out, nil
}

// settle resolves every recorded check and returns the number of
// operations attempted, the number failed and a sorted description of
// each mismatch. References for unpinned keys are computed here, once
// per key; settle runs once, at the end of a run.
func (g *gate) settle(ctx context.Context) (attempted, failed int, failures []string, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var todo []fleet.Spec
	for k, s := range g.fleets {
		if _, ok := g.pinned[k]; !ok {
			todo = append(todo, s)
		}
	}
	csvs, err := runner.Map(ctx, workers, len(todo), func(ctx context.Context, i int) ([]byte, error) {
		return runJob(ctx, todo[i])
	})
	if err != nil {
		return 0, 0, nil, fmt.Errorf("perfbench: fleet reference: %w", err)
	}
	for i, csv := range csvs {
		g.refs[fleetKey(todo[i])] = digest(csv)
	}
	var seeds []int64
	for seed := range g.matrix {
		if _, ok := g.pinned[tableKey("fig8", seed)]; !ok {
			seeds = append(seeds, seed)
		}
	}
	tables, err := runner.Map(ctx, workers, len(seeds), func(ctx context.Context, i int) (map[string]string, error) {
		m, err := experiments.RunMatrixParallel(ctx, seeds[i], 1.0, 1)
		if err != nil {
			return nil, err
		}
		return tableDigests(m)
	})
	if err != nil {
		return 0, 0, nil, fmt.Errorf("perfbench: reference matrix: %w", err)
	}
	for i, d := range tables {
		for fig, v := range d {
			g.refs[tableKey(fig, seeds[i])] = v
		}
	}
	failures = append(failures, g.failed...)
	bad := map[int]bool{}
	for _, c := range g.checks {
		want, ok := g.pinned[c.key]
		if ok {
			g.pinnedChecks++
		} else {
			want = g.refs[c.key]
			g.refChecks++
		}
		if c.got != want {
			bad[c.op] = true
			failures = append(failures, fmt.Sprintf("%s: report digest %.12s, want %.12s", c.key, c.got, want))
		}
	}
	sort.Strings(failures)
	return g.ops, len(bad) + len(g.failed), failures, nil
}
