package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"capybara/internal/fleet"
)

// tinySpec keeps reference computations in these tests to milliseconds.
var tinySpec = fleet.Spec{N: 3, Seed: 7, Scale: 0.01}

func tinyReport(t *testing.T) []byte {
	t.Helper()
	csv, err := runJob(context.Background(), tinySpec)
	if err != nil {
		t.Fatal(err)
	}
	return csv
}

// corrupt flips one digit of the report's TOTAL row.
func corrupt(csv []byte) []byte {
	b := bytes.Clone(csv)
	i := bytes.LastIndex(b, []byte("TOTAL"))
	for ; i < len(b); i++ {
		if b[i] >= '0' && b[i] <= '8' {
			b[i]++
			return b
		}
	}
	panic("no digit to corrupt")
}

func TestGateCatchesCorruptReport(t *testing.T) {
	csv := tinyReport(t)
	for _, tc := range []struct {
		name   string
		pinned map[string]string
	}{
		{"pinned", map[string]string{fleetKey(tinySpec): digest(csv)}},
		{"reference", map[string]string{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newGate(tc.pinned)
			g.fleetReport(tinySpec, csv)
			g.fleetReport(tinySpec, corrupt(csv))
			attempted, failed, failures, err := g.settle(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if attempted != 2 || failed != 1 || len(failures) != 1 {
				t.Fatalf("attempted %d, failed %d, failures %q; want 2, 1 and one failure", attempted, failed, failures)
			}
		})
	}
}

// TestMismatchFailsCommand: a report that mismatches its pinned digest
// makes the command report correct=false and exit non-zero.
func TestMismatchFailsCommand(t *testing.T) {
	saved := pinnedJSON
	defer func() { pinnedJSON = saved }()
	pinned, err := loadPinned()
	if err != nil {
		t.Fatal(err)
	}
	pinned[tableKey("fig8", 42)] = strings.Repeat("0", 64)
	if pinnedJSON, err = json.Marshal(pinned); err != nil {
		t.Fatal(err)
	}
	inTempDir(t)
	var out bytes.Buffer
	code := run([]string{"--workload", "paper-matrix", "--seed", "1", "--seconds", "0.01"}, &out, &out)
	res := lastJSON(t, out.String())
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("exit %d, correct %v, failed %d; want a non-zero exit and a failure", code, res.Correct, res.Failed)
	}
}

// TestDefaultSeedsPinned: at seeds 0-40 every report a run checks —
// each fleet and sharded spec, each fresh daemon spec a traced run can
// submit, each matrix schedule — has a pinned digest, so none falls
// back to a computed reference.
func TestDefaultSeedsPinned(t *testing.T) {
	pinned, err := loadPinned()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed <= 40; seed++ {
		var keys []string
		for i := 0; i < fleetSpecs; i++ {
			keys = append(keys, fleetKey(fleetSpec(seed, i)))
		}
		for k := 0; k < daemonJobs; k++ {
			spec, _ := daemonSpec(seed, k)
			keys = append(keys, fleetKey(spec))
		}
		for i := 0; i < matrixSeeds; i++ {
			for _, fig := range []string{"fig8", "fig9", "fig11"} {
				keys = append(keys, tableKey(fig, subSeed(seed, i)))
			}
		}
		for _, k := range keys {
			if _, ok := pinned[k]; !ok {
				t.Fatalf("seed %d: %q is not pinned", seed, k)
			}
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	if _, ok := percentile(seq(99), 0.9); ok {
		t.Error("p90 of 99 samples has 9 beyond it; want it refused")
	}
	if v, ok := percentile(seq(100), 0.9); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := percentile(seq(20), 0.5); !ok {
		t.Error("p50 of 20 samples has 10 beyond it; want it allowed")
	}
	if _, ok := percentile(seq(19), 0.5); ok {
		t.Error("p50 of 19 samples has 9 beyond it; want it refused")
	}
	if m := median(seq(4)); m != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", m)
	}
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestNamesMatchBenchmarkFile: the command knows every workload
// BENCHMARK.json declares, its metric names and units are exactly those
// declared, and a run prints only declared names with their units.
func TestNamesMatchBenchmarkFile(t *testing.T) {
	f := loadBenchmarkFile(t)
	declared := func(ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	e2e, layers := declared(f.EndToEnd), declared(f.PerLayer)
	assertSame(t, "end-to-end", e2e, endToEndUnits)
	assertSame(t, "per-layer", layers, perLayerUnits)
	for _, w := range f.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the command", w.Name)
		}
	}

	inTempDir(t)
	for _, tc := range []struct {
		trace string
		want  map[string]string
		all   bool
	}{
		{"0", e2e, true},
		// A traced run this short has too few samples for the p90s,
		// which report as absent.
		{"1", layers, false},
	} {
		var out bytes.Buffer
		if code := run([]string{"--workload", "fleet", "--seconds", "0.01", "--trace", tc.trace}, &out, &out); code != 0 {
			t.Fatalf("--trace %s: exit %d\n%s", tc.trace, code, out.String())
		}
		res := lastJSON(t, out.String())
		for k, v := range res.Metrics {
			if unit, ok := tc.want[k]; !ok || unit != v.Unit {
				t.Errorf("--trace %s printed %s in %q; BENCHMARK.json has %q (declared: %v)", tc.trace, k, v.Unit, unit, ok)
			}
		}
		if tc.all && len(res.Metrics) != len(tc.want) {
			t.Errorf("--trace %s printed %d metrics, want all %d", tc.trace, len(res.Metrics), len(tc.want))
		}
	}
}

func assertSame(t *testing.T, what string, file, code map[string]string) {
	t.Helper()
	for k, u := range file {
		if code[k] != u {
			t.Errorf("%s metric %s: BENCHMARK.json unit %q, command unit %q", what, k, u, code[k])
		}
	}
	for k := range code {
		if _, ok := file[k]; !ok {
			t.Errorf("%s metric %s is not in BENCHMARK.json", what, k)
		}
	}
}

func lastJSON(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result record: %v\n%s", err, out)
	}
	return res
}

// inTempDir runs the rest of the test in a fresh directory, where the
// command writes its .perfbench outputs.
func inTempDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}
