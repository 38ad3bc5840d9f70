// Command perfbench is the repository's benchmark. One run drives one
// workload through the public entry points users run — fleet.Run and
// the paper's app×variant matrix — checks every report against a pinned
// or independently computed reference, and prints every metric by name
// and unit. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload fleet --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 the run drives four passes — fleet, the
// paper matrix, the fleetsvc daemon over loopback HTTP, and the shard
// coordinator with its workers — through the layers' public functions
// with a span around each call, and reports the per-layer metrics, each
// layer's self time and the tracing overhead (the same work traced and
// untraced). Spans are written to .perfbench/trace-<workload>-<seed>.json.
//
// The command exits 1 when any report mismatches its reference, and 2
// on bad arguments.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"capybara/internal/experiments"
)

// workloads maps each workload an untraced run can measure to its pass.
var workloads = map[string]func(context.Context, *runEnv) (*pass, error){
	"fleet":        fleetWorkload,
	"paper-matrix": matrixWorkload,
}

// tracedPasses are the passes a traced run drives, in order. The daemon
// and the shard coordinator are traced only: on this benchmark's
// 2-CPU reference machine their end-to-end figures did not hold still
// enough between runs to bound.
var tracedPasses = []func(context.Context, *runEnv) (*pass, error){
	fleetWorkload, matrixWorkload, daemonWorkload, shardWorkload,
}

// endToEndUnits are the end-to-end metrics every untraced run reports.
var endToEndUnits = map[string]string{
	"devices_per_s": "devices/s",
	"job_p50_s":     "s",
	"fig8_err_pp":   "pp",
	"setup_s":       "s",
	"peak_rss_mb":   "MiB",
}

// perLayerUnits are the per-layer metrics a traced run reports.
var perLayerUnits = map[string]string{
	"fleet.chunk_ms_p50":             "ms",
	"fleet.chunk_ms_p90":             "ms",
	"fleet.fold_ms":                  "ms",
	"fleet.report_ms":                "ms",
	"power.memo_hit_rate":            "ratio",
	"sim.opcache_replay_rate":        "ratio",
	"sim.opcache_vector_rate":        "ratio",
	"sim.opcache_mean_width":         "devices",
	"sim.sim_s_per_host_s":           "s/s",
	"task.fused_rate":                "ratio",
	"task.fused_rate.capyp_steady":   "ratio",
	"task.fused_rate.pwm":            "ratio",
	"task.fuse_hint_rate":            "ratio",
	"task.cohort_spin_rate":          "ratio",
	"task.spin_fold_x":               "x",
	"harvest.phase_hit_rate":         "ratio",
	"apps.build_ms":                  "ms",
	"apps.cell_max_s":                "s",
	"apps.cell_sum_s":                "s",
	"runtime.alloc_bytes_per_device": "B/device",
	"runtime.mallocs_per_device":     "allocs/device",
	"runtime.gc_cpu_frac":            "ratio",
	"runtime.alloc_bytes_per_cell":   "B/cell",
	"fleetsvc.submit_ms_p50":         "ms",
	"fleetsvc.queue_wait_ms_p50":     "ms",
	"fleetsvc.run_s_p50":             "s",
	"fleetsvc.report_ms_p50":         "ms",
	"fleetsvc.store_put_us_p50":      "us",
	"fleetsvc.store_get_us_p50":      "us",
	"fleetsvc.entry_bytes":           "B",
	"fleetsvc.memo_loaded_frac":      "ratio",
	"fleetsvc.fused_rate":            "ratio",
	"shard.chunk_gap_ms_p50":         "ms",
	"shard.chunk_gap_ms_p90":         "ms",
	"shard.partial_bytes":            "B",
	"shard.encode_us":                "us",
	"shard.decode_us":                "us",
	"shard.overhead_frac":            "ratio",
	"trace.overhead_frac":            "ratio",
}

// outDir holds everything a run leaves behind, relative to the
// directory the benchmark runs in.
const outDir = ".perfbench"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fleet or paper-matrix")
	seed := fs.Int64("seed", 1, "seed every input derives from")
	seconds := fs.Float64("seconds", 10, "seconds each pass measures for")
	traceMode := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || fs.NArg() > 0 || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload fleet|paper-matrix --seed N --seconds S --trace 0|1")
		return 2
	}
	res, err := measure(*name, *seed, time.Duration(*seconds*float64(time.Second)), *traceMode == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs one workload and returns the result record.
func measure(name string, seed int64, budget time.Duration, traced bool, out io.Writer) (*result, error) {
	ctx := context.Background()
	pinned, err := loadPinned()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	g := newGate(pinned)
	printContext(out, name, seed, budget)
	env := &runEnv{seed: seed, budget: budget, gate: g, dir: dir}

	res := &result{Metrics: map[string]value{}}
	if !traced {
		// The model's error against the paper, stated beside every
		// speed-up.
		acc, err := experiments.RunMatrixParallel(ctx, experiments.DefaultSeed, 1.0, workers)
		if err != nil {
			return nil, err
		}
		if err := g.matrixTables(acc); err != nil {
			return nil, err
		}
		errPP := fig8ErrPP(acc)

		// Start the workload from a collected heap, so the accuracy
		// matrix's garbage is neither collected during the timed work
		// nor counted in its peak RSS.
		debug.FreeOSMemory()
		resetPeakRSS()
		p, err := workloads[name](ctx, env)
		if err != nil {
			return nil, err
		}
		if len(p.items) == 0 {
			return nil, fmt.Errorf("%s: no work item completed", name)
		}
		e2e := endToEnd(p, errPP, peakRSS())
		printPass(out, p)
		keys := make([]string, 0, len(e2e))
		for k := range e2e {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(out, "perfbench: %s %-13s = %.6g %s\n", name, k, e2e[k], endToEndUnits[k])
			res.Metrics[k] = value{e2e[k], endToEndUnits[k]}
		}
		if name == "paper-matrix" {
			fmt.Fprintf(out, "perfbench: %s matrix_s      = %.6g s (host s per full matrix: job_p50_s)\n", name, e2e["job_p50_s"])
		}
	} else {
		env.tr = newTracer()
		layers, err := tracedRun(ctx, env, fmt.Sprintf("trace-%s-%d.json", name, seed), out)
		if err != nil {
			return nil, err
		}
		names := make([]string, 0, len(perLayerUnits))
		for k := range perLayerUnits {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			v, ok := layers[k]
			if !ok {
				fmt.Fprintf(out, "perfbench: layer %-32s absent\n", k)
				continue
			}
			fmt.Fprintf(out, "perfbench: layer %-32s %14.6g %s\n", k, v, perLayerUnits[k])
			res.Metrics[k] = value{v, perLayerUnits[k]}
		}
	}

	attempted, failed, failures, err := g.settle(ctx)
	if err != nil {
		return nil, err
	}
	for _, f := range failures {
		fmt.Fprintln(out, "perfbench: MISMATCH", f)
	}
	fmt.Fprintf(out, "perfbench: %d reports checked against pinned digests, %d against computed references\n", g.pinnedChecks, g.refChecks)
	res.Attempted, res.Failed, res.Correct = attempted, failed, failed == 0
	fmt.Fprintf(out, "perfbench: %s fail_frac = %g (%d failed of %d attempted)\n", name, float64(failed)/float64(attempted), failed, attempted)
	return res, nil
}

// tracedRun drives every traced pass with spans around each call and
// returns the per-layer metrics; the spans go to outDir/file.
func tracedRun(ctx context.Context, env *runEnv, file string, out io.Writer) (map[string]float64, error) {
	layers := map[string]float64{}
	passes := map[string]*pass{}
	for _, run := range tracedPasses {
		debug.FreeOSMemory()
		p, err := run(ctx, env)
		if err != nil {
			return nil, err
		}
		passes[p.workload] = p
		for k, v := range p.layers {
			layers[k] = v
		}
		printPass(out, p)
		writeSelfTable(out, p.workload, env.tr.closed(p.workload))
	}

	// The tracing overhead, per pass: each twin's traced over untraced
	// time, which is also the overhead on devices_per_s and job_p50_s.
	for _, w := range []string{"fleet", "paper-matrix"} {
		var ratios []float64
		for _, t := range passes[w].twins {
			ratios = append(ratios, t.traced/t.plain-1)
		}
		v := median(ratios)
		fmt.Fprintf(out, "perfbench: %s trace overhead %+.2f%% on item time, devices_per_s and job_p50_s (median of %d traced/untraced twins)\n", w, 100*v, len(ratios))
		if w == "fleet" {
			layers["trace.overhead_frac"] = v
		}
	}
	// The protocol's cost: sharded against untraced fleet items on the
	// specs both ran.
	fleetPlain := map[int][]float64{}
	for _, t := range passes["fleet"].twins {
		fleetPlain[t.input] = append(fleetPlain[t.input], t.plain)
	}
	var fleetSum, shardSum float64
	for in, xs := range byInput(passes["sharded"]) {
		if ys, ok := fleetPlain[in]; ok {
			fleetSum += median(ys)
			shardSum += median(xs)
		}
	}
	if shardSum > 0 {
		layers["shard.overhead_frac"] = 1 - fleetSum/shardSum
	}

	path := filepath.Join(outDir, file)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := env.tr.writeJSON(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fmt.Fprintln(out, "perfbench: spans written to", path)
	return layers, nil
}

// byInput groups a pass's item times by input.
func byInput(p *pass) map[int][]float64 {
	m := map[int][]float64{}
	for i, x := range p.items {
		m[p.inputs[i]] = append(m[p.inputs[i]], x)
	}
	return m
}

// devicesPerSec is a pass's throughput with every input weighed alike:
// the devices of one item per input over the sum of each input's median
// item time.
func devicesPerSec(p *pass) float64 {
	var sum float64
	m := byInput(p)
	for _, xs := range m {
		sum += median(xs)
	}
	return float64(p.per*len(m)) / sum
}

// endToEnd derives the end-to-end metrics of a pass.
func endToEnd(p *pass, errPP, rssMiB float64) map[string]float64 {
	return map[string]float64{
		"devices_per_s": devicesPerSec(p),
		"job_p50_s":     median(p.items),
		"fig8_err_pp":   errPP,
		"setup_s":       median(p.setups),
		"peak_rss_mb":   rssMiB,
	}
}

// printPass prints a pass's sample counts and item-time percentiles.
func printPass(out io.Writer, p *pass) {
	fmt.Fprintf(out, "perfbench: %s samples: %d items on %d inputs, %d set-ups, %d twins\n", p.workload, len(p.items), len(byInput(p)), len(p.setups), len(p.twins))
	fmt.Fprintf(out, "perfbench: %s item p50     = %.6g s\n", p.workload, median(p.items))
	if v, ok := percentile(p.items, 0.9); ok {
		fmt.Fprintf(out, "perfbench: %s item p90     = %.6g s\n", p.workload, v)
	} else {
		fmt.Fprintf(out, "perfbench: %s item p90     = n/a (%d items leave fewer than %d beyond p90)\n", p.workload, len(p.items), minBeyond)
	}
}

// resetPeakRSS restarts the kernel's peak-RSS count (Linux), so the
// peak covers the workload and not the accuracy matrix before it.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: elsewhere the peak covers the whole run
}

// peakRSS returns the process's peak resident set size in MiB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	kib := float64(ru.Maxrss)
	if runtime.GOOS == "darwin" {
		kib /= 1024 // bytes there
	}
	return kib / 1024
}

// printContext records what the numbers were measured on.
func printContext(out io.Writer, name string, seed int64, budget time.Duration) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+modified"
			}
		}
	}
	fmt.Fprintf(out, "perfbench: context nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), commit)
	fmt.Fprintf(out, "perfbench: run workload=%s seed=%d seconds=%g workers=%d\n", name, seed, budget.Seconds(), workers)
	fmt.Fprintf(out, "perfbench: inputs fleet: n=%d scale=%g, %d specs | paper-matrix: scale 1, %d schedules | traced daemon: n=%d scale=%g, %d clients, repeat share %g, up to %d jobs | traced sharded: fleet specs, %d workers\n",
		fleetN, fleetScale, fleetSpecs, matrixSeeds, daemonN, fleetScale, workers, 1/float64(repeatEvery), daemonJobs, workers)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
